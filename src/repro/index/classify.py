"""Theorems 5 and 6 as executable predicates (paper §4.1.2).

For a query polygon ``G`` at time ``t0`` and a moving object ``o``:

* **Theorem 5** — o *may* be in G at ``t0`` iff the region ``R_G(t0)``
  (the polygon at that time) intersects the o-plane; equivalently, iff
  G intersects o's uncertainty interval at ``t0``.
* **Theorem 6** — o *must* be in G at ``t0`` iff additionally both
  interval endpoints ``L(t0)`` and ``U(t0)`` lie in ``R_G(t0)`` — for
  the closed route strips produced here that means the entire interval
  lies inside G.

These operate directly on an :class:`~repro.index.oplane.OPlane` and
classify through :func:`repro.dbms.query.classify_polyline_against_polygon`,
the predicate every DBMS query route refines with after retrieving
candidates from the index.
"""

from __future__ import annotations

from repro.dbms.query import Containment, classify_polyline_against_polygon
from repro.geometry.polygon import Polygon
from repro.index.oplane import OPlane


def _classify(plane: OPlane, polygon: Polygon, t: float) -> str:
    interval = plane.uncertainty_at(t)
    return classify_polyline_against_polygon(
        interval.geometry(plane.route), polygon
    )


def may_be_in(plane: OPlane, polygon: Polygon, t: float) -> bool:
    """Theorem 5: ``R_G(t0)`` intersects the o-plane."""
    return _classify(plane, polygon, t) != Containment.OUT


def must_be_in(plane: OPlane, polygon: Polygon, t: float) -> bool:
    """Theorem 6: the whole uncertainty interval lies in ``R_G(t0)``.

    Implemented as full containment of the interval geometry, which for
    convex G coincides with the paper's endpoint formulation and is
    sound for arbitrary simple polygons (an interval can leave and
    re-enter a non-convex region between contained endpoints).
    """
    return _classify(plane, polygon, t) == Containment.MUST

__all__ = [
    "may_be_in",
    "must_be_in",
]
