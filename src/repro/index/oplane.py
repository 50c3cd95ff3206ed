"""O-planes: an object's possible positions in (x, y, t) time-space (§4.1).

For a moving object o with declared speed ``v``, the paper defines two
distance functions of elapsed time ``t``:

    u(t) = v t + BF(t)      (upper-o: farthest o can be along the route)
    l(t) = v t - BS(t)      (lower-o: nearest o can be)

where ``BF``/``BS`` are the policy's fast/slow deviation bounds.  The
*o-plane* is the set of uncertainty intervals — the route strip between
the points at distances ``l(t)`` and ``u(t)`` — one per time instant
``t >= 0``.

For indexing, the o-plane is conservatively decomposed into 3-D boxes
over *time slabs*: for each slab the travel-range swept by the
uncertainty interval is computed, the corresponding route strip's 2-D
bounding rectangle taken, and the box extruded over the slab's absolute
time span.  Any point of the o-plane lies in some slab box, so index
search can never miss an object (false positives are filtered by the
exact refinement of Theorems 5–6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import DeviationBounds
from repro.core.position import PositionAttribute
from repro.core.uncertainty import UncertaintyInterval, uncertainty_interval
from repro.errors import IndexError_
from repro.geometry.bbox import Box3D
from repro.routes.route import Route


@dataclass(frozen=True, slots=True)
class OPlane:
    """The o-plane of one position-attribute value.

    ``start_time`` is the attribute's ``P.starttime``; the plane covers
    absolute times ``[start_time, start_time + horizon]`` (the paper's
    cutoff ``Z`` — an upper limit on when the trip ends — bounds the
    horizon).
    """

    attribute: PositionAttribute
    route: Route
    bounds: DeviationBounds
    horizon: float

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise IndexError_(f"horizon must be positive, got {self.horizon}")
        if self.route.route_id != self.attribute.route_id:
            raise IndexError_(
                f"attribute is on route {self.attribute.route_id!r}, "
                f"got {self.route.route_id!r}"
            )

    @property
    def start_time(self) -> float:
        return self.attribute.starttime

    @property
    def end_time(self) -> float:
        return self.attribute.starttime + self.horizon

    def covers_time(self, t: float) -> bool:
        """True when ``t`` lies inside the plane's time span."""
        return self.start_time - 1e-9 <= t <= self.end_time + 1e-9

    def uncertainty_at(self, t: float) -> UncertaintyInterval:
        """The uncertainty interval at absolute time ``t``."""
        if not self.covers_time(t):
            raise IndexError_(
                f"time {t} outside o-plane span "
                f"[{self.start_time}, {self.end_time}]"
            )
        return uncertainty_interval(self.attribute, self.route, self.bounds, t)

    def travel_range(self, elapsed_lo: float, elapsed_hi: float,
                     samples: int = 4) -> tuple[float, float]:
        """Conservative travel-distance range over an elapsed-time span.

        ``l`` and ``u`` are sampled at ``samples + 1`` evenly spaced
        times and widened by a margin of one sample step of centre
        drift.  Sampling alone can miss a peak of ``u`` between samples
        (Proposition 4's fast bound peaks where ``2C/t`` meets the
        ``(V-v) t`` branch, and for a slow or stopped object the margin
        is small or zero), so ``l`` and ``u`` are also evaluated at every
        kink of the bounds inside the span.  For bounds that list their
        kinks (all built-in policies, see
        :class:`~repro.core.bounds.DeviationBounds`) the extremes of
        ``l`` and ``u`` lie at the span's ends or at those kinks, so the
        range is conservative by construction.  A property test checks
        it over generated staircase routes, both directions, dl/ail/cil
        bounds (stopped objects included) and slab widths of 0.25-30
        minutes.
        """
        if elapsed_hi < elapsed_lo:
            raise IndexError_("elapsed_hi must be >= elapsed_lo")
        return self._travel_range(
            self._start_travel(), elapsed_lo, elapsed_hi, samples
        )

    def _start_travel(self) -> float:
        """Travel distance of the start point (a projection onto the
        whole route polyline, so callers compute it once per plane)."""
        return self.route.travel_distance_of(
            self.attribute.start_point, self.attribute.direction
        )

    def _travel_range(self, start_travel: float, elapsed_lo: float,
                      elapsed_hi: float, samples: int = 4) -> tuple[float, float]:
        """:meth:`travel_range` from a precomputed start travel distance."""
        v = self.attribute.speed
        lows: list[float] = []
        highs: list[float] = []
        for i in range(samples + 1):
            elapsed = elapsed_lo + (elapsed_hi - elapsed_lo) * i / samples
            center = start_travel + v * elapsed
            lows.append(center - self.bounds.slow(elapsed))
            highs.append(center + self.bounds.fast(elapsed))
        # The margin (one sample step of centre drift) is not needed for
        # soundness, which the kinks below give; dropping it would shrink
        # every stored box and so change recorded index digests.
        margin = v * (elapsed_hi - elapsed_lo) / max(samples, 1)
        lo = min(lows) - margin
        hi = max(highs) + margin
        for kink in self.bounds.kinks:
            if elapsed_lo < kink < elapsed_hi:
                center = start_travel + v * kink
                lo = min(lo, center - self.bounds.slow(kink))
                hi = max(hi, center + self.bounds.fast(kink))
        lo = max(lo, 0.0)
        hi = min(hi, self.route.length)
        if lo > hi:
            lo = hi
        return lo, hi

    def boxes(self, slab_minutes: float = 5.0) -> list[Box3D]:
        """Decompose the o-plane into time-slab boxes for the R-tree."""
        if slab_minutes <= 0:
            raise IndexError_(f"slab_minutes must be positive, got {slab_minutes}")
        boxes: list[Box3D] = []
        start_travel = self._start_travel()
        elapsed = 0.0
        while elapsed < self.horizon - 1e-12:
            slab_end = elapsed + slab_minutes
            if slab_end >= self.horizon - 1e-12:
                # The last slab ends at the horizon itself, even when
                # the slab widths add up to a hair short of it.
                slab_end = self.horizon
            lo, hi = self._travel_range(start_travel, elapsed, slab_end)
            strip = self.route.interval_polyline(
                lo, hi, self.attribute.direction
            )
            rect = strip.bounding_rect()
            boxes.append(
                Box3D.from_rect(
                    rect,
                    self.start_time + elapsed,
                    self.start_time + slab_end,
                )
            )
            elapsed = slab_end
        return boxes

    def __repr__(self) -> str:
        return (
            f"OPlane(route={self.route.route_id!r}, "
            f"start={self.start_time:.2f}, horizon={self.horizon:.1f})"
        )

__all__ = [
    "OPlane",
]
