"""Unit tests for repro.index.oplane."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    delayed_linear_bounds,
    immediate_linear_bounds,
)
from repro.core.position import PositionAttribute
from repro.errors import IndexError_
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.index.oplane import OPlane
from repro.routes.route import Route

C = 5.0


def make_plane(route, speed=1.0, starttime=0.0, horizon=10.0,
               direction=0, x=0.0, y=0.0, immediate=False,
               max_speed=1.5):
    attr = PositionAttribute(
        starttime=starttime, route_id=route.route_id, start_x=x, start_y=y,
        direction=direction, speed=speed, policy="dl",
    )
    bounds = (
        immediate_linear_bounds(speed, max_speed, C)
        if immediate
        else delayed_linear_bounds(speed, max_speed, C)
    )
    return OPlane(attribute=attr, route=route, bounds=bounds,
                  horizon=horizon)


class TestConstruction:
    def test_validation(self, straight_route_10, l_route):
        with pytest.raises(IndexError_):
            make_plane(straight_route_10, horizon=0.0)
        attr = PositionAttribute(0.0, "other", 0.0, 0.0, 0, 1.0, "dl")
        with pytest.raises(IndexError_):
            OPlane(attr, straight_route_10,
                   delayed_linear_bounds(1.0, 1.5, C), 10.0)

    def test_time_span(self, straight_route_10):
        plane = make_plane(straight_route_10, starttime=5.0, horizon=10.0)
        assert plane.start_time == 5.0
        assert plane.end_time == 15.0
        assert plane.covers_time(12.0)
        assert not plane.covers_time(16.0)

    def test_uncertainty_outside_span_rejected(self, straight_route_10):
        plane = make_plane(straight_route_10, horizon=5.0)
        with pytest.raises(IndexError_):
            plane.uncertainty_at(7.0)


class TestTravelRange:
    def test_covers_l_and_u(self, straight_route_10):
        plane = make_plane(straight_route_10, speed=1.0)
        lo, hi = plane.travel_range(0.0, 2.0)
        # At t=2: l = 2 - 2 = 0, u = 2 + 1 = 3.
        assert lo <= 0.0 + 1e-9
        assert hi >= 3.0 - 1e-9

    def test_clamped_to_route(self, straight_route_10):
        plane = make_plane(straight_route_10, speed=2.0, max_speed=3.0,
                           horizon=30.0)
        lo, hi = plane.travel_range(20.0, 30.0)
        assert 0.0 <= lo <= hi <= straight_route_10.length

    def test_invalid_order(self, straight_route_10):
        plane = make_plane(straight_route_10)
        with pytest.raises(IndexError_):
            plane.travel_range(5.0, 2.0)


class TestBoxes:
    def test_slab_count(self, straight_route_10):
        plane = make_plane(straight_route_10, horizon=10.0)
        assert len(plane.boxes(slab_minutes=2.0)) == 5

    def test_partial_last_slab(self, straight_route_10):
        plane = make_plane(straight_route_10, horizon=5.0)
        boxes = plane.boxes(slab_minutes=2.0)
        assert len(boxes) == 3
        assert boxes[-1].max_t == pytest.approx(5.0)

    def test_boxes_cover_uncertainty_everywhere(self, straight_route_10):
        """Conservativeness: at every time, the uncertainty interval's
        geometry lies inside some slab box."""
        plane = make_plane(straight_route_10, horizon=9.0)
        boxes = plane.boxes(slab_minutes=3.0)
        for i in range(91):
            t = 9.0 * i / 90
            interval = plane.uncertainty_at(t)
            geometry = interval.geometry(straight_route_10)
            slab = [b for b in boxes if b.min_t <= t <= b.max_t]
            assert slab
            for vertex in geometry.vertices:
                assert any(
                    b.contains_point(vertex.x, vertex.y, t) for b in slab
                ), (t, vertex)

    def test_boxes_on_l_route(self, l_route):
        """Boxes stay conservative around a corner."""
        plane = make_plane(l_route, speed=0.5, horizon=8.0)
        boxes = plane.boxes(slab_minutes=2.0)
        for i in range(81):
            t = 8.0 * i / 80
            interval = plane.uncertainty_at(t)
            for vertex in interval.geometry(l_route).vertices:
                assert any(
                    b.contains_point(vertex.x, vertex.y, t) for b in boxes
                )

    def test_reverse_direction_boxes(self, straight_route_10):
        plane = make_plane(straight_route_10, direction=1, x=10.0,
                           horizon=5.0)
        boxes = plane.boxes(slab_minutes=5.0)
        # Travelling from x=10 leftwards: boxes near the right end.
        assert boxes[0].max_x == pytest.approx(10.0)

    def test_bad_slab_rejected(self, straight_route_10):
        plane = make_plane(straight_route_10)
        with pytest.raises(IndexError_):
            plane.boxes(slab_minutes=0.0)

    def test_immediate_bounds_narrow_late_boxes(self, straight_route_10):
        """With Proposition-4 bounds, late slabs are not wider than the
        2C/t cap allows."""
        plane = make_plane(straight_route_10, speed=0.5, immediate=True,
                           horizon=10.0, max_speed=1.0)
        boxes = plane.boxes(slab_minutes=2.0)
        late = boxes[-1]
        # At t in [8, 10], cap 2C/t <= 1.25 each side; plus the sampling
        # margin and the centre drift of the slab (0.5 * 2 = 1 mile).
        width = late.max_x - late.min_x
        assert width <= 1.25 * 2 + 1.0 + 0.5

    def test_stopped_object_fast_peak_inside_its_slab(self):
        """A stopped object under Proposition 4 can be furthest ahead at
        t* = sqrt(2C/V), between the envelope's samples and with no
        centre-drift margin; its slab box still reaches that far."""
        route = Route("r-long", Polyline([Point(0.0, 0.0), Point(20.0, 0.0)]))
        plane = make_plane(route, speed=0.0, x=5.0, horizon=30.0,
                           immediate=True, max_speed=1.0)
        t_star = math.sqrt(2.0 * C / 1.0)
        slab = next(b for b in plane.boxes(slab_minutes=5.0)
                    if b.min_t <= t_star <= b.max_t)
        interval = plane.uncertainty_at(t_star)
        assert interval.upper == pytest.approx(5.0 + math.sqrt(2.0 * C))
        assert slab.max_x >= interval.upper


#: Slab widths the property draws from: the range E19 sweeps.
SLAB_WIDTHS = st.floats(min_value=0.25, max_value=30.0)
#: Containment slack: the geometry layer stands an empty interval at a
#: route's end on a 1e-7-mile stub, which may poke out of the box.
SLACK = 1e-6


@st.composite
def staircase_routes(draw):
    """Routes alternating east and north/south steps (2-12 segments)."""
    steps = draw(st.integers(min_value=1, max_value=6))
    north = draw(st.sampled_from((1.0, -1.0)))
    x = y = 0.0
    vertices = [Point(x, y)]
    for _ in range(steps):
        x += draw(st.floats(min_value=0.2, max_value=6.0))
        vertices.append(Point(x, y))
        y += north * draw(st.floats(min_value=0.2, max_value=6.0))
        vertices.append(Point(x, y))
    return Route("r-stairs", Polyline(vertices))


@st.composite
def staircase_planes(draw):
    route = draw(staircase_routes())
    direction = draw(st.sampled_from((0, 1)))
    start = route.travel_point(
        draw(st.floats(min_value=0.0, max_value=1.0)) * route.length,
        direction,
    )
    policy = draw(st.sampled_from(("dl", "ail", "cil")))
    # Stopped and slow objects (declared speed far under the gap to the
    # maximum speed) are where a bound's interior peak is sharpest.
    speed = draw(st.one_of(st.just(0.0),
                           st.floats(min_value=0.0, max_value=2.0)))
    max_speed = speed + draw(st.floats(min_value=0.0, max_value=2.0))
    cost = draw(st.floats(min_value=0.1, max_value=30.0))
    slab = draw(SLAB_WIDTHS)
    horizon = draw(st.floats(min_value=slab, max_value=90.0))
    attribute = PositionAttribute(
        starttime=draw(st.floats(min_value=0.0, max_value=100.0)),
        route_id=route.route_id, start_x=start.x, start_y=start.y,
        direction=direction, speed=speed, policy=policy,
    )
    factory = (delayed_linear_bounds if policy == "dl"
               else immediate_linear_bounds)
    plane = OPlane(attribute=attribute, route=route,
                   bounds=factory(speed, max_speed, cost), horizon=horizon)
    # Where each bound's two branches cross (for dl, sqrt(2 r C) = r t;
    # for ail/cil, 2C/t = r t): the same time, worked out here from
    # Propositions 2-4 rather than read from the bounds under test.
    peaks = [math.sqrt(2.0 * cost / rate)
             for rate in (speed, max_speed - speed) if rate > 0]
    return plane, slab, peaks


@settings(max_examples=60, deadline=None)
@given(staircase_planes())
def test_slab_boxes_contain_uncertainty_geometry(case):
    """Soundness of the slab envelope over generated planes: at densely
    sampled times, and at each bound's branch crossing, every vertex of
    the uncertainty interval's geometry lies inside every slab box whose
    time span holds that time."""
    plane, slab, peaks = case
    boxes = plane.boxes(slab_minutes=slab)
    elapsed = [plane.horizon * (i / 400) for i in range(401)]
    elapsed += [p for p in peaks if p <= plane.horizon]
    for offset in elapsed:
        t = plane.start_time + offset
        holding = [b for b in boxes if b.min_t <= t <= b.max_t]
        assert holding, t
        geometry = plane.uncertainty_at(t).geometry(plane.route)
        for box in holding:
            for vertex in geometry.vertices:
                assert (
                    box.min_x - SLACK <= vertex.x <= box.max_x + SLACK
                    and box.min_y - SLACK <= vertex.y <= box.max_y + SLACK
                ), (offset, vertex, box)
