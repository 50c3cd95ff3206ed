"""Property-based tests for the R-tree (hypothesis)."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import Box3D
from repro.index.rtree import RTree

coords = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=20.0)


@st.composite
def boxes(draw):
    x, y, t = draw(coords), draw(coords), draw(coords)
    return Box3D(x, y, t, x + draw(extents), y + draw(extents),
                 t + draw(extents))


@settings(max_examples=40, deadline=None)
@given(st.lists(boxes(), min_size=1, max_size=60), boxes())
def test_search_matches_bruteforce(items, window):
    """For any insertion sequence, search equals brute force."""
    tree = RTree(max_entries=4, min_entries=2)
    for i, b in enumerate(items):
        tree.insert(b, i)
    tree.check_invariants()
    expected = {i for i, b in enumerate(items) if b.intersects(window)}
    assert set(tree.search(window)) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(boxes(), min_size=1, max_size=40),
       st.lists(st.integers(min_value=0, max_value=39), max_size=20))
def test_delete_sequence_consistent(items, delete_order):
    """Deletions leave exactly the surviving entries findable."""
    tree = RTree(max_entries=4, min_entries=2)
    for i, b in enumerate(items):
        tree.insert(b, i)
    alive = dict(enumerate(items))
    for key in delete_order:
        if key in alive:
            assert tree.delete(alive.pop(key), key)
    tree.check_invariants()
    assert len(tree) == len(alive)
    everything = Box3D(-1, -1, -1, 200, 200, 200)
    assert set(tree.search(everything)) == set(alive)


@settings(max_examples=30, deadline=None)
@given(st.lists(boxes(), min_size=2, max_size=50))
def test_invariants_after_bulk_insert(items):
    tree = RTree(max_entries=4, min_entries=2)
    for i, b in enumerate(items):
        tree.insert(b, i)
        tree.check_invariants()


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), boxes(), st.integers(0, 7)),
        st.tuples(st.just("delete"), st.integers(0, 10_000)),
        st.tuples(st.just("remove_object"), st.integers(0, 7)),
        st.tuples(st.just("delete_payload"), st.integers(0, 7)),
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(operations, boxes(), st.sampled_from(((4, 2), (8, 3))))
def test_interleaved_maintenance_matches_bruteforce(ops, window, fanout):
    """Inserts, single deletes and one-pass removals of every box of an
    object, in any order: after each operation the tree is valid and a
    search returns exactly the live entries a brute-force scan finds."""
    tree = RTree(max_entries=fanout[0], min_entries=fanout[1])
    alive: list[tuple[Box3D, str]] = []
    everything = Box3D(-1, -1, -1, 200, 200, 200)
    for op in ops:
        if op[0] == "insert":
            _, box, key = op
            tree.insert(box, f"o{key}")
            alive.append((box, f"o{key}"))
        elif op[0] == "delete" and alive:
            box, payload = alive.pop(op[1] % len(alive))
            assert tree.delete(box, payload)
        elif op[0] == "remove_object":
            payload = f"o{op[1]}"
            mine = [box for box, p in alive if p == payload]
            assert tree.delete_many(mine, payload) == len(mine)
            alive = [(box, p) for box, p in alive if p != payload]
            assert not tree.delete_many(mine[:1], payload)
        elif op[0] == "delete_payload":
            payload = f"o{op[1]}"
            expected = sum(1 for _, p in alive if p == payload)
            assert tree.delete_payload(payload) == expected
            alive = [(box, p) for box, p in alive if p != payload]
        tree.check_invariants()
        assert len(tree) == len(alive)
        for probe in (window, everything):
            hits = Counter(p for b, p in alive if b.intersects(probe))
            assert Counter(tree.search(probe)) == hits


def _shape_digest(tree: RTree) -> str:
    """SHA-256 over every node, depth first in entry order: its kind,
    depth and fill, then each entry's box and payload."""
    lines = []
    stack = [(tree._root, 0)]
    while stack:
        node, depth = stack.pop()
        kind = "leaf" if node.is_leaf else "node"
        lines.append(f"{kind} {depth} {len(node.entries)}")
        for entry in node.entries:
            b = entry.box
            lines.append(repr((b.min_x, b.min_y, b.min_t,
                               b.max_x, b.max_y, b.max_t, entry.payload)))
        if not node.is_leaf:
            stack.extend((e.child, depth + 1) for e in reversed(node.entries))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fanout, height, digest", [
    ((8, 3), 3,
     "c1989172111c69f0f96dc9ed07e829fd44df865323d4fa624d0adeb3cc7ee244"),
    ((4, 2), 5,
     "8e88e5397e804f34bbc4930f4bbc7a608e09d4bdea4feb60c5465e5e60df0558"),
])
def test_golden_shape_of_seeded_insert_delete_sequence(fanout, height, digest):
    """A fixed seeded run of 600 inserts and deletes builds the same tree,
    node by node, as the Box3D-allocating ChooseLeaf, quadratic split and
    covering-box refresh it replaced (digests recorded with that code).

    Most boxes lie along grid streets, flat in x or y as an o-plane slab
    box on an axis-parallel route is, so many unions stay flat too and
    the margin term of the size measure decides between them: dropping
    that term changes both digests.
    """
    rng = random.Random(20240613)
    tree = RTree(max_entries=fanout[0], min_entries=fanout[1])
    alive = []
    for _ in range(600):
        if alive and rng.random() < 0.35:
            box, payload = alive.pop(rng.randrange(len(alive)))
            assert tree.delete(box, payload)
            continue
        t = round(rng.uniform(0, 50), 3)
        dt = round(rng.uniform(0.5, 5), 3)
        street = float(rng.randrange(8))
        lo = round(rng.uniform(0, 20), 3)
        hi = lo + round(rng.uniform(0, 4), 3)
        kind = rng.random()
        if kind < 0.4:
            box = Box3D(lo, street, t, hi, street, t + dt)
        elif kind < 0.8:
            box = Box3D(street, lo, t, street, hi, t + dt)
        else:
            box = Box3D(lo, street, t, hi,
                        street + round(rng.uniform(0, 3), 3), t + dt)
        payload = f"o{rng.randrange(60)}"
        tree.insert(box, payload)
        alive.append((box, payload))
    tree.check_invariants()
    assert len(tree) == 188
    assert tree.height == height
    assert _shape_digest(tree) == digest
