"""Semantic views of query answers, for the benchmark's correctness checks.

Answers are compared by what a caller can rely on: may/must id sets,
the position with its bounds and uncertainty interval, and nearest
rankings.  The ``candidates`` and ``examined`` fields of a range answer
(and so ``answer_digest``, which hashes them) are left out on purpose:
they describe index work, and a correct index change changes them.
"""

from __future__ import annotations

import math
from typing import Any

from repro.dbms.query import PositionAnswer, RangeAnswer

#: Float fields may differ by this relative amount (summation order).
REL_TOL = 1e-9


def semantic(answer: Any) -> tuple:
    """A comparable view of a position, range or nearest answer."""
    if isinstance(answer, PositionAnswer):
        interval = answer.interval
        return ("position", answer.object_id, answer.time,
                answer.position.x, answer.position.y,
                answer.slow_bound, answer.fast_bound, answer.error_bound,
                interval.route_id, interval.direction,
                interval.lower, interval.upper)
    if isinstance(answer, RangeAnswer):
        return ("range", answer.time, tuple(sorted(answer.may)),
                tuple(sorted(answer.must)))
    if isinstance(answer, list):
        return ("nearest", tuple(
            (entry.object_id, entry.min_distance, entry.max_distance,
             entry.certain)
            for entry in answer
        ))
    raise TypeError(f"unsupported answer type {type(answer).__name__}")


def same(left: Any, right: Any) -> bool:
    """Equal views, with floats equal up to :data:`REL_TOL`."""
    if isinstance(left, float) or isinstance(right, float):
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            return False
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            same(a, b) for a, b in zip(left, right)
        )
    return left == right


def count_mismatches(views: list[tuple], expected: list[Any]) -> int:
    """How many answer views differ from the expected answers."""
    if len(views) != len(expected):
        return max(len(views), len(expected))
    return sum(not same(v, semantic(e)) for v, e in zip(views, expected))
