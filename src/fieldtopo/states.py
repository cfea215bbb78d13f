"""Counting the spectra (m_0, ..., m_b1) compatible with a given (b0, b1).

Two inequivalent readings of the question coexist and are both implemented:

* the coefficient-vector reading: count distinct non-negative integer vectors
  with sum_j m_j = b0 and sum_j j m_j = b1 (components with equal hole count
  are interchangeable);
* the composition reading: distribute b1 indistinguishable holes over an
  ordered selection of components, i.e. count compositions of b1 into at
  most b0 positive parts ("stars and bars", components distinguishable).

The closed forms `count_states_formula` follow the composition reading for
b0 != b1 and return n for b0 = b1 = n; the two readings disagree in general
(already at b0 = b1 = 4: 5 vectors vs 4), which `count_all` surfaces as a
discrepancy flag instead of silently picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import DomainError, SizeError

_VECTOR_GUARD = 40
_COMPOSITION_GUARD = 60
#: most compositions `enumerate_composition_states` lists with ``return_states``
_LISTING_CAP = 10**6


@dataclass(frozen=True)
class StateCount:
    """All three counts for one (b0, b1) pair."""

    formula_count: int
    vector_count: int
    composition_count: int

    @property
    def discrepancy(self) -> bool:
        return self.vector_count != self.formula_count


def count_states_formula(n0: int, n1: int) -> int:
    """Closed-form state count.

    n1 = 0 gives the single all-simply-connected state; n0 = n1 = n gives n;
    otherwise sum_{k=1}^{min(n0, n1)} C(n1 - 1, k - 1), which for n0 > n1
    collapses to 2^(n1 - 1).
    """
    if n0 < 0 or n1 < 0:
        raise DomainError(f"counts must be non-negative, got ({n0}, {n1})")
    if n1 == 0:
        return 1
    if n0 == n1:
        return n0
    return sum(comb(n1 - 1, k - 1) for k in range(1, min(n0, n1) + 1))


def enumerate_vector_states(n0: int, n1: int, *, return_states: bool = False):
    """Exhaustively count coefficient vectors (m_0, ..., m_n1).

    Counts all non-negative integer solutions of sum m_j = n0 and
    sum j m_j = n1 (no component holds more than n1 holes).  With
    ``return_states`` the tuples themselves are returned alongside the count.
    """
    if n0 < 0 or n1 < 0:
        raise DomainError(f"inputs must be non-negative, got ({n0}, {n1})")
    if max(n0, n1) > _VECTOR_GUARD:
        raise SizeError(f"vector enumeration guarded at {_VECTOR_GUARD}")

    states: list[tuple[int, ...]] = []

    def extend(j: int, rem_count: int, rem_holes: int, prefix: list[int]) -> None:
        if j == 0:
            if rem_holes == 0:
                states.append(tuple([rem_count] + prefix))
            return
        if rem_holes > j * rem_count:
            return  # even filling every remaining slot with j holes falls short
        for m in range(min(rem_count, rem_holes // j) + 1):
            extend(j - 1, rem_count - m, rem_holes - j * m, [m] + prefix)

    extend(n1, n0, n1, [])
    if return_states:
        return len(states), states
    return len(states)


@lru_cache(maxsize=None)
def _compositions_at_most(total: int, max_parts: int) -> int:
    """Count ordered tuples of positive integers summing to ``total``
    with at most ``max_parts`` parts, by direct recursion on the first part."""
    if total == 0:
        return 1  # the empty composition
    if max_parts == 0:
        return 0
    return sum(
        _compositions_at_most(total - first, max_parts - 1)
        for first in range(1, total + 1)
    )


def enumerate_composition_states(
    n0: int, n1: int, return_states: bool = False
):
    """Count ordered compositions of n1 into at most n0 positive parts.

    This is the distinguishable-boxes reading of the counting problem.  The
    count recurses over the literal definition (no binomial shortcut); with
    ``return_states`` the compositions are materialized, and a listing longer
    than `_LISTING_CAP` raises `SizeError` before it starts.
    """
    if n0 < 0 or n1 < 0:
        raise DomainError(f"counts must be non-negative, got ({n0}, {n1})")
    if max(n0, n1) > _COMPOSITION_GUARD:
        raise SizeError(f"composition enumeration guarded at {_COMPOSITION_GUARD}")
    count = _compositions_at_most(n1, min(n0, n1))
    if not return_states:
        return count
    if count > _LISTING_CAP:
        raise SizeError(f"listing {count} compositions exceeds the cap of {_LISTING_CAP}")

    states: list[tuple[int, ...]] = []

    def extend(rem: int, parts_left: int, prefix: list[int]) -> None:
        if rem == 0:
            states.append(tuple(prefix))
            return
        if parts_left == 0:
            return
        for first in range(1, rem + 1):
            extend(rem - first, parts_left - 1, prefix + [first])

    extend(n1, min(n0, n1), [])
    return len(states), states


def count_all(n0: int, n1: int) -> StateCount:
    """Evaluate all three counts, the guarded ones first; callers inspect ``discrepancy``."""
    return StateCount(
        vector_count=enumerate_vector_states(n0, n1),
        composition_count=enumerate_composition_states(n0, n1),
        formula_count=count_states_formula(n0, n1),
    )
