"""Exhaustive reference oracles for `fieldtopo.states`.

Both recurse over the literal definitions, so their cost grows exponentially;
the tests call them on small pairs only.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

from functools import lru_cache

from fieldtopo.errors import DomainError


def enumerate_vector_states(n0: int, n1: int, *, return_states: bool = False):
    """Exhaustively count coefficient vectors (m_0, ..., m_n1).

    Counts all non-negative integer solutions of sum m_j = n0 and
    sum j m_j = n1 (no component holds more than n1 holes).  With
    ``return_states`` the tuples themselves are returned alongside the count.
    """
    if n0 < 0 or n1 < 0:
        raise DomainError(f"inputs must be non-negative, got ({n0}, {n1})")

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
    ``return_states`` the compositions are materialized.
    """
    if n0 < 0 or n1 < 0:
        raise DomainError(f"counts must be non-negative, got ({n0}, {n1})")
    count = _compositions_at_most(n1, min(n0, n1))
    if not return_states:
        return count

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
