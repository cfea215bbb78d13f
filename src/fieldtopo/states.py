"""Counting the spectra (m_0, ..., m_b1) compatible with a given (b0, b1).

Two inequivalent readings of the question coexist and are both counted:

* the coefficient-vector reading: count distinct non-negative integer vectors
  with sum_j m_j = b0 and sum_j j m_j = b1 (components with equal hole count
  are interchangeable).  The components that hold holes form a partition of
  b1 into at most b0 parts, so this is a partition number;
* the composition reading: distribute b1 indistinguishable holes over an
  ordered selection of components, i.e. count compositions of b1 into at
  most b0 positive parts ("stars and bars", components distinguishable),
  sum_{k=1}^{min(b0, b1)} C(b1 - 1, k - 1).

The closed forms `count_states_formula` follow the composition reading for
b0 != b1 and return n for b0 = b1 = n; the two readings disagree in general
(already at b0 = b1 = 4: 5 vectors vs 4), which `count_all` surfaces as a
discrepancy flag instead of silently picking a side.  `vector_states` lists
the vectors a `count_all` result counts.  Both refuse, with `SizeError`, work
or output past `_WORK_CAP` before they start.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, SizeError
from .spectrum import check_type

#: most additions `count_all` spends, b1 * min(b0, b1), and most entries
#: `vector_states` lists, count * (b1 + 1)
_WORK_CAP = 10**7


@dataclass(frozen=True)
class StateCount:
    """All three counts for one (b0, b1) pair."""

    b0: int
    b1: int
    formula_count: int
    vector_count: int
    composition_count: int

    @property
    def discrepancy(self) -> bool:
        return self.vector_count != self.formula_count


def _check_nonnegative(n0: int, n1: int) -> tuple[int, int]:
    """The pair as Python ints; a bool, a non-integer or a negative count raises `DomainError`."""
    n0, n1 = check_type("b0", n0, int, DomainError), check_type("b1", n1, int, DomainError)
    if n0 < 0 or n1 < 0:
        raise DomainError(f"counts must be non-negative, got ({n0}, {n1})")
    return n0, n1


def _compositions(n0: int, n1: int) -> int:
    """Compositions of n1 into at most n0 positive parts:
    sum_{k=1}^{min(n0, n1)} C(n1 - 1, k - 1), and 1 (the empty one) at n1 = 0."""
    if n1 == 0:
        return 1
    total, term = 0, 1  # term runs through C(n1 - 1, k) exactly
    for k in range(min(n0, n1)):
        total += term
        term = term * (n1 - 1 - k) // (k + 1)
    return total


def _vector_count(n0: int, n1: int) -> int:
    """Partitions of n1 into at most n0 parts, i.e. (by conjugation) into parts
    no larger than n0, by the recurrence that admits one part size k at a time."""
    if n0 == 0:
        return int(n1 == 0)  # no component holds a hole; p would cost n1 slots
    p = [1] + [0] * n1
    for k in range(1, min(n0, n1) + 1):
        for n in range(k, n1 + 1):
            p[n] += p[n - k]
    return p[n1]


def count_states_formula(n0: int, n1: int) -> int:
    """Closed-form state count.

    n1 = 0 gives the single all-simply-connected state; n0 = n1 = n gives n;
    otherwise sum_{k=1}^{min(n0, n1)} C(n1 - 1, k - 1), which for n0 > n1
    collapses to 2^(n1 - 1).
    """
    n0, n1 = _check_nonnegative(n0, n1)
    return n0 if n0 == n1 > 0 else _compositions(n0, n1)


def count_all(n0: int, n1: int) -> StateCount:
    """All three counts; callers inspect ``discrepancy``.

    A pair whose vector count would take more than `_WORK_CAP` additions,
    b1 * min(b0, b1), raises `SizeError` before any count starts.
    """
    n0, n1 = _check_nonnegative(n0, n1)
    if n1 * min(n0, n1) > _WORK_CAP:
        raise SizeError(
            f"counting ({n0}, {n1}) takes b1 * min(b0, b1) = {n1 * min(n0, n1)} "
            f"additions, over the cap of {_WORK_CAP}"
        )
    return StateCount(
        b0=n0,
        b1=n1,
        vector_count=_vector_count(n0, n1),
        composition_count=_compositions(n0, n1),
        formula_count=count_states_formula(n0, n1),
    )


def vector_states(count: StateCount) -> list[tuple[int, ...]]:
    """List the coefficient vectors (m_0, ..., m_b1) that ``count``, a
    `count_all` result, counts, ascending lexicographic in (m_b1, ..., m_1).

    A listing of more than `_WORK_CAP` entries, vector_count * (b1 + 1), raises
    `SizeError` before it starts; anything but a `StateCount` raises `DomainError`.
    """
    if not isinstance(count, StateCount):
        raise DomainError(f"vector_states takes a count_all result, got {count!r}")
    n0, n1 = count.b0, count.b1
    if count.vector_count * (n1 + 1) > _WORK_CAP:
        raise SizeError(
            f"listing {count.vector_count} vectors of length {n1 + 1} exceeds the "
            f"cap of {_WORK_CAP} entries"
        )
    states: list[tuple[int, ...]] = []

    def extend(rem: int, largest: int, parts: list[int]) -> None:
        # parts is non-increasing, and ascending lexicographic order on it is the
        # listed order; under the cap it holds at most ~76 parts, since p(77) > cap
        if rem == 0:
            m = [0] * (n1 + 1)
            for part in parts:
                m[part] += 1
            m[0] = n0 - len(parts)
            states.append(tuple(m))
            return
        slots = n0 - len(parts)
        if slots == 0:
            return
        # every later part is at most this one, so it needs at least rem / slots
        for part in range(-(-rem // slots), min(largest, rem) + 1):
            extend(rem - part, part, parts + [part])

    extend(n1, n1, [])
    return states
