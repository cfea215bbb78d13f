"""State counting: the recurrence and closed forms against two exhaustive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldtopo import count_all, count_states_formula, vector_states
from fieldtopo.errors import DomainError, SizeError
from state_oracles import enumerate_composition_states, enumerate_vector_states


def partition_count(n: int, max_parts: int) -> int:
    """Independent DP oracle: partitions of n into at most max_parts parts."""
    table = [[0] * (max_parts + 1) for _ in range(n + 1)]
    for k in range(max_parts + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for k in range(1, max_parts + 1):
            table[total][k] = table[total][k - 1]
            if total >= k:
                table[total][k] += table[total - k][k]
    return table[n][max_parts]


class TestFormula:
    @pytest.mark.parametrize(
        "n0,n1,expected",
        [
            (2, 2, 2),
            (3, 3, 3),
            (3, 2, 2),
            (4, 3, 4),   # 1 + 2 + 1
            (2, 5, 5),   # 1 + 4
            (5, 0, 1),
            (0, 0, 1),
            (0, 3, 0),   # holes with no components: impossible
            (10, 4, 8),  # 2^(n1-1)
        ],
    )
    def test_values(self, n0, n1, expected):
        assert count_states_formula(n0, n1) == expected

    def test_case2_is_power_of_two(self):
        for n1 in range(1, 20):
            assert count_states_formula(n1 + 5, n1) == 2 ** (n1 - 1)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            count_states_formula(-1, 2)
        with pytest.raises(DomainError):
            count_states_formula(2, -1)

    @pytest.mark.parametrize("n0, n1", [(2.5, 1), (2, "2"), (True, 1), (2.0, 3.0)])
    def test_non_integer_rejected(self, n0, n1):
        with pytest.raises(DomainError, match="must be int"):
            count_states_formula(n0, n1)

    def test_big_integers(self):
        assert count_states_formula(100, 80) == 2**79


class TestVectorOracle:
    def test_n2(self):
        assert count_all(2, 2).vector_count == 2
        assert vector_states(count_all(2, 2)) == [(0, 2, 0), (1, 0, 1)]

    def test_n3(self):
        assert count_all(3, 3).vector_count == 3

    def test_n4_has_five_states(self):
        count = count_all(4, 4)
        states = vector_states(count)
        assert count.vector_count == len(states) == 5
        assert (2, 0, 2, 0, 0) in states  # the state missing from the n-state rule

    def test_4_3(self):
        assert count_all(4, 3).vector_count == 3

    def test_guard(self):
        # one work guard, b1 * min(b0, b1) <= 10^7, in place of max(b0, b1) <= 40
        assert count_all(41, 2).vector_count == 2
        assert count_all(3162, 3162).formula_count == 3162  # 9 998 244 additions
        with pytest.raises(SizeError, match="over the cap"):
            count_all(3163, 3163)
        # b0 = 0 weighs nothing however long b1 is: no component, so no state
        count = count_all(0, 10**12)
        assert (count.vector_count, count.composition_count, count.formula_count) == (0, 0, 0)
        assert vector_states(count) == []

    def test_jmax_too_small(self):
        # the vector length follows from the count's b1, so a second argument is refused
        with pytest.raises(TypeError):
            vector_states(count_all(2, 5), 3)

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            count_all(-1, 0)
        with pytest.raises(DomainError, match="non-negative"):
            count_all(0, -1)

    @pytest.mark.parametrize("n0, n1", [(2.5, 1), ("2", 1), (1, True)])
    def test_non_integer_rejected(self, n0, n1):
        with pytest.raises(DomainError, match="must be int"):
            count_all(n0, n1)

    def test_numpy_integers_taken_as_python_ints(self):
        count = count_all(np.int64(4), np.uint8(4))
        assert (count.b0, count.b1, count.vector_count) == (4, 4, 5)
        assert type(count.b0) is int and type(count.b1) is int

    def test_non_count_rejected(self):
        with pytest.raises(DomainError, match="count_all result"):
            vector_states("x")

    def test_matches_partition_oracle(self):
        # vectors for (b0, b1) biject onto partitions of b1 into <= b0 parts
        for n0 in range(41):
            for n1 in range(41):
                assert count_all(n0, n1).vector_count == partition_count(n1, n0)
        assert count_all(100, 100).vector_count == 190569292  # p(100)
        assert count_all(1000, 1000).vector_count == 24061467864032622473692149727991

    def test_constraints_hold(self):
        count = count_all(5, 7)
        states = vector_states(count)
        assert len(states) == count.vector_count
        for vec in states:
            assert sum(vec) == 5
            assert sum(j * m for j, m in enumerate(vec)) == 7


class TestCompositionOracle:
    def test_3_2(self):
        count, states = enumerate_composition_states(3, 2, return_states=True)
        assert count == 2
        assert set(states) == {(2,), (1, 1)}

    def test_4_3(self):
        count, states = enumerate_composition_states(4, 3, return_states=True)
        assert count == 4
        assert set(states) == {(3,), (2, 1), (1, 2), (1, 1, 1)}

    def test_2_5(self):
        count, states = enumerate_composition_states(2, 5, return_states=True)
        assert count == 5
        assert set(states) == {(5,), (4, 1), (3, 2), (2, 3), (1, 4)}

    def test_empty_composition(self):
        assert enumerate_composition_states(3, 0) == 1
        assert count_all(3, 0).composition_count == 1

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            enumerate_composition_states(-1, 0)

    def test_guard(self):
        # the guard weighs b1 by min(b0, b1): a long b1 passes beside a small b0
        assert count_all(61, 2).composition_count == 2
        assert count_all(2, 1_000_000).composition_count == 1_000_000
        with pytest.raises(SizeError, match="over the cap"):
            count_all(61, 10**7 // 61 + 1)

    def test_listing_cap(self):
        # 950 001 vectors of length 1 900 001: refused before one is listed,
        # while the count alone passes the work guard
        count = count_all(2, 1_900_000)
        assert count.vector_count == 950_001
        with pytest.raises(SizeError, match="exceeds the cap"):
            vector_states(count)

    def test_recursive_count_matches_literal_enumeration(self):
        for n0 in range(0, 9):
            for n1 in range(0, 11):
                count, states = enumerate_composition_states(n0, n1, return_states=True)
                assert count == enumerate_composition_states(n0, n1) == len(states)


class TestCrossChecks:
    def test_formula_equals_compositions_off_diagonal(self):
        for n0 in range(61):
            for n1 in range(61):
                oracle = enumerate_composition_states(n0, n1)
                if n0 != n1:
                    assert count_states_formula(n0, n1) == oracle
        for n in range(61):
            assert count_all(n, n).composition_count == enumerate_composition_states(n, n)

    def test_listing_matches_exhaustive_oracle(self):
        # the parts recursion lists the oracle's vectors in the oracle's order
        for n0 in range(41):
            for n1 in range(26):
                count, states = enumerate_vector_states(n0, n1, return_states=True)
                assert count_all(n0, n1).vector_count == count
                assert vector_states(count_all(n0, n1)) == states

    @settings(max_examples=60, deadline=None)
    @given(n0=st.integers(0, 300), n1=st.integers(0, 300))
    def test_vector_never_exceeds_composition(self, n0, n1):
        count = count_all(n0, n1)
        assert count.vector_count <= count.composition_count

    def test_count_all_guards_before_the_formula(self):
        # the closed-form sum over a million binomials never starts
        with pytest.raises(SizeError):
            count_all(2_000_000, 1_000_000)

    def test_count_all_discrepancy_flag(self):
        assert not count_all(2, 2).discrepancy
        assert not count_all(3, 3).discrepancy
        both = count_all(4, 4)
        assert both.vector_count == 5 and both.formula_count == 4
        assert both.discrepancy
        off = count_all(4, 3)
        assert off.vector_count == 3 and off.formula_count == 4
        assert off.composition_count == 4
        assert off.discrepancy
