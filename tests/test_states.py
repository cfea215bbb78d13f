"""State counting: closed forms against two exhaustive oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from fieldtopo import (
    count_all,
    count_states_formula,
    enumerate_composition_states,
    enumerate_vector_states,
)
from fieldtopo.errors import DomainError, SizeError


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

    def test_big_integers(self):
        assert count_states_formula(100, 80) == 2**79


class TestVectorOracle:
    def test_n2(self):
        count, states = enumerate_vector_states(2, 2, 2, return_states=True)
        assert count == 2
        assert set(states) == {(0, 2, 0), (1, 0, 1)}

    def test_n3(self):
        assert enumerate_vector_states(3, 3, 3) == 3

    def test_n4_has_five_states(self):
        count, states = enumerate_vector_states(4, 4, 4, return_states=True)
        assert count == 5
        assert (2, 0, 2, 0, 0) in states  # the state missing from the n-state rule

    def test_4_3(self):
        assert enumerate_vector_states(4, 3, 3) == 3

    def test_guard(self):
        with pytest.raises(SizeError):
            enumerate_vector_states(41, 2, 2)

    def test_jmax_too_small(self):
        with pytest.raises(DomainError):
            enumerate_vector_states(2, 5, 3)

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            enumerate_vector_states(-1, 0, 0)

    def test_matches_partition_oracle(self):
        # states with b0 = b1 = n biject onto partitions of n into <= n parts
        for n in range(1, 21):
            assert enumerate_vector_states(n, n, n) == partition_count(n, n)

    def test_constraints_hold(self):
        _, states = enumerate_vector_states(5, 7, 7, return_states=True)
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

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            enumerate_composition_states(-1, 0)

    def test_guard(self):
        with pytest.raises(SizeError):
            enumerate_composition_states(61, 2)

    def test_recursive_count_matches_literal_enumeration(self):
        for n0 in range(0, 9):
            for n1 in range(0, 11):
                count, states = enumerate_composition_states(n0, n1, return_states=True)
                assert count == enumerate_composition_states(n0, n1) == len(states)


class TestCrossChecks:
    def test_formula_equals_compositions_off_diagonal(self):
        for n0 in range(1, 13):
            for n1 in range(1, 13):
                if n0 == n1:
                    continue
                assert count_states_formula(n0, n1) == enumerate_composition_states(n0, n1)

    @settings(max_examples=60, deadline=None)
    @given(n0=st.integers(0, 12), n1=st.integers(0, 12))
    def test_vector_never_exceeds_composition(self, n0, n1):
        vec = enumerate_vector_states(n0, n1, max(n1, 0))
        comp = enumerate_composition_states(n0, n1)
        assert vec <= comp

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
