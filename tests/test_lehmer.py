"""Codec tests: symbol <-> permutation mapping and the bit budget."""

from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrad.errors import ValidationError
from permrad.lehmer import (
    bits_per_block,
    permutation_to_rank,
    rank_to_permutation,
    symbol_capacity,
    validate_permutation,
)


def test_first_and_last_permutation():
    assert rank_to_permutation(0, 3) == [0, 1, 2]
    assert rank_to_permutation(5, 3) == [2, 1, 0]
    assert permutation_to_rank([0, 1, 2]) == 0
    assert permutation_to_rank([2, 1, 0]) == 5


def test_rank_five_matches_enumeration_oracle():
    # index 5 among all 24 orderings of {0,1,2,3} listed lexicographically
    table = sorted(permutations(range(4)))
    assert table[5] == (0, 3, 2, 1)
    assert rank_to_permutation(5, 4) == [0, 3, 2, 1]
    assert permutation_to_rank([0, 3, 2, 1]) == 5


@pytest.mark.parametrize("m", range(1, 9))
def test_round_trip_exhaustive(m):
    for v in range(factorial(m)):
        assert permutation_to_rank(rank_to_permutation(v, m)) == v


@pytest.mark.parametrize("m", range(1, 7))
def test_lexicographic_monotonicity(m):
    previous = None
    for v in range(factorial(m)):
        perm = rank_to_permutation(v, m)
        if previous is not None:
            assert previous < perm
        previous = perm


@pytest.mark.parametrize("m", range(1, 7))
def test_agrees_with_itertools_ordering(m):
    for v, expected in enumerate(permutations(range(m))):
        assert tuple(rank_to_permutation(v, m)) == expected


def test_out_of_range_symbol_names_the_valid_range():
    with pytest.raises(ValidationError, match=r"0\.\.23"):
        rank_to_permutation(24, 4)
    with pytest.raises(ValidationError):
        rank_to_permutation(-1, 4)


def test_malformed_permutations_rejected():
    with pytest.raises(ValidationError, match="repeats"):
        permutation_to_rank([0, 0, 1])
    with pytest.raises(ValidationError, match="tone index"):
        permutation_to_rank([0, 1, 3])
    with pytest.raises(ValidationError):
        validate_permutation([])


@pytest.mark.parametrize("entry", [float("nan"), "a", float("inf"), float("-inf"), None])
def test_non_numeric_entries_are_validation_errors(entry):
    # int() of these raises ValueError, OverflowError or TypeError; each
    # must reach the caller as the one ValidationError for a bad entry
    with pytest.raises(ValidationError, match="is not a tone index"):
        validate_permutation([entry, 0])
    with pytest.raises(ValidationError, match="is not a tone index"):
        permutation_to_rank([1, entry, 0])


def test_block_size_limits():
    with pytest.raises(ValidationError):
        rank_to_permutation(0, 21)
    with pytest.raises(ValidationError):
        rank_to_permutation(0, 0)
    # 20 is the largest supported block
    assert permutation_to_rank(rank_to_permutation(10**18, 20)) == 10**18


def test_codec_limit_does_not_bound_permutations():
    validate_permutation(list(range(32))[::-1])
    with pytest.raises(ValidationError, match="exceeds the supported maximum"):
        permutation_to_rank(list(range(21)))
    with pytest.raises(ValidationError, match="repeats"):
        validate_permutation([*range(31), 0])


def _floor_log2_oracle(value: int) -> int:
    # largest b with 2**b <= value, by exact integer comparison
    b = 0
    while (1 << (b + 1)) <= value:
        b += 1
    return b


@pytest.mark.parametrize(
    "m,expected", [(1, 0), (2, 1), (3, 2), (4, 4), (8, 15), (16, 44)]
)
def test_bits_per_block(m, expected):
    assert bits_per_block(m) == expected
    assert bits_per_block(m) == _floor_log2_oracle(factorial(m))


def test_symbol_capacity_modes():
    assert symbol_capacity(4) == 24
    assert symbol_capacity(4, bit_mode=True) == 16
    assert symbol_capacity(1, bit_mode=True) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_round_trip_property(m, data):
    v = data.draw(st.integers(min_value=0, max_value=factorial(m) - 1))
    perm = rank_to_permutation(v, m)
    assert sorted(perm) == list(range(m))
    assert permutation_to_rank(perm) == v
