"""Bijective mapping between data symbols and tone-order permutations.

A block of M pulses carries one of the M! orderings of the tone indices
0..M-1.  Symbols are the lexicographic ranks of those orderings, so
encoding and decoding reduce to factorial-base (factoradic) arithmetic
on plain integers.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .errors import ValidationError

# 20! = 2432902008176640000 still fits a signed 64-bit word; larger blocks
# would silently promote to big integers downstream, so the codec rejects
# them.  Permutations themselves (radar analysis) have no such limit.
MAX_M = 20


def _check_block_size(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError(f"block size must be an integer, got {m!r}")
    if m < 1:
        raise ValidationError(f"block size must be at least 1, got {m}")
    if m > MAX_M:
        raise ValidationError(f"block size {m} exceeds the supported maximum {MAX_M}")


def validate_permutation(perm: Sequence[int]) -> None:
    """Raise ValidationError unless perm is a permutation of 0..len(perm)-1.

    Any length of at least one is accepted; the codec's block-size limit is
    checked by the functions that rank.
    """
    m = len(perm)
    if m < 1:
        raise ValidationError("a permutation needs at least one entry")
    seen = [False] * m
    for x in perm:
        try:
            ix = int(x)
        except (TypeError, ValueError, OverflowError):
            ix = None  # NaN, infinity, text or None
        if ix is None or ix != x or not 0 <= ix < m:
            raise ValidationError(f"entry {x!r} is not a tone index in [0, {m - 1}]")
        if seen[ix]:
            raise ValidationError(f"tone index {ix} repeats; entries must be distinct")
        seen[ix] = True


def rank_to_permutation(symbol: int, m: int) -> list[int]:
    """Return the permutation of 0..m-1 at lexicographic index ``symbol``.

    Runs in O(m^2) without materialising the permutation table.
    """
    _check_block_size(m)
    top = factorial(m)
    if not 0 <= symbol < top:
        raise ValidationError(
            f"symbol {symbol} out of range: valid symbols for m={m} are 0..{top - 1}"
        )
    remaining = list(range(m))
    out = []
    rest = int(symbol)
    for i in range(m):
        base = factorial(m - 1 - i)
        digit, rest = divmod(rest, base)
        out.append(remaining.pop(digit))
    return out


def permutation_to_rank(perm: Sequence[int]) -> int:
    """Return the lexicographic index of ``perm``; exact inverse of rank_to_permutation."""
    m = len(perm)
    _check_block_size(m)
    validate_permutation(perm)
    remaining = list(range(m))
    rank = 0
    for i, x in enumerate(perm):
        digit = remaining.index(int(x))
        rank += digit * factorial(m - 1 - i)
        remaining.pop(digit)
    return rank


def bits_per_block(m: int) -> int:
    """floor(log2(m!)) computed exactly in integer arithmetic."""
    _check_block_size(m)
    return factorial(m).bit_length() - 1


def symbol_capacity(m: int, bit_mode: bool = False) -> int:
    """Number of usable symbols per block.

    Symbol mode admits every rank in [0, m!).  Bit mode keeps the codec
    binary-friendly by restricting to the largest power of two that fits,
    i.e. 2**bits_per_block(m) symbols.
    """
    if bit_mode:
        return 1 << bits_per_block(m)
    _check_block_size(m)
    return factorial(m)
