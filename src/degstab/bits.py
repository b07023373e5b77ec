"""Small bit-twiddling helpers shared by the numpy engine.

Points of F_2^n and monomials are both stored as Python ints / uint32 arrays,
bit i-1 <-> variable x_i.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidLengthError

# A truth table on n variables takes 2**n bytes; 2**24 is 16 MiB per table.
MAX_TABLE_VARS = 24


def popcount(x: int) -> int:
    return x.bit_count()


def parity(x: int) -> int:
    return x.bit_count() & 1


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """uint8 array of length 2**n with the popcount of every index."""
    if not 0 <= n <= MAX_TABLE_VARS:
        raise InvalidLengthError(
            f"truth tables are limited to {MAX_TABLE_VARS} variables, got n={n}"
        )
    idx = np.arange(1 << n, dtype=np.uint32)
    return np.bitwise_count(idx).astype(np.uint8)


@lru_cache(maxsize=None)
def parity_table(n: int) -> np.ndarray:
    return popcount_table(n) & np.uint8(1)


def mask_to_vars(mask: int) -> tuple[int, ...]:
    """Set bits of mask as 1-based variable indices, increasing."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def vars_to_mask(indices) -> int:
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        m |= 1 << (i - 1)
    return m


def xor_points(masks, dtype=np.uint32) -> np.ndarray:
    """All 2**m XOR combinations of the masks along the last axis.

    masks has shape (..., m) and the result (..., 2**m). Index bit j of the
    last output axis corresponds to masks[..., j]; so out[..., 0] = 0 and
    out[..., 2**j] = masks[..., j].
    """
    masks = np.asarray(masks, dtype=dtype)
    m = masks.shape[-1]
    out = np.zeros(masks.shape[:-1] + (1 << m,), dtype=dtype)
    for j in range(m):
        half = 1 << j
        out[..., half : 2 * half] = out[..., :half] ^ masks[..., j : j + 1]
    return out
