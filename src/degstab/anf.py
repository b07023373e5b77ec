"""Boolean functions in algebraic normal form.

An ANF holds the 2**n monomial coefficients of a function on F_2^n as a numpy
uint8 array. The coefficient at index m is the coefficient of the monomial
prod_{i in m} x_{i+1}, i.e. bit i-1 of the mask corresponds to variable x_i.
Truth tables use the same indexing for points.

The degree of the zero function is NEG_INF, a distinguished non-integer value;
it is never reported as -1.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence, Union

import numpy as np

from . import f2
from .bits import MAX_TABLE_VARS, check_mask, mask_to_vars, parity_table, popcount_table
from .errors import (
    AnfSyntaxError,
    ArrayLayoutError,
    DependentDirectionsError,
    DimensionMismatchError,
    InvalidLengthError,
    NotHomogeneousError,
    SingularMatrixError,
    VariableIndexError,
    ZeroDirectionError,
)

NEG_INF = float("-inf")

# An ANF holds 2**n coefficient bytes, so it shares the truth-table ceiling.
MAX_VARS = MAX_TABLE_VARS

Degree = Union[int, float]


# Stage i < 3 of the transform inside one little-endian 8-byte word: the
# bytes whose index has bit i set take the byte 2**i below them.
_LANES = (0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)


def mobius_inplace(bits: np.ndarray) -> np.ndarray:
    """Binary Moebius transform along the last axis (length 2**n), in place.

    Leading axes are independent rows. Maps ANF coefficients to the truth
    table and back; it is an involution. The array must be C-contiguous
    uint8, one coefficient per byte: the rows are viewed as little-endian
    words of 2**min(n, 3) bytes, stages below 3 run inside each word by a
    masked shift, and the later stages XOR whole words.
    """
    if bits.dtype != np.uint8 or not bits.flags.c_contiguous:
        raise ArrayLayoutError(
            f"mobius_inplace needs a C-contiguous uint8 array, got {bits.dtype}"
            f"{'' if bits.flags.c_contiguous else ' (not C-contiguous)'}"
        )
    size = bits.shape[-1] if bits.ndim else 0
    if size == 0 or size & (size - 1):
        raise InvalidLengthError(f"last axis must have length 2**n, got {size}")
    n = size.bit_length() - 1
    width = 1 << min(n, 3)
    words = bits.view(f"<u{width}")
    scratch = np.empty_like(words)
    for i in range(min(n, 3)):
        np.left_shift(words, 8 << i, out=scratch)
        scratch &= words.dtype.type(_LANES[i] & ((1 << 8 * width) - 1))
        words ^= scratch
    # each row's length is a multiple of every block 2**(i+1), so the rows
    # can share one flat reshape
    for i in range(3, n):
        v = words.reshape(-1, 2, 1 << (i - 3))
        v[:, 1, :] ^= v[:, 0, :]
    return bits


def _check_directions(n: int, directions: Iterable[int]) -> list[int]:
    """The directions as ints, each checked nonzero and inside F_2^n, and
    all of them checked linearly independent."""
    dirs = [int(a) for a in directions]
    for a in dirs:
        if a == 0:
            raise ZeroDirectionError("directions must be nonzero")
        if a < 0 or a >> n:
            raise VariableIndexError(f"direction {a:#x} outside F_2^{n}")
    if f2.rank_of_rows(dirs, n) != len(dirs):
        raise DependentDirectionsError("directions must be linearly independent")
    return dirs


def _check_vars(n: int) -> None:
    """Reject n before anything allocates its 2**n bytes."""
    if not isinstance(n, (int, np.integer)):
        raise InvalidLengthError(f"n must be an int, got {type(n).__name__} {n!r}")
    if not 0 <= n <= MAX_VARS:
        raise InvalidLengthError(
            f"an ANF takes 2**n bytes and is limited to {MAX_VARS} variables, got n={n}"
        )


class ANF:
    """Immutable algebraic normal form of a Boolean function on F_2^n."""

    __slots__ = ("n", "coeffs", "_tt")

    def __init__(self, n: int, coeffs=None):
        _check_vars(n)
        if coeffs is None:
            arr = np.zeros(1 << n, dtype=np.uint8)
        else:
            arr = np.asarray(coeffs, dtype=np.uint8) & 1
            if arr.shape != (1 << n,):
                raise InvalidLengthError(
                    f"coefficient vector must have length {1 << n}, got {arr.shape}"
                )
            arr = arr.copy()
        arr.setflags(write=False)
        self.n = n
        self.coeffs = arr
        self._tt = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "ANF":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "ANF":
        _check_vars(n)
        a = np.zeros(1 << n, dtype=np.uint8)
        a[0] = 1
        return cls(n, a)

    @classmethod
    def monomial(cls, n: int, mask: int) -> "ANF":
        return cls.from_monomials(n, [mask])

    @classmethod
    def from_monomials(cls, n: int, masks: Iterable[int]) -> "ANF":
        _check_vars(n)
        a = np.zeros(1 << n, dtype=np.uint8)
        for m in masks:
            a[check_mask(n, m)] ^= 1  # repeated monomials cancel over F_2
        return cls(n, a)

    @classmethod
    def from_truth_table(cls, table) -> "ANF":
        arr = np.asarray(table, dtype=np.uint8) & 1
        if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
            raise InvalidLengthError("truth table length must be a power of two")
        n = arr.size.bit_length() - 1
        f = cls(n, mobius_inplace(arr.copy()))
        return f

    # -- basic views ---------------------------------------------------

    def truth_table(self) -> np.ndarray:
        if self._tt is None:
            tt = mobius_inplace(self.coeffs.copy())
            tt.setflags(write=False)
            self._tt = tt
        return self._tt

    def monomials(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.coeffs).tolist())

    def degree(self) -> Degree:
        nz = np.flatnonzero(self.coeffs)
        if nz.size == 0:
            return NEG_INF
        return int(popcount_table(self.n)[nz].max())

    def vars(self) -> tuple[int, ...]:
        """1-based indices of variables that occur in some monomial."""
        union = 0
        for m in self.monomials():
            union |= m
        return mask_to_vars(union)

    def weight(self) -> int:
        return int(self.truth_table().sum())

    def evaluate(self, x: int) -> int:
        if x < 0 or x >> self.n:
            raise VariableIndexError(f"point {x:#x} outside F_2^{self.n}")
        return int(self.truth_table()[x])

    def is_homogeneous(self) -> bool:
        nz = np.flatnonzero(self.coeffs)
        if nz.size == 0:
            return False
        pc = popcount_table(self.n)[nz]
        return bool((pc == pc[0]).all())

    def is_symmetric(self) -> bool:
        pc = popcount_table(self.n)
        for d in range(self.n + 1):
            sel = self.coeffs[pc == d]
            if sel.size and not (sel == sel[0]).all():
                return False
        return True

    def homogeneous_part(self, r: int) -> "ANF":
        keep = popcount_table(self.n) == r
        return ANF(self.n, self.coeffs * keep)

    def top_part(self) -> "ANF":
        d = self.degree()
        if d is NEG_INF:
            return self
        return self.homogeneous_part(d)

    # -- algebra --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs.any())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ANF)
            and self.n == other.n
            and bool((self.coeffs == other.coeffs).all())
        )

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs.tobytes()))

    def __add__(self, other: "ANF") -> "ANF":
        if not isinstance(other, ANF):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot add ANF on {self.n} and {other.n} variables")
        return ANF(self.n, self.coeffs ^ other.coeffs)

    def __mul__(self, other: "ANF") -> "ANF":
        if not isinstance(other, ANF):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot multiply ANF on {self.n} and {other.n} variables"
            )
        return ANF.from_truth_table(self.truth_table() & other.truth_table())

    def derivative(self, a: int) -> "ANF":
        """Discrete derivative x -> f(x) + f(x + a)."""
        _check_directions(self.n, [a])
        tt = self.truth_table()
        idx = np.arange(1 << self.n, dtype=np.uint32) ^ np.uint32(a)
        return ANF.from_truth_table(tt ^ tt[idx])

    def iterated_derivative(self, directions: Sequence[int]) -> "ANF":
        g = self
        for a in _check_directions(self.n, directions):
            g = g.derivative(a)
        return g

    def complement(self) -> "ANF":
        """Replace every monomial mask by its complement in n variables.

        Defined for nonzero homogeneous functions; maps degree r to n - r.
        """
        if not self or not self.is_homogeneous():
            raise NotHomogeneousError("complement requires a nonzero homogeneous function")
        # the complement of mask m is (2**n - 1) ^ m, so the vector reverses
        return ANF(self.n, self.coeffs[::-1])

    def compose_affine(self, matrix, shift: int = 0) -> "ANF":
        """f(x M^T + a) for an invertible matrix M and shift a.

        `matrix` is an F2Matrix or a sequence of n row masks (row i is the mask
        of M's row i, so output coordinate i+1 is parity(x & rows[i])).
        """
        rows = matrix.rows if isinstance(matrix, f2.F2Matrix) else tuple(int(r) for r in matrix)
        n = self.n
        if len(rows) != n:
            raise DimensionMismatchError(f"matrix must have {n} rows, got {len(rows)}")
        if shift < 0 or shift >> n:
            raise VariableIndexError(f"shift {shift:#x} outside F_2^{n}")
        if f2.rank_of_rows(rows, n) != n:
            raise SingularMatrixError("change of variables must be invertible")
        par = parity_table(n)
        x = np.arange(1 << n, dtype=np.uint32)
        y = np.zeros(1 << n, dtype=np.uint32)
        for i, row in enumerate(rows):
            y |= par[x & np.uint32(row)].astype(np.uint32) << np.uint32(i)
        y ^= np.uint32(shift)
        return ANF.from_truth_table(self.truth_table()[y])

    # -- text form -------------------------------------------------------

    @classmethod
    def parse(cls, text: str, n: int) -> "ANF":
        """Parse polynomial text.

        Grammar: function := "0" | term ("+" term)*
                 term     := "1" | digits | xprod
                 digits   := [1-9]+        (each digit one variable; needs n <= 9)
                 xprod    := "x" int ("*" "x" int)*
        Whitespace is ignored. A bare "1" is the constant term; the monomial
        x1 on its own must be written "x1". Repeated terms cancel.
        """
        _check_vars(n)
        stripped = re.sub(r"\s+", "", text)
        if stripped == "":
            raise AnfSyntaxError("empty polynomial text")
        if stripped == "0":
            return cls.zero(n)
        acc = np.zeros(1 << n, dtype=np.uint8)
        for term in stripped.split("+"):
            acc[_parse_term(term, n)] ^= 1
        return cls(n, acc)

    def to_text(self) -> str:
        """Deterministic text form; parse(to_text(), n) round-trips."""
        return format_monomial_masks(self.n, self.monomials())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"ANF({self.n}, {self.to_text()!r})"


def _parse_term(term: str, n: int) -> int:
    if term == "":
        raise AnfSyntaxError("empty term (stray '+'?)")
    if term == "1":
        return 0
    if term[0] != "x":
        if not re.fullmatch(r"[1-9]+", term):
            raise AnfSyntaxError(f"bad term {term!r}")
        if n > 9:
            raise AnfSyntaxError(f"digit notation {term!r} is only valid for n <= 9")
        mask = 0
        for ch in term:
            v = int(ch)
            if v > n:
                raise VariableIndexError(f"variable x{v} out of range for n={n}")
            mask |= 1 << (v - 1)
        return mask
    mask = 0
    for factor in term.split("*"):
        m = re.fullmatch(r"x([0-9]+)", factor)
        if not m:
            raise AnfSyntaxError(f"bad factor {factor!r} in term {term!r}")
        v = int(m.group(1))
        if v < 1 or v > n:
            raise VariableIndexError(f"variable x{v} out of range for n={n}")
        mask |= 1 << (v - 1)
    return mask


def format_monomial_masks(n: int, masks: Iterable[int]) -> str:
    """Text form for a plain set of monomial masks, without building an ANF.

    Used for symbolic monomial sets at n beyond the truth-table ceiling.
    """
    ms = sorted(set(int(m) for m in masks))
    if not ms:
        return "0"
    digits_ok = n <= 9 and 1 not in ms
    parts = []
    for m in ms:
        if m == 0:
            parts.append("1")
        elif digits_ok:
            parts.append("".join(str(v) for v in mask_to_vars(m)))
        else:
            parts.append("*".join(f"x{v}" for v in mask_to_vars(m)))
    return "+".join(parts)


def parse(text: str, n: int) -> ANF:
    return ANF.parse(text, n)
