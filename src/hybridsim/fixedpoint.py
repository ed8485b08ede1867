"""Bit-exact model of the control hardware's classical number formats.

Reals are Q2.16 fixed point: an 18-bit two's-complement word with 16
fractional bits, so the representable range is [-2.0, 2.0 - 2**-16] in
steps of 2**-16.  Integers use the same 18-bit two's-complement word.

Semantics mirrored here:

- every arithmetic result wraps silently into the 18-bit word; there is no
  run-time overflow check (out-of-range *literals* are rejected once, at
  program load),
- multiplication computes the full-width product first, then rescales by
  truncating toward zero,
- there is no division; a reciprocal is approximated from a 64-entry
  piecewise-linear interpolation table with one Newton refinement,
- a Q2.16 value used as a rotation is read in units of pi, so the word's
  wrap range covers two full periods and wrap-around is harmless there.

The module-level functions operate on raw integer words; :class:`FixedQ216`
and :class:`Int18` box a word as a typed value in shot records.  Each op is
one Python call that wraps its result inline.  The table reciprocal of a
word is computed once and remembered (`recip_prewrap_raw` is a bounded
memo), since a program divides by the same few words in every shot, and
`fixed_box` hands out one shared, checked `FixedQ216` per word, which is
also how a pickled Q2.16 box loads (an `Int18` loads through its
constructor, so no pickle skips the word check).  Both memos
key on the argument's exact type, so a `bool` or `float` never finds an
`int` entry; a call that raises remembers nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DivideByZero, OutOfRange

WORD_BITS = 18
FRAC_BITS = 16
SCALE = 1 << FRAC_BITS              # 65536
RAW_MIN = -(1 << (WORD_BITS - 1))   # -131072
RAW_MAX = (1 << (WORD_BITS - 1)) - 1
_WORD_MOD = 1 << WORD_BITS
_HALF_MOD = 1 << (WORD_BITS - 1)

EPS = 2.0 ** -FRAC_BITS
REAL_MIN = -2.0
REAL_MAX = 2.0 - EPS

BOUNDARY_RAWS = (RAW_MIN, -1, 0, 1, RAW_MAX)


def wrap_raw(x: int) -> int:
    """Fold an arbitrary integer into the 18-bit two's-complement word."""
    return ((x + _HALF_MOD) % _WORD_MOD) - _HALF_MOD


def encode(x: float) -> int:
    """Real -> raw word, rounding half to even.  Raises OutOfRange."""
    if not math.isfinite(x):
        raise OutOfRange(f"{x!r} is not a finite value")
    if abs(x) < 4.0:        # else no word is near, and x * SCALE may be inf
        raw = round(x * SCALE)
        if RAW_MIN <= raw <= RAW_MAX:
            return raw
    raise OutOfRange(f"{x!r} is outside [-2, 2 - 2**-16]")


def decode(raw: int) -> float:
    """Raw word -> exact real value."""
    return raw / SCALE


# The ops below run once per classical instruction of every shot, so each
# folds its result into the word inline, as `wrap_raw` does, rather than
# making a second call.

def add_raw(a: int, b: int) -> int:
    return ((a + b + _HALF_MOD) % _WORD_MOD) - _HALF_MOD


def sub_raw(a: int, b: int) -> int:
    return ((a - b + _HALF_MOD) % _WORD_MOD) - _HALF_MOD


def neg_raw(a: int) -> int:
    return ((-a + _HALF_MOD) % _WORD_MOD) - _HALF_MOD


def mul_raw(a: int, b: int) -> int:
    """Full-width product, rescale with truncation toward zero, then wrap."""
    prod = a * b
    scaled = -((-prod) >> FRAC_BITS) if prod < 0 else prod >> FRAC_BITS
    return ((scaled + _HALF_MOD) % _WORD_MOD) - _HALF_MOD


# Reciprocal interpolation table: 65 knots of round(2**31 / m) for mantissas
# m = 1 + i/64 over [1, 2], stored at Q-scale 2**31 (exact integer rounding).
_RECIP_TABLE = tuple(
    ((1 << 37) + (64 + i) // 2) // (64 + i) for i in range(65)
)
_FRAC_MASK = (1 << 25) - 1


# A program divides by few distinct words (RWPE by the same 24 in every
# shot), so 4096 of them (about 0.8 MB when full) is ample.
@lru_cache(maxsize=4096, typed=True)
def recip_prewrap_raw(raw: int) -> int:
    """Approximate round(2**32 / raw): the reciprocal in raw-word units
    *before* wrapping.  Table lookup + linear interpolation + one Newton
    step, all in exact integer arithmetic, once per word: the result is
    remembered (`__wrapped__` is the computation itself)."""
    if raw == 0:
        raise DivideByZero("reciprocal of zero")
    sign = -1 if raw < 0 else 1
    a = abs(raw)
    k = a.bit_length() - 1
    m31 = a << (31 - k)                      # mantissa, Q1.31 in [2**31, 2**32)
    idx = (m31 >> 25) & 63
    frac = m31 & _FRAC_MASK
    t0 = _RECIP_TABLE[idx]
    t1 = _RECIP_TABLE[idx + 1]
    r = t0 - (((t0 - t1) * frac) >> 25)      # r ~ 2**31 / m
    r = (r << 1) - ((m31 * r * r) >> 62)     # Newton: r <- r * (2 - m*r)
    shift = k - 1                            # rescale r * 2**(1-k)
    if shift <= 0:
        return sign * (r << -shift)
    return sign * ((r + (1 << (shift - 1))) >> shift)


def recip_raw(a: int) -> int:
    """Reciprocal wrapped into the word, as the hardware delivers it."""
    return ((recip_prewrap_raw(a) + _HALF_MOD) % _WORD_MOD) - _HALF_MOD


def div_raw(a: int, b: int) -> int:
    """Table-based division a/b: the wide reciprocal of b multiplies a at
    full width, is truncated toward zero, and wraps only once at the end.
    Quotients used as angles therefore stay exact modulo the two-period
    range even when the standalone reciprocal would have wrapped."""
    r = recip_prewrap_raw(b)          # ~ 2**32 / b
    prod = a * r                      # ~ (a/b) * 2**32
    scaled = -((-prod) >> FRAC_BITS) if prod < 0 else prod >> FRAC_BITS
    return ((scaled + _HALF_MOD) % _WORD_MOD) - _HALF_MOD


def to_radians(raw: int) -> float:
    """Angle interpretation: value in units of pi over [-2pi, 2pi)."""
    return raw / SCALE * math.pi


def check_int_range(x: int) -> int:
    """Load-time range check for integer literals."""
    if x < RAW_MIN or x > RAW_MAX:
        raise OutOfRange(f"{x} is outside the 18-bit signed range")
    return x


def _check_word(box):
    """A box holds an `int` (bools excluded) in the 18-bit range."""
    raw = box.raw
    if type(raw) is not int:
        raise TypeError(f"raw word {raw!r} is not an int")
    if not RAW_MIN <= raw <= RAW_MAX:
        raise OutOfRange(f"raw word {raw} is not an 18-bit value")


@dataclass(frozen=True, slots=True, init=False)
class FixedQ216:
    """A Q2.16 register value.  `raw` is the 18-bit two's-complement word."""

    raw: int

    def __init__(self, raw: int):
        # Setting the slot through its descriptor skips the
        # `object.__setattr__` call of a frozen dataclass `__init__`.
        _set_fixed_raw(self, raw)
        _check_word(self)

    def __float__(self) -> float:
        return decode(self.raw)

    value = property(__float__)

    def __repr__(self) -> str:
        return f"FixedQ216(raw={self.raw}, value={self.value!r})"

    def __reduce__(self):
        # Unpickled through the word check, as the shared box of its word.
        return fixed_box, (self.raw,)


_set_fixed_raw = FixedQ216.raw.__set__


@dataclass(frozen=True, slots=True)
class Int18:
    """An 18-bit two's-complement integer register value."""

    raw: int

    __post_init__ = _check_word

    def __float__(self) -> float:
        return float(self.raw)

    def __repr__(self) -> str:
        return f"Int18({self.raw})"

    def __reduce__(self):
        # Unpickled through the constructor, so through the word check.
        return Int18, (self.raw,)


# The box of each Q2.16 word, built and checked the first time the word is
# seen and shared after that (boxes are frozen).  RWPE records the same 24
# times `t` in every shot, and its `phi_inv` words recur: read once, the
# records of a 3000-shot `fixed` run (15271 distinct words, 49 boxes a
# record) find 78% of their boxes among 1024 (0.17 MB held), and would find
# 86% among 4096 (0.79 MB).  A function of its own, not the cached class,
# so that pickle finds it by its name.
@lru_cache(maxsize=1024, typed=True)
def fixed_box(raw: int) -> FixedQ216:
    return FixedQ216(raw)
