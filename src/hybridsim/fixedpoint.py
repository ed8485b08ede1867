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
and :class:`Int18` box a word as a typed value in shot records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def add_raw(a: int, b: int) -> int:
    return wrap_raw(a + b)


def sub_raw(a: int, b: int) -> int:
    return wrap_raw(a - b)


def neg_raw(a: int) -> int:
    return wrap_raw(-a)


def mul_raw(a: int, b: int) -> int:
    """Full-width product, rescale with truncation toward zero, then wrap."""
    prod = a * b
    scaled = -((-prod) >> FRAC_BITS) if prod < 0 else prod >> FRAC_BITS
    return wrap_raw(scaled)


# Reciprocal interpolation table: 65 knots of round(2**31 / m) for mantissas
# m = 1 + i/64 over [1, 2], stored at Q-scale 2**31 (exact integer rounding).
_RECIP_TABLE = tuple(
    ((1 << 37) + (64 + i) // 2) // (64 + i) for i in range(65)
)
_FRAC_MASK = (1 << 25) - 1


def recip_prewrap_raw(raw: int) -> int:
    """Approximate round(2**32 / raw): the reciprocal in raw-word units
    *before* wrapping.  Table lookup + linear interpolation + one Newton
    step, all in exact integer arithmetic."""
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
    return wrap_raw(recip_prewrap_raw(a))


def div_raw(a: int, b: int) -> int:
    """Table-based division a/b: the wide reciprocal of b multiplies a at
    full width, is truncated toward zero, and wraps only once at the end.
    Quotients used as angles therefore stay exact modulo the two-period
    range even when the standalone reciprocal would have wrapped."""
    r = recip_prewrap_raw(b)          # ~ 2**32 / b
    prod = a * r                      # ~ (a/b) * 2**32
    scaled = -((-prod) >> FRAC_BITS) if prod < 0 else prod >> FRAC_BITS
    return wrap_raw(scaled)


def to_radians(raw: int) -> float:
    """Angle interpretation: value in units of pi over [-2pi, 2pi)."""
    return decode(raw) * math.pi


def check_int_range(x: int) -> int:
    """Load-time range check for integer literals."""
    if x < RAW_MIN or x > RAW_MAX:
        raise OutOfRange(f"{x} is outside the 18-bit signed range")
    return x


def _bad_raw(raw) -> Exception:
    """Why `raw` cannot be a boxed register word: a box holds an `int`
    (bools excluded) in the 18-bit range."""
    if type(raw) is not int:
        return TypeError(f"raw word {raw!r} is not an int")
    return OutOfRange(f"raw word {raw} is not an 18-bit value")


@dataclass(frozen=True, slots=True)
class FixedQ216:
    """A Q2.16 register value.  `raw` is the 18-bit two's-complement word."""

    raw: int

    def __post_init__(self):
        raw = self.raw
        if type(raw) is not int or not RAW_MIN <= raw <= RAW_MAX:
            raise _bad_raw(raw)

    @property
    def value(self) -> float:
        return decode(self.raw)

    def __repr__(self) -> str:
        return f"FixedQ216(raw={self.raw}, value={self.value!r})"


@dataclass(frozen=True, slots=True)
class Int18:
    """An 18-bit two's-complement integer register value."""

    raw: int

    def __post_init__(self):
        raw = self.raw
        if type(raw) is not int or not RAW_MIN <= raw <= RAW_MAX:
            raise _bad_raw(raw)

    def __repr__(self) -> str:
        return f"Int18({self.raw})"

