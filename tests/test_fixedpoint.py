"""Q2.16 / Int18 semantics against the unbounded-integer oracle."""

import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridsim import fixedpoint as fx
from hybridsim.errors import DivideByZero, OutOfRange

RAWS = st.integers(min_value=fx.RAW_MIN, max_value=fx.RAW_MAX)


def test_encode_examples():
    assert fx.encode(0.5) == 32768
    assert fx.encode(-2.0) == -131072
    # exact product is 39749.615616; nearest-even rounds up
    assert fx.encode(0.606531) == 39750
    assert fx.encode(0.606531) == oracles.encode(Fraction(606531, 10**6))


def test_encode_out_of_range():
    with pytest.raises(OutOfRange):
        fx.encode(2.0)
    with pytest.raises(OutOfRange):
        fx.encode(-2.0000153)
    with pytest.raises(OutOfRange):
        fx.encode(float("nan"))
    for huge in (1e308, -1e308, 10 ** 300):   # x * SCALE overflows a float
        with pytest.raises(OutOfRange):
            fx.encode(huge)
    fx.encode(2.0 - 2.0 ** -16)  # top of range is representable


def test_encode_decode_roundtrip_representable():
    for raw in (fx.RAW_MIN, -1, 0, 1, 12345, fx.RAW_MAX):
        assert fx.encode(fx.decode(raw)) == raw


def test_add_examples():
    assert fx.add_raw(fx.encode(0.25), fx.encode(0.25)) == fx.encode(0.5)
    assert fx.decode(fx.add_raw(fx.encode(1.5), fx.encode(1.5))) == -1.0


def test_mul_examples():
    assert fx.mul_raw(fx.encode(0.5), fx.encode(0.5)) == fx.encode(0.25)
    assert fx.mul_raw(1, fx.encode(0.5)) == 0          # one bit of precision lost
    assert fx.decode(fx.mul_raw(fx.encode(1.5), fx.encode(1.5))) == -1.75


def test_recip_examples():
    assert fx.recip_raw(fx.encode(1.0)) == fx.encode(1.0)
    assert fx.decode(fx.recip_raw(fx.encode(0.5))) == -2.0   # 2.0 wraps
    approx = fx.decode(fx.recip_prewrap_raw(fx.encode(0.606531)))
    assert abs(approx - 1 / 0.606531) / (1 / 0.606531) <= 2 ** -10
    with pytest.raises(DivideByZero):
        fx.recip_raw(0)


def test_div_matches_full_width_quotient():
    rng = random.Random(11)
    for _ in range(20000):
        a = rng.randint(fx.RAW_MIN, fx.RAW_MAX)
        b = rng.randint(fx.RAW_MIN, fx.RAW_MAX)
        if b == 0:
            continue
        got = fx.div_raw(a, b)
        exact = Fraction(a << fx.FRAC_BITS, b)
        prod = a * fx.recip_prewrap_raw(b)
        approx_prewrap = prod >> fx.FRAC_BITS if prod >= 0 \
            else -((-prod) >> fx.FRAC_BITS)
        assert got == oracles.wrap18(approx_prewrap)
        # reciprocal relative error plus one truncation ulp
        assert abs(Fraction(approx_prewrap) - exact) <= \
            abs(exact) * Fraction(1, 1 << 10) + 1
    with pytest.raises(DivideByZero):
        fx.div_raw(100, 0)


def test_to_radians():
    assert fx.to_radians(fx.encode(0.5)) == pytest.approx(math.pi / 2, abs=0)
    assert fx.to_radians(fx.encode(-2.0)) == pytest.approx(-2 * math.pi, abs=0)
    assert fx.to_radians(fx.encode(1.0)) == pytest.approx(math.pi, abs=0)


def _boundary_pairs():
    b = fx.BOUNDARY_RAWS
    return [(a, c) for a in b for c in b]


@pytest.mark.parametrize("a,b", _boundary_pairs())
def test_boundary_raws_match_oracle(a, b):
    assert fx.add_raw(a, b) == oracles.fx_add(a, b)
    assert fx.sub_raw(a, b) == oracles.fx_sub(a, b)
    assert fx.mul_raw(a, b) == oracles.fx_mul(a, b)
    assert fx.neg_raw(a) == oracles.fx_neg(a)
    assert fx.wrap_raw(a * b) == oracles.int_mul(a, b)


def test_random_operands_match_oracle():
    rng = random.Random(7)
    for _ in range(20000):
        a = rng.randint(fx.RAW_MIN, fx.RAW_MAX)
        b = rng.randint(fx.RAW_MIN, fx.RAW_MAX)
        assert fx.add_raw(a, b) == oracles.fx_add(a, b)
        assert fx.sub_raw(a, b) == oracles.fx_sub(a, b)
        assert fx.mul_raw(a, b) == oracles.fx_mul(a, b)
        assert fx.neg_raw(a) == oracles.fx_neg(a)
        assert fx.wrap_raw(a * b) == oracles.int_mul(a, b)


@given(RAWS, RAWS, RAWS)
def test_add_ring_laws(a, b, c):
    assert fx.add_raw(a, b) == fx.add_raw(b, a)
    assert fx.add_raw(fx.add_raw(a, b), c) == fx.add_raw(a, fx.add_raw(b, c))
    assert fx.add_raw(a, fx.neg_raw(a)) == 0
    assert fx.add_raw(a, 0) == a


@given(RAWS, RAWS)
def test_mul_precision_bound_in_range(a, b):
    exact = fx.decode(a) * fx.decode(b)
    if fx.REAL_MIN <= exact <= fx.REAL_MAX:
        got = fx.decode(fx.mul_raw(a, b))
        assert abs(got - exact) <= 2 ** -16


@settings(max_examples=300)
@given(st.integers(min_value=256, max_value=fx.RAW_MAX), st.booleans())
def test_recip_relative_error_bound(mag, negative):
    raw = -mag if negative else mag
    assert oracles.recip_rel_error(raw, fx.recip_prewrap_raw(raw)) <= 2 ** -10


def test_recip_wrap_consistency():
    rng = random.Random(3)
    for _ in range(5000):
        a = rng.randint(fx.RAW_MIN, fx.RAW_MAX)
        if a == 0:
            continue
        assert fx.recip_raw(a) == oracles.wrap18(fx.recip_prewrap_raw(a))


def test_typed_wrappers():
    assert fx.FixedQ216(fx.encode(1.5)).value == 1.5
    assert fx.Int18(fx.RAW_MIN).raw == -131072
    with pytest.raises(OutOfRange):
        fx.Int18(2 ** 17)
    with pytest.raises(OutOfRange):
        fx.FixedQ216(2 ** 17)


def test_both_boxes_read_as_floats():
    # Code that reads a record's numbers takes float(v), box or not.
    assert float(fx.FixedQ216(fx.encode(-1.25))) == -1.25
    assert float(fx.Int18(fx.RAW_MIN)) == -131072.0
    assert type(float(fx.Int18(7))) is float


@pytest.mark.parametrize("make", [lambda: fx.FixedQ216(True),
                                  lambda: fx.Int18(False),
                                  lambda: fx.FixedQ216(1.5)],
                         ids=["fixed-bool", "int18-bool", "fixed-float"])
def test_box_raw_word_must_be_an_int(make):
    with pytest.raises(TypeError, match="is not an int"):
        make()


# -- the reciprocal and box memos --------------------------------------------

def _outcome(fn, *args):
    """What `fn(*args)` gives: its value, or the type and text of what it
    raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def test_recip_memo_matches_the_computation_for_every_word():
    memo, compute = fx.recip_prewrap_raw, fx.recip_prewrap_raw.__wrapped__
    memo.cache_clear()
    for raw in range(fx.RAW_MIN, fx.RAW_MAX + 1):
        if raw:
            want = compute(raw)
            assert memo(raw) == want      # cold
            assert memo(raw) == want      # warm


def test_division_by_zero_is_never_remembered():
    for _ in range(3):
        with pytest.raises(DivideByZero):
            fx.recip_raw(0)
        with pytest.raises(DivideByZero):
            fx.div_raw(12345, 0)
        with pytest.raises(DivideByZero):
            fx.recip_prewrap_raw(0)


# Words of the wrong type or outside the 18-bit range, each after its int
# twin (if any) is already remembered.
ODD_WORDS = [True, 1.0, 2.0, -3.0, 2 ** 17, fx.RAW_MIN - 1, 2 ** 40, -(2 ** 40)]


@pytest.mark.parametrize("memo", [fx.recip_prewrap_raw, fx.fixed_box],
                         ids=["recip", "box"])
def test_memos_key_on_the_exact_type(memo):
    for raw in ODD_WORDS:
        twin = int(raw)
        if twin:
            _outcome(memo, twin)
        for _ in range(2):
            assert _outcome(memo, raw) == _outcome(memo.__wrapped__, raw)


def test_box_memo_shares_one_checked_box_per_word():
    box = fx.fixed_box(fx.encode(0.75))
    assert box == fx.FixedQ216(fx.encode(0.75))
    assert type(box) is fx.FixedQ216
    assert fx.fixed_box(fx.encode(0.75)) is box


@given(RAWS)
def test_boxes_round_trip_through_pickle(raw):
    fixed = fx.FixedQ216(raw)
    back = pickle.loads(pickle.dumps(fixed))
    assert back == fixed
    assert back is fx.fixed_box(raw)        # the shared box of its word
    assert pickle.loads(pickle.dumps(fx.Int18(raw))) == fx.Int18(raw)


def _unchecked(cls, raw):
    """A box holding `raw`, built without the word check."""
    box = object.__new__(cls)
    object.__setattr__(box, "raw", raw)
    return box


@pytest.mark.parametrize("cls", [fx.FixedQ216, fx.Int18],
                         ids=["fixed", "int18"])
@pytest.mark.parametrize("raw, error", [(10 ** 9, OutOfRange),
                                        (fx.RAW_MIN - 1, OutOfRange),
                                        (True, TypeError), (0.5, TypeError)],
                         ids=["huge", "below", "bool", "float"])
def test_a_bad_box_word_is_rejected_when_unpickled(cls, raw, error):
    data = pickle.dumps(_unchecked(cls, raw))
    with pytest.raises(error):
        pickle.loads(data)


def _held_bytes(memo, words) -> int:
    """Traced bytes still allocated after `words` pass through `memo`,
    starting empty, above what was live before."""
    memo.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for raw in words:
            memo(raw)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("memo", [fx.recip_prewrap_raw, fx.fixed_box],
                         ids=["recip", "box"])
def test_memo_memory_is_bounded(memo):
    every = [raw for raw in range(fx.RAW_MIN, fx.RAW_MAX + 1) if raw]
    memo.cache_clear()
    for raw in every:
        memo(raw)
    size = memo.cache_info().maxsize
    assert memo.cache_info().currsize == size
    # Memory stops growing once the memo is full: eight times its size in
    # words hold no more than twice its size do.  (Tracing all 2**18 table
    # reciprocals would take seconds.)
    eight = _held_bytes(memo, every[:8 * size])
    two = _held_bytes(memo, every[:2 * size])
    assert eight <= 1.25 * two
    assert eight <= 250 * size
