import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalanregions.exactfield import (
    FIELD_TAGS,
    REL_SQRT2,
    REL_SQRT3,
    REL_TAU,
    Approx,
    DivByZero,
    Q,
    QuadExt,
    TagMismatch,
    as_mpf,
    field_tag,
    is_zero,
    near_tie,
    scalar_from_json,
    scalar_to_json,
    sgn,
    sorted_runs,
    sqrt2,
    sqrt3,
    tau,
)
from helpers import QuadExtReference, random_tau


def test_defining_relations():
    assert tau() * tau() == tau() + 1
    assert sqrt2() * sqrt2() == 2
    assert sqrt3() * sqrt3() == 3
    assert tau(1, 0) / tau() == tau() - 1  # 1/tau = tau - 1


def test_signs_of_basic_elements():
    assert sgn(tau()) == 1
    assert sgn(tau(1, -1)) == -1          # 1 - tau < 0
    assert sgn(tau(2, -1)) == 1           # 2 - tau > 0
    assert sgn(tau(0, 0)) == 0
    assert sgn(sqrt2(1, -1)) == -1        # 1 - sqrt2
    assert sgn(sqrt3(2, -1)) == 1         # 2 - sqrt3
    assert sgn(sqrt3(Q(-7, 4), 1)) == -1  # sqrt3 < 7/4
    assert sgn(sqrt3(Q(-12, 7), 1)) == 1  # sqrt3 > 12/7


def test_sign_matches_decimal_evaluation():
    rng = random.Random(20240817)
    for ctor in (tau, sqrt2, sqrt3):
        samples = [ctor(0, 0), Q(0)] + [
            ctor(Q(rng.randint(-30, 30), rng.randint(1, 30)),
                 Q(rng.randint(-30, 30), rng.randint(1, 30)))
            for _ in range(400)]
        for x in samples:
            with mpmath.workdps(50):
                approx = as_mpf(x)
                expected = 0 if approx == 0 else (1 if approx > 0 else -1)
            assert sgn(x) == expected
            # the zero test reads no sign; the sign is its oracle
            assert is_zero(x) == (sgn(x) == 0)


def test_field_axioms_random_triples():
    rng = random.Random(11)
    for _ in range(10_000):
        a, b, c = (random_tau(rng, 9) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if sgn(a) != 0:
            assert a / a == 1
            assert (b / a) * a == b


@given(st.integers(-50, 50), st.integers(1, 50),
       st.integers(-50, 50), st.integers(1, 50))
@settings(max_examples=200)
def test_total_order(an, ad, bn, bd):
    x = tau(Q(an, ad), Q(bn, bd))
    y = tau(Q(bn, bd), Q(an, ad))
    assert (sgn(x - y) == 0) == (x == y)
    assert sgn(y - x) == -sgn(x - y)


def test_ordering_transitivity_random():
    rng = random.Random(7)
    for _ in range(500):
        runs = sorted_runs([random_tau(rng) for _ in range(3)], key=lambda x: x)
        a, b, c = (x for run in runs for x in run)
        assert sgn(b - a) >= 0 and sgn(c - b) >= 0
        assert sgn(c - a) >= 0


def test_tag_mismatch():
    for mixed in (lambda: tau() + sqrt2(), lambda: tau() - sqrt2(),
                  lambda: tau() * sqrt3(), lambda: sqrt2() / tau(),
                  lambda: sqrt3() * Approx(2), lambda: Approx(1) - tau()):
        with pytest.raises(TagMismatch):
            mixed()
    assert (tau() == sqrt2()) is False
    # equality across fields is False in either operand order, never an error
    for x, y in ((tau(), Approx(1)), (sqrt2(1, 0), Approx(1)),
                 (tau(1, 0), Approx(1))):
        assert (x == y) is False and (y == x) is False
        assert (x != y) is True and (y != x) is True


def test_div_by_zero():
    with pytest.raises(DivByZero):
        tau(1, 0) / tau(0, 0)
    with pytest.raises(DivByZero):
        Approx(1) / Approx(0)


def test_rational_coercion():
    assert tau(0, 1) + Q(1, 2) == tau(Q(1, 2), 1)
    assert 2 * sqrt2() == sqrt2(0, 2)
    assert 1 - tau() == tau(1, -1)
    assert 3 / sqrt3() == sqrt3()


def test_approx_tolerance(monkeypatch):
    assert Approx("1e-40").sign() == 0
    assert Approx("1e-20").sign() == 1
    assert is_zero(Approx("1e-40"))
    assert not is_zero(Approx("1e-20"))
    assert near_tie(Approx("5e-30"))
    assert not near_tie(Approx("1e-28"))
    # |v| >= epsilon has a sign, anything strictly inside is zero
    eps = Approx.epsilon
    assert Approx(eps).sign() == 1 and Approx(-eps).sign() == -1
    inside = eps * (1 - mpmath.mpf("1e-20"))
    assert Approx(inside).sign() == 0 and Approx(-inside).sign() == 0
    # each result holds the mpmath value of the operation itself
    a, b = Approx(mpmath.mpf(2) / 7), Approx(mpmath.sqrt(3))
    assert (a * b).v == a.v * b.v
    assert (a / b).v == a.v / b.v
    assert (a - b).v == a.v - b.v
    assert type(a * b) is Approx and type((a * b).v) is mpmath.mpf
    monkeypatch.setattr(Approx, "epsilon", mpmath.mpf("1e-10"))
    assert Approx("1e-12").sign() == 0


def test_approx_precision_survives_negation():
    x = Approx(mpmath.mpf(1) / 3)
    y = -(-x)
    assert is_zero(x - y)
    assert mpmath.mp.dps >= 60
    # each fails if Approx ever computes at mpmath's default 15 digits
    assert (Approx(1) + Approx("1e-45")).v != 1
    assert abs(int((Approx(1) / 3).v * 10**55) - 10**55 // 3) <= 1
    # x/3*3 also rounds back to 1 at 15 digits, so this bounds the error only
    assert abs((Approx(1) / 3 * 3 - 1).v) < mpmath.mpf("1e-55")


def _kernel_operands(rng):
    """Approx, int and Fraction operands of both signs, some around epsilon."""
    eps = Approx.epsilon
    tiny = mpmath.mpf("1e-40")
    values = [mpmath.mpf(rng.getrandbits(220)) / rng.getrandbits(200)
              for _ in range(8)]
    values += [eps, 10 * eps, eps * (1 - tiny), eps * (1 + tiny),
               10 * eps * (1 - tiny), 10 * eps * (1 + tiny), eps / 3,
               mpmath.mpf(0)]
    approx = [Approx(s * v) for v in values for s in (1, -1)]
    rational = [rng.randint(-9, 9) for _ in range(4)]
    rational += [Q(rng.randint(-50, 50), rng.randint(2, 50)) for _ in range(4)]
    return approx, rational


def _as_reference_mpf(x):
    """The mpf an operand enters Approx arithmetic as: its own, or an int or
    Fraction converted as ``Approx.__init__`` converts it."""
    if isinstance(x, Approx):
        return x.v
    return mpmath.mpf(x.numerator) / x.denominator


def _check_kernel_against_mpf(rng):
    eps = Approx.epsilon
    approx, rational = _kernel_operands(rng)
    for a in approx:
        v = a.v
        assert (-a).v._mpf_ == (-v)._mpf_
        assert a.sign() == (1 if v >= eps else -1 if v <= -eps else 0)
        assert a.near_tie() == (abs(v) < 10 * eps)
        for b in approx + rational:
            w = _as_reference_mpf(b)
            assert (a + b).v._mpf_ == (v + w)._mpf_
            assert (a - b).v._mpf_ == (v - w)._mpf_
            assert (a * b).v._mpf_ == (v * w)._mpf_
            if isinstance(b, Approx) and not b.sign():
                with pytest.raises(DivByZero):
                    a / b
            else:
                assert (a / b).v._mpf_ == (v / w)._mpf_
            if not isinstance(b, Approx):
                # the reflected dunders, with the int or Fraction on the left
                assert (b + a).v._mpf_ == (w + v)._mpf_
                assert (b - a).v._mpf_ == (w - v)._mpf_
                assert (b * a).v._mpf_ == (w * v)._mpf_
                if a.sign():
                    assert (b / a).v._mpf_ == (w / v)._mpf_
                else:
                    with pytest.raises(DivByZero):
                        b / a


def test_approx_kernel_is_bit_identical_to_mpf_operators(monkeypatch):
    # Approx computes on mpmath.libmp directly; every result, sign and tie
    # flag must be what mpf's own operators give on the same values, at the
    # context's precision, whatever the tolerance
    rng = random.Random(30)
    _check_kernel_against_mpf(rng)
    with mpmath.workdps(80):
        _check_kernel_against_mpf(rng)
    monkeypatch.setattr(Approx, "epsilon", mpmath.mpf("1e-10"))
    _check_kernel_against_mpf(rng)
    with mpmath.workdps(80):
        _check_kernel_against_mpf(rng)


@pytest.mark.parametrize("make", [
    lambda a, b: Q(a + 2 * b, 3),
    lambda a, b: tau(Q(a, 3), b),
    lambda a, b: sqrt2(a, Q(b, 2)),
], ids=["rational", "tau", "sqrt2"])
def test_sorted_runs_sorts_and_keeps_ties_in_input_order(make):
    rng = random.Random(7)
    # the same value made again from a fresh object, so ties are frequent
    pairs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(60)]
    items = [(n, make(a, b)) for n, (a, b) in enumerate(pairs)]
    runs = sorted_runs(items, key=lambda it: it[1])
    assert sorted(it for run in runs for it in run) == items
    assert len(runs) == len({v for _, v in items})
    for run in runs:
        assert all(v == run[0][1] for _, v in run)
        assert [n for n, _ in run] == sorted(n for n, _ in run)
    assert all(sgn(b[0][1] - a[0][1]) > 0 for a, b in zip(runs, runs[1:]))


def test_sorted_runs_join_approx_values_within_the_tolerance():
    one = Approx(1)
    near, far = one + Approx("1e-40"), one + Approx("1e-20")
    runs = sorted_runs([far, near, one], key=lambda x: x)
    assert [list(map(id, run)) for run in runs] == [[id(near), id(one)],
                                                      [id(far)]]


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter on these sources; fail on its error."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
         + code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_exact_census_never_loads_mpmath():
    # classify, serialize and read back H4 as the CLI and a checker would
    _run_fresh("""
import json
import catalanregions
from catalanregions.classifier import classify_system
from catalanregions.cli import report_to_json
from catalanregions.exactfield import scalar_from_json
from catalanregions.feasibility import witness_sign_type
spec = catalanregions.parse_spec("H4")
report = classify_system(spec)
doc = json.loads(json.dumps(report_to_json(report), sort_keys=True))
poset = catalanregions.RootPoset(catalanregions.build(spec))
read = 0
for entry in doc["antichains"]:
    if entry["status"] == "NonEmpty":
        v = tuple(scalar_from_json(x) for x in entry["witness"])
        ideal = poset.ideal(tuple(i - 1 for i in entry["members"]))
        assert witness_sign_type(poset, v) == ideal
        read += 1
assert read == 413
# the exact sweeps build, sort and classify their grids exactly too
from catalanregions.classifier import sweep_ratio
sweep_ratio(4)
sweep_ratio(6)
assert "mpmath" not in sys.modules
""")


def test_approx_precision_survives_a_callers_workdps():
    # the first touch of mpmath happens inside a caller's lower-precision
    # block, whose exit restores mpmath's default 15 digits
    _run_fresh("""
import mpmath
from catalanregions.exactfield import Approx, as_mpf, tau
with mpmath.workdps(50):
    as_mpf(tau(1, 1))
assert (Approx(1) + Approx("1e-45")).v != 1
assert abs(int((Approx(1) / 3).v * 10**55) - 10**55 // 3) <= 1
assert mpmath.mp.dps >= 60
""")


def test_approx_epsilon_is_1e_30_at_60_digits():
    # read before anything else loads mpmath
    _run_fresh("""
from catalanregions.exactfield import Approx
eps = Approx.epsilon
import mpmath
with mpmath.workdps(60):
    want = mpmath.mpf("1e-30")
assert type(eps) is mpmath.mpf and eps._mpf_ == want._mpf_
assert Approx.epsilon is eps
""")


def test_field_tags():
    assert field_tag(tau()) == "tau"
    assert field_tag(sqrt2()) == "sqrt2"
    assert field_tag(Approx(1)) == "approx"
    assert field_tag(Q(1, 2)) == "rational"
    # the report schema's field enum lists each tag once
    tags = [field_tag(x) for x in (Q(1), tau(), sqrt2(), sqrt3(), Approx(1))]
    assert sorted(FIELD_TAGS) == sorted(tags)


def test_json_round_trip():
    for x in (tau(Q(3, 7), Q(-2, 5)), sqrt2(1, 1), sqrt3(0, Q(1, 2)), Q(22, 7)):
        back = scalar_from_json(scalar_to_json(x))
        assert back == x
        assert field_tag(back) == field_tag(x)
    a = Approx(mpmath.mpf("1.25"))
    back = scalar_from_json(scalar_to_json(a))
    assert is_zero(a - back)


def test_hash_consistency():
    assert hash(tau(1, 2)) == hash(tau(Q(2, 2), Q(4, 2)))
    assert len({tau(1, 2), tau(1, 2), tau(2, 1)}) == 2
    # an element with b == 0 equals a rational and must hash like it
    for make in (tau, sqrt2, sqrt3):
        for r in (Q(1), Q(0), Q(-3, 4)):
            x = make(r, 0)
            assert x == r and hash(x) == hash(r)
            assert len({x, r}) == 1
            assert r in {x} and x in {r}
        assert len({make(1, 1), Q(1)}) == 2


def test_quadext_canonical_idempotence():
    x = tau(Q(6, 4), Q(-10, 15))
    assert x.a == Q(3, 2) and x.b == Q(-2, 3)
    assert isinstance(x + 0, QuadExt)


@pytest.mark.parametrize("bad", [0.5, "1/2", mpmath.mpf("0.1"), Approx(1)],
                         ids=["float", "str", "mpf", "Approx"])
def test_quadext_rejects_inexact_components(bad):
    for a, b in ((bad, 0), (0, bad)):
        with pytest.raises(TypeError):
            QuadExt(a, b, REL_TAU)
    with pytest.raises(TypeError):
        tau(bad, 1)


def test_equal_values_hash_alike():
    x, y = tau(Q(2, 4), Q(-6, 8)), tau(Q(1, 2), Q(-3, 4))
    assert x == y and hash(x) == hash(y)
    z = tau(Q(1, 4), Q(-3, 8)) * 2
    assert z == x and hash(z) == hash(x)
    assert len({tau(Q(1, 2), 0), Q(1, 2)}) == 1
    assert len({sqrt2(Q(3, 2), 1) - sqrt2(0, 1), Q(3, 2)}) == 1


def test_div_by_zero_every_field():
    for zero in (tau(0, 0), sqrt2(0, 0), sqrt3(0, 0)):
        for num in (tau(1, 1), sqrt2(1, 1), sqrt3(1, 1)):
            if num.rel is zero.rel:
                with pytest.raises(DivByZero):
                    num / zero
        with pytest.raises(DivByZero):
            1 / zero
        with pytest.raises(DivByZero):
            zero / 0
        with pytest.raises(DivByZero):
            zero / Q(0)


def test_division_by_negative_norm():
    # 1 - tau has norm 1 - 1 - 1 = -1, so the denominator must flip its sign
    x = tau(1, -1)
    inv = 1 / x
    assert inv == tau(0, -1) and inv.d == 1
    assert x * inv == 1
    y = tau(Q(3, 5), Q(7, 2)) / x
    assert y.d > 0 and y * x == tau(Q(3, 5), Q(7, 2))
    assert sqrt2(1, 1) / sqrt2(1, -1) == sqrt2(-3, -2)   # norm 1 - 2 = -1


# (numerator, denominator) pools: small values, numerators near 2**100,
# denominators sharing factors with each other, negatives and zero
_NUMS = (0, 1, -1, 2, -3, 7, -12, 2**100, -(2**100), 2**100 + 7,
         -(2**100 - 3), 3 * 2**99 + 1)
_DENS = (1, 2, 3, 4, 6, 12, 35, 2**50, 3 * 2**50, 6 * 2**100, 2**100 + 1)


def _component(rng):
    return Q(rng.choice(_NUMS), rng.choice(_DENS))


def _assert_same(new, ref):
    """`new` is canonical and agrees with the Fraction-pair oracle `ref`."""
    assert type(new) is QuadExt and new.rel is ref.rel
    assert new.d > 0 and gcd(new.x, new.y, new.d) == 1
    assert (new.a, new.b) == (ref.a, ref.b)
    assert new.sign() == ref.sign()
    assert scalar_to_json(new) == {"a": str(ref.a), "b": str(ref.b),
                                   "field": ref.rel[2]}
    assert new.mpf() == ref.mpf()
    assert repr(new) == repr(ref) and str(new) == str(ref)
    if ref.b == 0:
        assert hash(new) == hash(ref) == hash(ref.a)
    else:
        assert hash(new) == hash(QuadExt(ref.a, ref.b, ref.rel))


def _apply(op, x, y):
    """op(x, y), or the exception type it raises."""
    try:
        return op(x, y)
    except DivByZero:
        return DivByZero


_OPS = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
        lambda x, y: x / y)


@pytest.mark.parametrize("rel", [REL_TAU, REL_SQRT2, REL_SQRT3],
                         ids=lambda rel: rel[2])
def test_quadext_matches_fraction_pair_reference(rel):
    rng = random.Random(f"quadext-{rel[2]}")
    comps = [(_component(rng), _component(rng)) for _ in range(30)]
    comps += [(Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(-1)), (Q(0), Q(1)),
              (Q(-1, 2), Q(1, 2)), (Q(2**100, 3), Q(-(2**100), 3))]
    pairs = [(QuadExt(a, b, rel), QuadExtReference(a, b, rel))
             for a, b in comps]
    rationals = [0, 1, -3, 2**100, Q(5, 6), Q(-(2**100) - 1, 3 * 2**50)]
    for x, rx in pairs:
        _assert_same(x, rx)
        _assert_same(-x, -rx)
        assert bool(x) == bool(rx)
        for k in rationals:
            assert (x == k) == (rx == k)
            for op in _OPS:
                for got, want in ((_apply(op, x, k), _apply(op, rx, k)),
                                  (_apply(op, k, x), _apply(op, k, rx))):
                    if want is DivByZero:
                        assert got is DivByZero
                    else:
                        _assert_same(got, want)
        for y, ry in pairs:
            assert (x == y) == (rx == ry)
            assert sgn(x - y) == (rx - ry).sign()
            for op in _OPS:
                want = _apply(op, rx, ry)
                got = _apply(op, x, y)
                if want is DivByZero:
                    assert got is DivByZero
                else:
                    _assert_same(got, want)

