import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalanregions.exactfield import (
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
    sqrt2,
    sqrt3,
    tau,
)
from helpers import random_tau


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
    assert (x < y) + (x == y) + (x > y) == 1
    if x < y:
        assert y > x and not y <= x


def test_ordering_transitivity_random():
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = sorted((random_tau(rng) for _ in range(3)))
        assert a <= b <= c
        assert a <= c


def test_tag_mismatch():
    with pytest.raises(TagMismatch):
        tau() + sqrt2()
    with pytest.raises(TagMismatch):
        sqrt3() * Approx(2)
    with pytest.raises(TagMismatch):
        Approx(1) - tau()
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


def test_field_tags():
    assert field_tag(tau()) == "tau"
    assert field_tag(sqrt2()) == "sqrt2"
    assert field_tag(Approx(1)) == "approx"
    assert field_tag(Q(1, 2)) == "rational"


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
