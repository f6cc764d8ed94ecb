import re
from fractions import Fraction

import mpmath
import pytest

from catalanregions import rootsystem
from catalanregions.classifier import default_ratio_grid
from catalanregions.exactfield import (
    Approx,
    Q,
    as_mpf,
    is_zero,
    sgn,
    sqrt2,
    sqrt3,
    tau,
)
from catalanregions.rootsystem import (
    MAX_DIHEDRAL_M,
    MAX_RATIO_DIGITS,
    ClosureOverflow,
    CoxeterType,
    NonPositiveRatio,
    OddRatioNotOne,
    RootSystem,
    SystemSpec,
    _gram_matrix,
    _path,
    _resolve_ratio,
    build,
    coxeter_type,
    evaluate,
    parse_spec,
)
from helpers import REGION_SPECS, norm_matches_orbit, positive_roots_by_closure
from test_weyl import WEYL_TYPES


def test_positive_root_counts():
    assert len(build(parse_spec("H3")).positives) == 15
    assert len(build(parse_spec("H4")).positives) == 60
    for m in [*range(2, 31), MAX_DIHEDRAL_M - 1, MAX_DIHEDRAL_M]:
        assert len(build(parse_spec(f"I2:{m}")).positives) == m


def test_build_matches_closure_oracle():
    labels = ["H3", "H4", *(f"I2:{m}" for m in range(2, 61)), "I2:100",
              "I2:8:r=1.3", "I2:4:r=sin(3)/sin(2)", "I2:12:r=sin(1)/sin(4)"]
    specs = [parse_spec(label) for label in labels]
    specs += [SystemSpec("I2", m, r)
              for m in (6, 12) for _, r in default_ratio_grid(m)]
    # the I2(6) grid is exact in sqrt(3); an Approx ratio keeps Approx covered
    specs.append(SystemSpec("I2", 6, Approx(1)))
    assert build(specs[-1]).field == "approx"
    for spec in specs:
        rs = build(spec)
        want = positive_roots_by_closure(spec)
        # Root equality covers index, coeffs and orbit; the JSON covers the
        # printed digits, norms included
        assert rs.positives == want, spec
        oracle = RootSystem(spec, rs.gram, want, rs.field)
        assert rs.roots_to_json() == oracle.roots_to_json(), spec


def test_build_computes_no_inner_product(monkeypatch):
    # build reads its pairings off the descent signs and leaves the norms
    # to roots_to_json
    monkeypatch.setitem(rootsystem.COXETER_TYPES, "F4", WEYL_TYPES["F4"])

    def forbidden(self, u, w):
        raise AssertionError("build called RootSystem.inner")

    monkeypatch.setattr(RootSystem, "inner", forbidden)
    for label in ("H4", "I2:12", "I2:8:r=1.3", "F4"):
        assert build(parse_spec(label)).positives, label


@pytest.mark.parametrize("group", sorted(REGION_SPECS))
def test_norms_match_orbits(group):
    # reflections preserve the norm, so each root has its orbit's length
    for spec in REGION_SPECS[group]:
        rs = build(spec)
        assert all(norm_matches_orbit(rs, r) for r in rs.positives), spec


def test_infinite_group_raises_closure_overflow(monkeypatch):
    # affine A1~: (a0|a1) = -1 makes s0 s1 of infinite order
    one = Q(1)
    monkeypatch.setattr(rootsystem, "_gram_matrix",
                        lambda row: ([(one, -one), (-one, one)], "rational"))
    with pytest.raises(ClosureOverflow):
        build(parse_spec("I2:7"))


def test_wrong_gram_raises_closure_overflow(monkeypatch):
    # the I2(5) Gram matrix has 5 positive roots, not the 7 of I2(7)
    gram5 = _gram_matrix(coxeter_type(parse_spec("I2:5")))
    monkeypatch.setattr(rootsystem, "_gram_matrix", lambda row: gram5)
    with pytest.raises(ClosureOverflow):
        build(parse_spec("I2:7"))


def test_backend_selection():
    assert build(parse_spec("H3")).field == "tau"
    assert build(parse_spec("H4")).field == "tau"
    assert build(parse_spec("I2:3")).field == "rational"
    assert build(parse_spec("I2:4")).field == "sqrt2"
    assert build(parse_spec("I2:5")).field == "tau"
    assert build(parse_spec("I2:6")).field == "sqrt3"
    assert build(parse_spec("I2:7")).field == "approx"
    # sin(k pi/m) = sin((m - k) pi/m) keeps every sin(k)/sin(l) exact
    for label, field in [("I2:4:r=sin(3)/sin(1)", "sqrt2"),
                         ("I2:5:r=sin(2)/sin(3)", "tau"),
                         ("I2:3:r=sin(1)/sin(2)", "rational"),
                         ("I2:6:r=sin(5)/sin(1)", "sqrt3")]:
        assert build(parse_spec(label)).field == field
        assert _resolve_ratio(parse_spec(label)) == 1
    assert _resolve_ratio(parse_spec("I2:4:r=sin(3)/sin(2)")) == sqrt2(0, Q(1, 2))
    assert _resolve_ratio(parse_spec("I2:4:r=sin(2)/sin(1)")) == sqrt2()


@pytest.mark.parametrize("m", [4, 6, 8, 12])
def test_mirrored_sine_ratio_resolves_to_the_rational_one(m):
    # sin(k pi/m) = sin((m - k) pi/m) on either side of the ratio: the
    # reduction makes it the rational 1, where U_{k-1}(c)/U_{m-k-1}(c) is a
    # field element (QuadExt for m = 4 and 6, an Approx near 1 for 8 and 12)
    for k in range(1, m):
        if 2 * k != m:
            r = _resolve_ratio(parse_spec(f"I2:{m}:r=sin({k})/sin({m - k})"))
            assert type(r) is Fraction and r == 1, k


@pytest.mark.parametrize("m", [4, 6, 12])
def test_sine_ratios_from_cosine(m):
    """U_{k-1}(c)/U_{l-1}(c) at c = cos(pi/m) is sin(k pi/m)/sin(l pi/m),
    exact wherever cos(pi/m) is."""
    for k in range(1, m):
        for l in range(1, m):
            r = _resolve_ratio(SystemSpec("I2", m, ("sin", k, l)))
            assert m > 6 or not isinstance(r, Approx), (k, l)
            want = mpmath.sin(k * mpmath.pi / m) / mpmath.sin(l * mpmath.pi / m)
            assert abs(as_mpf(r) - want) < mpmath.mpf("1e-50"), (k, l)


def test_parse_spec_grammar():
    assert parse_spec("I2:6").ratio == 1
    assert parse_spec("I2:6:r=0.5").ratio == Q(1, 2)
    assert parse_spec("I2:8:r=sin(1)/sin(3)").ratio == ("sin", 1, 3)
    assert parse_spec(f"I2:{MAX_DIHEDRAL_M}").m == MAX_DIHEDRAL_M
    for bad in ("X5", "I2", "I2:1", "I2:6:0.5", "I2:6:r=sin(1)", "H5",
                "I2:0", "I2:-4", f"I2:{MAX_DIHEDRAL_M + 1}", "I2:6000",
                "I2:6:r=sin(1)/sin(0)", "I2:6:r=sin(1)/sin(6)",
                "I2:8:r=sin(1)/sin(8)", "I2:6:r=1/0"):
        with pytest.raises(ValueError):
            parse_spec(bad)
    with pytest.raises(ValueError, match=re.escape("1 <= k, l <= 5")):
        parse_spec("I2:6:r=sin(6)/sin(1)")


def test_ratio_size_is_bounded():
    # Fraction would expand 10**5000 and 10**1000000000 before any check
    for text in ("1e5000", f"1e{MAX_RATIO_DIGITS + 1}", "1e1_000_000_000",
                 "1" * (MAX_RATIO_DIGITS + 1), "1e1000000000"):
        with pytest.raises(ValueError, match=str(MAX_RATIO_DIGITS)):
            parse_spec(f"I2:4:r={text}")
    big = parse_spec(f"I2:4:r=1e{MAX_RATIO_DIGITS}")
    assert big.ratio == 10**MAX_RATIO_DIGITS
    assert parse_spec(f"I2:4:r={'1' * MAX_RATIO_DIGITS}").ratio \
        == (10**MAX_RATIO_DIGITS - 1) // 9
    assert parse_spec(f"I2:4:r=1e-{MAX_RATIO_DIGITS}").label()


def test_approx_gram_takes_the_table_cosines(monkeypatch):
    # an Approx length moves a rank-3 path to Approx; its unjoined pair has
    # cos(pi/2) = 0 from the table, where mpmath's cos gives about 6e-62
    monkeypatch.setitem(rootsystem.COXETER_TYPES, "A3", CoxeterType(
        _path(3, 3), (1, 1, Approx(1)), (1, 2, 3)))
    rs = build(parse_spec("A3"))
    assert rs.field == "approx" and len(rs.positives) == 6
    assert rs.gram[0][2].v == 0 and rs.gram[2][0].v == 0


def test_ratio_validation():
    with pytest.raises(OddRatioNotOne):
        build(SystemSpec("I2", 5, Q(1, 2)))
    with pytest.raises(NonPositiveRatio):
        build(SystemSpec("I2", 6, Q(-1)))


def test_spec_labels():
    assert parse_spec("H4").label() == "H4"
    assert parse_spec("I2:6").label() == "I2:6"
    assert parse_spec("I2:6:r=sin(1)/sin(2)").label() == "I2:6:r=sin(1)/sin(2)"


def test_i2_6_roots_match_closed_form():
    # with both simple roots of length 1 the mixed roots carry sqrt3 weights
    rs = build(parse_spec("I2:6"))
    s3 = sqrt3()
    one = rs.one
    zero = rs.zero
    expected = {
        (one, zero), (zero, one),
        (s3, one), (one, s3),
        (2 * one, s3), (s3, 2 * one),
    }
    got = {r.coeffs for r in rs.positives}
    assert got == expected


def test_i2_4_roots_match_closed_form():
    rs = build(parse_spec("I2:4"))
    s2 = sqrt2()
    one, zero = rs.one, rs.zero
    assert {r.coeffs for r in rs.positives} == {
        (one, zero), (zero, one), (s2, one), (one, s2)}


def test_reflection_closure_idempotent():
    for label in ("H3", "I2:5", "I2:7"):
        rs = build(parse_spec(label))
        all_coeffs = [r.coeffs for r in rs.positives]
        for c in all_coeffs:
            for i in range(rs.rank):
                img = rs.reflect(i, c)
                neg = tuple(rs.zero - x for x in img)
                assert any(
                    all(is_zero(a - b) for a, b in zip(img, other))
                    or all(is_zero(a - b) for a, b in zip(neg, other))
                    for other in all_coeffs)


def test_simple_reflection_negates_simple_root():
    rs = build(parse_spec("H3"))
    e0 = tuple(rs.one if i == 0 else rs.zero for i in range(3))
    assert rs.reflect(0, e0) == tuple(-x for x in e0)


def test_evaluate_is_dot_product():
    rs = build(parse_spec("H3"))
    x = (rs.one, 2 * rs.one, 3 * rs.one)
    r = rs.positives[0]
    manual = sum((xi * ci for xi, ci in zip(x, r.coeffs)), rs.zero)
    assert is_zero(evaluate(x, r) - manual)
    with pytest.raises(ValueError):
        evaluate((rs.one,), r)


def test_inner_rejects_a_vector_of_the_wrong_length():
    rs = build(parse_spec("H3"))
    x, short = (rs.one, rs.zero, rs.zero), (rs.one, rs.zero)
    assert rs.inner(x, x) == rs.gram[0][0]
    for u, w in ((short, x), (x, short)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            rs.inner(u, w)


def test_orbits():
    h3 = build(parse_spec("H3"))
    assert {r.orbit for r in h3.positives} == {0}  # one orbit: odd bond labels
    i24 = build(parse_spec("I2:4"))
    assert {r.orbit for r in i24.positives} == {0, 1}
    i25 = build(parse_spec("I2:5"))
    assert {r.orbit for r in i25.positives} == {0}
    h4 = build(parse_spec("H4"))
    assert {r.orbit for r in h4.positives} == {0}
    even = build(parse_spec(f"I2:{MAX_DIHEDRAL_M}"))
    assert {r.orbit for r in even.positives} == {0, 1}
    odd = build(parse_spec(f"I2:{MAX_DIHEDRAL_M - 1}"))
    assert {r.orbit for r in odd.positives} == {0}


def test_gram_matrix_h3():
    rs = build(parse_spec("H3"))
    g = rs.gram
    assert g[0][1] == tau(0, Q(-1, 2))     # -cos(pi/5)
    assert g[1][2] == tau(Q(-1, 2), 0)
    assert is_zero(g[0][2])
    assert g[0][0] == rs.one


def test_all_coefficients_nonnegative():
    for label in ("H3", "H4", "I2:9", "I2:6:r=0.5"):
        rs = build(parse_spec(label))
        for r in rs.positives:
            assert all(sgn(c) >= 0 for c in r.coeffs)
            assert any(sgn(c) > 0 for c in r.coeffs)
            assert sgn(rs.inner(r.coeffs, r.coeffs)) > 0


def test_canonical_order_is_by_height():
    rs = build(parse_spec("H4"))
    heights = [sum((c for c in r.coeffs), rs.zero) for r in rs.positives]
    assert all(sgn(heights[i + 1] - heights[i]) >= 0
               for i in range(len(heights) - 1))


def test_exact_sin_ratio():
    spec = parse_spec("I2:6:r=sin(2)/sin(1)")
    rs = build(spec)
    assert rs.field == "sqrt3"  # sin(2pi/6)/sin(pi/6) = sqrt3 stays exact
    spec = parse_spec("I2:8:r=sin(1)/sin(2)")
    assert build(spec).field == "approx"


def test_roots_to_json():
    rs = build(parse_spec("I2:4"))
    doc = rs.roots_to_json()
    assert len(doc) == 4
    assert doc[0]["index"] == 0
    assert all({"index", "coeffs", "norm2"} <= set(d) for d in doc)
