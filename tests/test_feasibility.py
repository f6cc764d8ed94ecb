import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations

import pytest

from catalanregions import feasibility
from catalanregions.classifier import classify_all, default_ratio_grid
from catalanregions.exactfield import (
    Approx,
    Q,
    TagMismatch,
    is_zero,
    scalar_to_json,
    sgn,
    sqrt2,
    sqrt3,
    tau,
)
from catalanregions.feasibility import (
    EmptyAntichain,
    LinearSystem,
    OrderCertificate,
    _chamber_rows,
    bounded,
    certified,
    check_farkas,
    check_order_certificate,
    int_c,
    region_status,
    region_system,
    witness_sign_type,
)
from catalanregions.rootposet import NotAntichain, RootPoset
from catalanregions.rootsystem import SystemSpec, build, evaluate, parse_spec
import helpers
from helpers import (
    REGION_SPECS,
    DimensionMismatch,
    RootPosetReference,
    bounded_lp,
    exact_rank,
    int_c_digest,
    int_c_lp,
    lp_max_reference,
    lp_solve,
    order_certificate_generic,
    order_lp,
    slack_lp,
    solve,
    solve_reference,
    tableau,
    witness_sign_type_reference,
)

ZERO, ONE = Q(0), Q(1)


def test_lp_max_basic():
    # max x + y s.t. x <= 2, y <= 3
    status, x, duals, opt = lp_solve(
        2, [ONE, ONE], [((ONE, ZERO), Q(2)), ((ZERO, ONE), Q(3))], ZERO, ONE)
    assert status == "optimal"
    assert x == [Q(2), Q(3)] and opt == Q(5)
    assert duals == [ONE, ONE]


def test_lp_max_unbounded():
    status, *_ = lp_solve(1, [ONE], [((Q(-1),), ZERO)], ZERO, ONE)
    assert status == "unbounded"


def test_lp_max_negative_rhs():
    # x >= 1 (as -x <= -1), max -x -> x = 1
    status, x, duals, opt = lp_solve(1, [-ONE], [((Q(-1),), Q(-1))], ZERO, ONE)
    assert status == "optimal"
    assert x == [ONE] and opt == -ONE


def test_lp_max_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp_solve(2, [ONE, ONE], [((ONE,), ONE)], ZERO, ONE)


def random_lp(rng, scalar):
    """A small LP whose last row is a scaled copy of an earlier one.

    The copy ties with its original in every ratio test that sees both.
    Entries, right-hand sides included, take either sign.
    """
    n, m = rng.randint(1, 4), rng.randint(1, 5)
    rows = [([scalar() for _ in range(n)], scalar()) for _ in range(m)]
    coeffs, rhs = rng.choice(rows)
    k = rng.randint(2, 3)
    rows.append(([k * c for c in coeffs], k * rhs))
    return n, [scalar() for _ in range(n)], rows


def _fraction(rng):
    return Q(rng.randint(-3, 3), rng.randint(1, 3))


# zero, one and a random small scalar of each field.  sqrt2 and sqrt3 have
# p = 0 in rho**2 = p*rho + q; "tau_fractions" has denominators, so the
# integer rows carry a row denominator other than 1
FIELDS = {
    "rational": (Q(0), Q(1), lambda rng: Q(rng.randint(-3, 3))),
    "tau": (tau(0, 0), tau(1, 0),
            lambda rng: tau(rng.randint(-2, 2), rng.randint(-2, 2))),
    "sqrt2": (sqrt2(0, 0), sqrt2(1, 0),
              lambda rng: sqrt2(rng.randint(-2, 2), rng.randint(-2, 2))),
    "sqrt3": (sqrt3(0, 0), sqrt3(1, 0),
              lambda rng: sqrt3(rng.randint(-2, 2), rng.randint(-2, 2))),
    "tau_fractions": (tau(0, 0), tau(1, 0),
                      lambda rng: tau(_fraction(rng), _fraction(rng))),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_lp_max_matches_reference(name):
    zero, one, scalar = FIELDS[name]
    rng = random.Random(7)
    statuses = Counter()
    flipped = 0
    for _ in range(600):
        n, objective, rows = random_lp(rng, lambda: scalar(rng))
        got = lp_solve(n, objective, rows, zero, one)
        assert got == lp_max_reference(n, objective, rows, zero, one), rows
        statuses[got[0]] += 1
        flipped += any(sgn(rhs) < 0 for _, rhs in rows)
    # every exit of the simplex, and phase 1, is exercised many times
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) > 50
    assert flipped > 300


def test_lp_max_long_pivot_runs(monkeypatch):
    # feasible LPs up to 6 columns and 12 rows with fractional tau entries,
    # some of which take 15 pivots or more: the integer rows must stay exact
    # while common factors build up and are divided out over many pivots
    rng = random.Random(5)
    zero, one = tau(0, 0), tau(1, 0)

    def scalar(low=-4):
        return tau(Q(rng.randint(low, 4), rng.randint(1, 3)),
                   Q(rng.randint(low, 4), rng.randint(1, 3)))

    pivots = []
    real = feasibility._IntRows.pivot

    def counted(self, r, c):
        pivots[-1] += 1
        return real(self, r, c)

    monkeypatch.setattr(feasibility._IntRows, "pivot", counted)
    for _ in range(30):
        n = rng.randint(4, 6)
        m = rng.randint(n + 4, 12)
        # every row holds at a nonnegative point x0, with a slack >= 0
        x0 = [scalar(0) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [scalar() for _ in range(n)]
            rhs = sum((c * x for c, x in zip(coeffs, x0)), zero) + scalar(0)
            rows.append((coeffs, rhs))
        objective = [scalar() for _ in range(n)]
        pivots.append(0)
        got = lp_solve(n, objective, rows, zero, one)
        assert got == lp_max_reference(n, objective, rows, zero, one), rows
    assert max(pivots) >= 15


def test_lp_max_tied_ratio():
    # max x s.t. x <= 1 twice and 2x <= 2: all three ratios tie at 1, and
    # Bland's rule leaves on the row whose basic column is smallest
    rows = [((ONE,), ONE), ((ONE,), ONE), ((Q(2),), Q(2))]
    got = lp_solve(1, [ONE], rows, ZERO, ONE)
    assert got == lp_max_reference(1, [ONE], rows, ZERO, ONE)
    assert got == ("optimal", [ONE], [ONE, ZERO, ZERO], ONE)


def test_lp_max_infeasible_duals_certify():
    # x >= 2 and x <= 1: the phase-1 duals combine the rows into 0 <= -1
    rows = [((Q(-1),), Q(-2)), ((ONE,), ONE)]
    status, x, duals, opt = lp_solve(1, [ONE], rows, ZERO, ONE)
    assert (status, x, opt) == ("infeasible", None, None)
    assert all(sgn(y) >= 0 for y in duals)
    assert sgn(sum((y * a[0] for y, (a, _) in zip(duals, rows)), ZERO)) >= 0
    assert sgn(sum((y * b for y, (_, b) in zip(duals, rows)), ZERO)) < 0


# region_status's verdicts as the statuses of the LinearSystem oracles
AS_SOLVED = {"NonEmpty": "Feasible", "Empty": "Infeasible",
             "Degenerate": "Degenerate"}


def test_solve_matches_reference_on_h3_regions(h3_poset, monkeypatch):
    # the region LP, assembled from the root rows, against solve on the
    # system's scalar rows over the dense reference simplex
    monkeypatch.setattr(helpers, "lp_solve", lp_max_reference)
    rs = h3_poset.system
    for a in h3_poset.antichains():
        v = region_status(h3_poset, a)
        ref = solve(region_system(h3_poset, a)[0], rs.zero, rs.one)
        assert (AS_SOLVED[v.status], v.witness) == (ref.status, ref.witness), a


@pytest.mark.parametrize("group", sorted(REGION_SPECS))
def test_region_tableau_matches_generic_assembly(group):
    # written from the root rows, the region and order-certificate LPs'
    # tableaux hold the rows, columns and basis that tableau builds from
    # their scalar rows, and the order certificates equal the generic path's;
    # Approx has no integer rows and no order certificate
    def entries(tab):
        return [[x.v for x in row] if isinstance(row[0], Approx) else row
                for row in tab.rows]

    def same(got, want, a):
        assert type(got) is type(want), a
        assert ((got.n, got.m, got.total, got.arts, got.basis)
                == (want.n, want.m, want.total, want.arts, want.basis)), a
        assert entries(got) == entries(want), a

    orders = 0
    for spec in REGION_SPECS[group]:
        p = RootPoset(build(spec))
        rs = p.system
        for a in p.antichains():
            sys, icmax = region_system(p, a)
            same(feasibility._region_tableau(p, a, icmax),
                 tableau(*slack_lp(sys, rs.zero, rs.one), rs.zero, rs.one), a)
            cert = feasibility.order_certificate(p, a, icmax)
            if p.rows is None:
                assert cert is None, a
            elif a and icmax:
                same(feasibility._order_tableau(p, a, icmax),
                     tableau(*order_lp(p, a, icmax), rs.zero, rs.one), a)
                assert cert == order_certificate_generic(p, a, icmax), a
            orders += bool(a and icmax)
    assert orders


@pytest.mark.parametrize("group", sorted(REGION_SPECS))
def test_solve_matches_solve_reference(group):
    # the region LP in chamber coordinates against the free-variable LP;
    # every empty region carries an order certificate that re-checks
    infeasible = 0
    for spec in REGION_SPECS[group]:
        p = RootPoset(build(spec))
        rs = p.system
        for a in p.antichains():
            sys, _ = region_system(p, a)
            v = region_status(p, a)
            ref = solve_reference(sys, rs.zero, rs.one)
            assert ((AS_SOLVED[v.status], v.witness)
                    == (ref.status, ref.witness)), a
            if v.status == "Empty":
                assert isinstance(v.certificate, OrderCertificate), a
                assert check_order_certificate(p, v.certificate), a
                infeasible += 1
    assert infeasible == (16 if group == "H4" else 0)


def test_solve_feasible_interval():
    sys = LinearSystem(1, strict_ge=[((ONE,), ZERO)], strict_le=[((ONE,), ONE)])
    res = solve(sys, ZERO, ONE)
    assert res.status == "Feasible"
    x = res.witness[0]
    assert sgn(x) > 0 and sgn(ONE - x) > 0


def test_solve_infeasible_with_certificate():
    sys = LinearSystem(1, strict_ge=[((ONE,), ZERO)], strict_le=[((ONE,), ZERO)])
    res = solve(sys, ZERO, ONE)
    assert res.status == "Infeasible"
    assert check_farkas(sys, res.certificate, ZERO)


def test_solve_inconsistent_equalities():
    # equalities live only in the oracle; solve rejects them
    sys = LinearSystem(1, equalities=[((ONE,), ZERO), ((ONE,), ONE)])
    res = solve_reference(sys, ZERO, ONE)
    assert res.status == "Infeasible"
    assert check_farkas(sys, res.certificate, ZERO)


def test_solve_weakly_feasible_only():
    # x >= 0 and x <= 0 admit only the boundary point, so the open system fails
    sys = LinearSystem(
        1, equalities=[((ONE,), ZERO)], strict_ge=[((ONE,), ZERO)])
    res = solve_reference(sys, ZERO, ONE)
    assert res.status == "Infeasible"


def test_solve_rejects_equalities_and_missing_chamber_rows():
    chamber = _chamber_rows(2, ZERO, ONE)
    with pytest.raises(ValueError):
        solve(LinearSystem(2, equalities=[((ONE, ONE), ONE)],
                           strict_ge=chamber), ZERO, ONE)
    # without v_2 > 0 the LP's own v >= 0 would be an extra constraint
    with pytest.raises(ValueError):
        solve(LinearSystem(2, strict_ge=chamber[:1],
                           strict_le=[((ONE, ONE), ONE)]), ZERO, ONE)


def test_scale_coherence():
    rng = random.Random(3)
    chamber = _chamber_rows(2, ZERO, ONE)
    for _ in range(50):
        a = (Q(rng.randint(-5, 5)), Q(rng.randint(-5, 5)))
        b = Q(rng.randint(-3, 3))
        sys1 = LinearSystem(2, strict_ge=[(a, b)] + chamber,
                            strict_le=[((ONE, ONE), Q(4))])
        sys2 = LinearSystem(
            2, strict_ge=[(tuple(2 * x for x in a), 2 * b)] + chamber,
            strict_le=[((Q(2), Q(2)), Q(8))])
        assert solve(sys1, ZERO, ONE).status == solve(sys2, ZERO, ONE).status


# x > 0 and x < 0 is refuted by ge = le = [1]; 0 < x < 1 is feasible
EMPTY_INTERVAL = LinearSystem(
    1, strict_ge=[((ONE,), ZERO)], strict_le=[((ONE,), ZERO)])
UNIT_INTERVAL = LinearSystem(
    1, strict_ge=[((ONE,), ZERO)], strict_le=[((ONE,), ONE)])


BOGUS_FARKAS = [
    # the same multipliers leave 0 > 0 - 1 on the unit interval: the le
    # constant counts against the combination
    (UNIT_INTERVAL, [ONE], [ONE]),
    (EMPTY_INTERVAL, [ONE], [Q(2)]),    # x - 2x does not cancel
    (EMPTY_INTERVAL, [-ONE], [-ONE]),   # negative multipliers
    (EMPTY_INTERVAL, [ZERO], [ZERO]),   # refutes nothing
]


def test_check_farkas_rejects_bogus():
    assert check_farkas(EMPTY_INTERVAL, {"ge": [ONE], "le": [ONE], "eq": []},
                        ZERO)
    for sys, ge, le in BOGUS_FARKAS:
        with pytest.raises(AssertionError):
            check_farkas(sys, {"ge": ge, "le": le, "eq": []}, ZERO)


def test_int_c_pair_equivalence_h3(h3_poset):
    # a two-root set meets the chamber wall system exactly when incomparable
    p = h3_poset
    for i in range(p.size):
        for j in range(i + 1, p.size):
            res = int_c(p, (i, j))
            assert (res.status == "Feasible") == (not p.comparable(i, j))


def test_int_c_simple_roots_h3(h3_poset):
    rs = h3_poset.system
    minimal = RootPosetReference(rs).minimals(range(h3_poset.size))
    res = int_c(h3_poset, minimal)
    assert res.status == "Feasible"
    for i in minimal:
        assert is_zero(evaluate(res.witness, rs.positives[i]) - rs.one)
    with pytest.raises(EmptyAntichain):
        int_c(h3_poset, ())


def _assert_int_c_sound(poset, antichain, res):
    """A witness lies in Int_C exactly; a certificate re-checks."""
    rs = poset.system
    if res.status == "Feasible":
        assert all(sgn(x) > 0 for x in res.witness), antichain
        for i in antichain:
            assert is_zero(evaluate(res.witness, rs.positives[i]) - rs.one)
    elif res.status == "Infeasible":
        assert certified(poset, res.certificate, antichain,
                         antichain) is res.certificate


def _int_c_posets(label):
    if label.startswith("sweep"):
        m = int(label[len("sweep"):])
        return [RootPoset(build(SystemSpec("I2", m, r)))
                for _, r in default_ratio_grid(m)]
    return [RootPoset(build(parse_spec(label)))]


@pytest.mark.parametrize("label", ["H3", "H4", "I2:5", "I2:7", "I2:8:r=1.3",
                                   "I2:30", "sweep6", "sweep12"])
def test_int_c_matches_lp_oracle(label):
    # I2(7), I2(8) at r = 1.3, I2(30) and the I2(12) sweep run on Approx
    statuses = Counter()
    for p in _int_c_posets(label):
        for a in p.antichains():
            if not a:
                continue
            res = int_c(p, a)
            assert res.status == int_c_lp(p, a).status, (label, a)
            _assert_int_c_sound(p, a, res)
            statuses[res.status] += 1
    assert statuses["Feasible"]
    if label == "H4":
        assert statuses["Infeasible"] == 16


# sha256 of int_c's status and witness alone, through scalar_to_json, on
# every nonempty antichain of each REGION_SPECS group: a change to the form
# of the certificates leaves it as it is
INT_C_VALUES_SHA256 = {
    "H3":
        "2ec93e2e0456bf12c3884825f68f60bc42a4923ac6b750ef08201fd633b46690",
    "H4":
        "34ed98a42b458487474205001bb8493d33684b5c949cd06b97aaa977fde76b66",
    "I2:100":
        "12c8c669ce1c1aea71566d13eca78634f26d3e150f1d183ef661a17adac12a93",
    "I2:2-40":
        "eb039457221ff39baf7265762a0a3461f9244cb6d73ecc3c8dca759288c804f0",
    "approx":
        "813ec7ec5cbfa00013d6ea42bac754d8402a9493a5251d9e9b4bfca9b815ccf5",
    "sweep12":
        "06688921bcfa47035ff8fdf3087ecc22520a1283e74194d4d229dcfde3c91532",
    "sweep6":
        "f4b478d5d2a4137a8992ae705de50dac0ba7aa086df3b9315004854bf375a0d6",
}

# sha256 of int_c's status, witness and certificate, through
# scalar_to_json, on every nonempty antichain of each REGION_SPECS group
INT_C_SHA256 = {
    "H3":
        "8c33caa6983e2a0fd604e7b03d4095aa557b53a650babf8f6b28c90c9cee263a",
    "H4":
        "34ffb74dc41e6efc5e533fd4ec0a8e2a018d7e99ffb470d41bb42fcae322d603",
    "I2:100":
        "75b5257abf9ade878647d562c5238e56769ff93f158e412552f467808bbccaeb",
    "I2:2-40":
        "ed7f4f0f612a9d31f4c9057abd9d39adf8bd07937d4424c64045b153cd49bfaf",
    "approx":
        "cd6c45b805d4bb121df93bc5977e94ba6a1cc6cc5b051b01c9f78d298e414011",
    "sweep12":
        "3afcf49a2d575420fb7588c5aef5178e8efce3597f594d1f384fca10032df292",
    "sweep6":
        "bbe635630c6569a16d1fe136044ed20a963a9f0793d94a975d06f7c59a082855",
}


@pytest.mark.parametrize("group", sorted(REGION_SPECS))
def test_int_c_certifies_only_on_refutation(group):
    # a result carries an order certificate exactly when it refutes, only
    # H4 has refutations, and every status, witness and certificate stays
    # pinned
    refuted = 0
    digest, values = hashlib.sha256(), hashlib.sha256()
    for spec in REGION_SPECS[group]:
        p = RootPoset(build(spec))
        antichains = p.antichains()[1:]
        for a, res in zip(antichains, int_c_digest(p, antichains, digest)):
            assert (res.certificate is None) == (res.status != "Infeasible"), a
            if res.certificate is not None:
                assert certified(p, res.certificate, a, a) is res.certificate
                refuted += 1
            witness = res.witness and [scalar_to_json(x) for x in res.witness]
            values.update(json.dumps([res.status, witness]).encode())
    assert refuted == (16 if group == "H4" else 0)
    assert values.hexdigest() == INT_C_VALUES_SHA256[group]
    assert digest.hexdigest() == INT_C_SHA256[group]


# sha256 of int_c's status and the bits (x.v._mpf_) of its witness on every
# nonempty antichain of each REGION_SPECS group's Approx systems; groups
# with no Approx system are left out
INT_C_APPROX_SHA256 = {
    "I2:100":
        "72a520b7d4edf1b65d2cc3b2c52bfff4fb3c99e2d021eac74e58ae99c82ad204",
    "I2:2-40":
        "8f59383d471d15ac3cac0fdcf9368589a3e5938d9e3512983e8dfa831f31d8e2",
    "approx":
        "1e0bc5448f147e3577edbad11c5c443726d33d3fa8102c2dd7179ceb53dc71a7",
    "sweep12":
        "0653b02d7943d060c291edb030706a7e4790ccdbaf4901ea5bd917a55a56f7dd",
}


@pytest.mark.parametrize("group", sorted(INT_C_APPROX_SHA256))
def test_int_c_approx_witness_bits_pinned(group):
    # scalar_to_json rounds to 40 digits; this pin holds every bit
    digest = hashlib.sha256()
    for spec in REGION_SPECS[group]:
        p = RootPoset(build(spec))
        if p.rows is not None:
            continue
        for a in p.antichains()[1:]:
            res = int_c(p, a)
            witness = res.witness and [tuple(map(int, x.v._mpf_))
                                       for x in res.witness]
            digest.update(repr((res.status, witness)).encode())
    assert digest.hexdigest() == INT_C_APPROX_SHA256[group]


def test_int_c_builds_one_tableau_per_call(h4_poset, monkeypatch):
    # one elimination decides and certifies: no call, refutation or not,
    # writes a second tableau
    built = []
    storage = feasibility._storage
    monkeypatch.setattr(feasibility, "_storage",
                        lambda *args: built.append(args) or storage(*args))
    statuses = Counter()
    for a in h4_poset.antichains()[1:]:
        built.clear()
        statuses[int_c(h4_poset, a).status] += 1
        assert len(built) == 1, a
    assert statuses["Infeasible"] == 16


@pytest.mark.parametrize("label", ["I2:7", "I2:12:r=sin(1)/sin(4)"])
def test_int_c_near_ties_on_approx(label):
    # every root set up to the rank; a pair whose difference is a multiple
    # of a simple root meets level one only on a chamber wall, which the
    # Approx backend reports as Degenerate instead of guessing a sign
    p = RootPoset(build(parse_spec(label)))
    statuses = Counter()
    for size in range(1, p.system.rank + 1):
        for a in combinations(range(p.size), size):
            res = int_c(p, a)
            assert res.status == int_c_lp(p, a).status, a
            _assert_int_c_sound(p, a, res)
            statuses[res.status] += 1
    assert min(statuses[s] for s in ("Feasible", "Infeasible", "Degenerate"))


@pytest.mark.parametrize("label,size,sample", [
    ("H3", 4, 120), ("I2:6", 3, 20), ("I2:8:r=1.3", 3, 30)])
def test_int_c_rank_deficient(label, size, sample):
    # rank + 1 roots are dependent: the LP refutes every such set, by the
    # equalities alone when [B | 1] has the larger rank or, for a
    # consistent dependency, with chamber rows
    p = RootPoset(build(parse_spec(label)))
    rs = p.system
    subsets = random.Random(31).sample(
        list(combinations(range(p.size), size)), sample)
    branches = Counter()
    for a in subsets:
        res = int_c(p, a)
        assert res.status == int_c_lp(p, a).status == "Infeasible", a
        _assert_int_c_sound(p, a, res)
        b = [rs.positives[i].coeffs for i in a]
        branches[exact_rank([(*r, rs.one) for r in b], rs.zero)
                 > exact_rank(b, rs.zero)] += 1
    assert branches[True]
    if label == "H3":
        assert branches[False]


def test_region_status_empty_antichain(h3_poset):
    v = region_status(h3_poset, ())
    assert v.status == "NonEmpty"
    rs = h3_poset.system
    for r in rs.positives:
        assert sgn(rs.one - evaluate(v.witness, r)) > 0


def test_region_witness_sign_type(h3_report, h3_poset):
    for v in h3_report.verdicts:
        if v.status == "NonEmpty":
            assert witness_sign_type(h3_poset, v.witness) == \
                h3_poset.ideal(v.antichain)


@pytest.mark.parametrize("point", ["origin", "negative", "wall", "zero v_1"])
def test_witness_sign_type_rejects_points_off_the_region(h3_poset, point):
    # each point has (v|beta) <= 1 on every root, like the empty antichain's
    # region, but lies outside that open region
    rs = h3_poset.system
    top = rs.positives[-1].coeffs   # the highest root
    small = rs.one / 100
    v = {"origin": (rs.zero,) * 3,
         "negative": (-rs.one,) * 3,
         "wall": (rs.one / sum(top, rs.zero),) * 3,
         "zero v_1": (rs.zero, small, small)}[point]
    assert all(sgn(evaluate(v, r) - rs.one) <= 0 for r in rs.positives)
    assert witness_sign_type(h3_poset, v) is None
    assert witness_sign_type_reference(h3_poset, v) is None
    assert region_status(h3_poset, ()).witness is not None


@pytest.mark.parametrize("group", sorted(REGION_SPECS))
def test_witness_sign_type_matches_reference(group):
    # every census witness reads back its ideal: on the integer rows of an
    # exact field, on scalars for Approx, and on the reference's scalars
    for spec in REGION_SPECS[group]:
        p = RootPoset(build(spec))
        for v in classify_all(p).verdicts:
            if v.status == "NonEmpty":
                assert (witness_sign_type(p, v.witness)
                        == witness_sign_type_reference(p, v.witness)
                        == p.ideal(v.antichain)), (spec, v.antichain)


@pytest.mark.parametrize("label",
                         ["H3", "I2:4:r=0.3", "I2:6:r=1/7", "I2:3", "I2:7"])
def test_witness_sign_type_matches_reference_on_mixed_points(label):
    # points whose entries mix ints, Fractions and field elements over
    # different denominators, some off the chamber, and the same points
    # scaled onto a wall (v|beta) = 1
    p = RootPoset(build(parse_spec(label)))
    rs = p.system
    make = {"tau": tau, "sqrt2": sqrt2, "sqrt3": sqrt3,
            "approx": lambda a, b: Approx(a + b)}.get(rs.field)
    rng = random.Random(label)

    def entry():
        r = Q(rng.randint(-2, 12), rng.randint(1, 12))
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-1, 2)
        if kind == 1 or make is None:
            return r
        return make(r, Q(rng.randint(-6, 6), rng.randint(1, 12)))

    seen = Counter()
    for _ in range(300):
        v = tuple(entry() for _ in range(rs.rank))
        on_wall = evaluate(v, rng.choice(rs.positives))
        points = [v]
        if sgn(on_wall) > 0:
            points.append(tuple(x / on_wall for x in v))
        for w in points:
            got = witness_sign_type(p, w)
            assert got == witness_sign_type_reference(p, w), w
            seen[got if got is None else len(got)] += 1
    # both verdicts occur, and sign types of several sizes
    assert seen[None] and len(seen) >= 4, seen


def test_witness_sign_type_rejects_wrong_length_and_foreign_fields(h3_poset):
    one = h3_poset.system.one
    for read_back in (witness_sign_type, witness_sign_type_reference):
        with pytest.raises(ValueError):
            read_back(h3_poset, (one, one))
        for foreign in (sqrt2(1, 1), Approx(2)):
            with pytest.raises(TagMismatch):
                read_back(h3_poset, (one, foreign, one))


def test_bounded_h3(h3_poset):
    p = h3_poset
    simples = set(RootPosetReference(p.system).minimals(range(p.size)))
    for a in p.antichains():
        # bounded exactly when the antichain avoids the minimal (simple) roots
        assert bounded(p, a) == (not set(a) & simples)
    # the ideal mask is looked up, and a chain or a repeated root misses
    chain = next((i, j) for i in range(p.size) for j in range(p.size)
                 if i != j and p.leq(i, j))
    for bad in (chain, (0, 0)):
        with pytest.raises(NotAntichain):
            bounded(p, bad)
        with pytest.raises(NotAntichain):
            region_system(p, bad)


@pytest.mark.parametrize("label,via_region_status", [
    ("H3", False), ("H4", False), ("I2:6", False), ("I2:7", False),
    ("I2:8", False), ("I2:6:r=1/7", False), ("I2:4:r=0.3", False),
    ("I2:12:r=sin(1)/sin(4)", False), ("H3", True)])
def test_bounded_matches_recession_lp(label, via_region_status):
    # I2(7) and I2(8) run on the Approx backend; the via_region_status case
    # checks the flag region_status sets on each nonempty verdict.  The three
    # non-unit ratios (in sqrt(3), sqrt(2) and Approx) have bounded regions
    # whose antichain holds a simple root, so boundedness must read the
    # coefficient supports, not the antichain alone
    p = RootPoset(build(parse_spec(label)))
    ref = RootPosetReference(p.system)
    for a in p.antichains():
        if via_region_status:
            verdict = region_status(p, a)
            if verdict.status != "NonEmpty":
                assert verdict.bounded is None, a
                continue
            got = verdict.bounded
        else:
            got = bounded(p, a)
        assert got == bounded_lp(ref, a), a


def test_order_certificates_on_h4_empties(h4_report, h4_poset):
    empties = [v for v in h4_report.verdicts if v.status == "Empty"]
    assert len(empties) == 16
    for v in empties:
        assert isinstance(v.certificate, OrderCertificate)
        assert check_order_certificate(h4_poset, v.certificate)


def test_region_status_raises_without_order_certificate(h4_report, h4_poset,
                                                        monkeypatch):
    # the order certificate is an empty region's only certificate: without
    # one, each of the 16 H4 empties raises, naming its antichain
    monkeypatch.setattr(feasibility, "order_certificate", lambda *args: None)
    empties = [v.antichain for v in h4_report.verdicts if v.status == "Empty"]
    assert len(empties) == 16
    for a in empties:
        with pytest.raises(AssertionError, match=re.escape(str(a))):
            region_status(h4_poset, a)


def test_region_status_rechecks_order_certificate(h4_report, h4_poset,
                                                  monkeypatch):
    empty = next(v.antichain for v in h4_report.verdicts if v.status == "Empty")
    one, top = h4_poset.system.one, h4_poset.size - 1
    beta = next(i for i in range(top) if i not in empty)
    # a true comparison beta < top, the highest root, whose beta lies
    # outside the antichain: it passes the checker but refutes nothing
    below = OrderCertificate(lower=[(beta, one)], upper=[(top, one)])
    assert h4_poset.leq(beta, top) and check_order_certificate(h4_poset, below)
    # and two distinct minimal roots: neither dominates the other
    for bogus in (OrderCertificate(lower=[(0, one)], upper=[(1, one)]), below):
        monkeypatch.setattr(feasibility, "order_certificate",
                            lambda *args: bogus)
        with pytest.raises(AssertionError, match=re.escape(str(empty))):
            region_status(h4_poset, empty)


def test_order_certificate_members_come_from_region(h4_report, h4_poset):
    for v in h4_report.verdicts:
        if v.status != "Empty":
            continue
        _, icmax = region_system(h4_poset, v.antichain)
        assert {i for i, _ in v.certificate.lower} <= set(v.antichain)
        assert {i for i, _ in v.certificate.upper} <= set(icmax)


def test_h4_empty_regions_compare_int_c_failures(h4_report, h4_poset):
    # the paper's criterion: the comparison that empties each region lies
    # on an antichain where Int_C fails, and read as that antichain's Int_C
    # refutation, lower below upper, it passes int_c's own check; the 16
    # empties share only 2 antichains with the 16 failures, and their
    # certificates cover 12 of the failures
    bad = set(h4_report.bijection_bad_witnesses)
    assert len(bad) == 16
    supports = []
    for v in h4_report.verdicts:
        if v.status != "Empty":
            continue
        cert = v.certificate
        support = tuple(sorted(i for i, _ in cert.lower + cert.upper))
        assert support in bad, v.antichain
        assert certified(h4_poset, cert, support, support) is cert
        supports.append(support)
    assert len(supports) == 16 and len(set(supports)) == 12
    assert len(bad & {v.antichain for v in h4_report.verdicts
                      if v.status == "Empty"}) == 2


def test_certified_needs_a_comparison_between_parts(h4_poset):
    # int_c's refutations compare disjoint parts of their antichain; the
    # same weights reversed, over roots outside the given parts, or with a
    # root on both sides raise, naming the antichain
    p, zero = h4_poset, h4_poset.system.zero
    refutations = [(a, res.certificate) for a in p.antichains()[1:]
                   for res in [int_c(p, a)] if res.status == "Infeasible"]
    assert len(refutations) == 16
    for a, cert in refutations:
        assert certified(p, cert, a, a) is cert
        lower = tuple(i for i, _ in cert.lower)
        upper = tuple(i for i, _ in cert.upper)
        both = OrderCertificate(cert.lower + [(upper[0], zero)], cert.upper)
        assert check_order_certificate(p, both)
        for bogus, parts, up in ((OrderCertificate(cert.upper, cert.lower),
                                  a, a),
                                 (cert, upper, a), (cert, a, lower),
                                 (both, a, a)):
            with pytest.raises(AssertionError, match=re.escape(str(parts))):
                certified(p, bogus, parts, up)


def test_order_certificate_none_on_nonempty_regions(h3_poset):
    # a convex comparison refutes its region, so a nonempty one has none
    p = h3_poset
    for a in p.antichains():
        _, icmax = region_system(p, a)
        assert feasibility.order_certificate(p, a, icmax) is None, a
    # one root on both sides compares equal, never strictly
    assert feasibility.order_certificate(p, (0,), (0,)) is None


# (lower, upper) weights on H3 roots given by their simple coordinates
BOGUS_ORDER = [
    # distinct simple roots: neither dominates the other
    ([((0, 1, 0), ONE)], [((1, 0, 0), ONE)]),
    # equal sums: the comparison must be strict somewhere
    ([((0, 1, 1), ONE)], [((0, 1, 1), ONE)]),
    # a weight of -1/10, with both sums 1 and a nonnegative difference
    ([((0, 1, 0), Q(11, 10)), ((0, 1, 1), Q(-1, 10))], [((0, 1, 1), ONE)]),
    # lower weights summing to 1 - 1/10
    ([((0, 1, 0), Q(9, 10))], [((0, 1, 1), ONE)]),
]


def test_check_order_certificate_rejects_bogus(h3_poset):
    p = h3_poset

    def root(coeffs):
        return next(r.index for r in p.system.positives if r.coeffs == coeffs)

    # alpha_2 < alpha_2 + alpha_3 is a valid comparison, with or without a
    # zero weight on a further root
    for extra in ([], [(root((1, 0, 0)), ZERO)]):
        assert check_order_certificate(p, OrderCertificate(
            lower=[(root((0, 1, 0)), ONE)] + extra,
            upper=[(root((0, 1, 1)), ONE)]))
    for lower, upper in BOGUS_ORDER:
        cert = OrderCertificate(lower=[(root(c), w) for c, w in lower],
                                upper=[(root(c), w) for c, w in upper])
        assert not check_order_certificate(p, cert), (lower, upper)


def test_nonempty_h4_witnesses_verify(h4_report, h4_poset):
    rs = h4_poset.system
    for v in h4_report.verdicts:
        if v.status != "NonEmpty":
            continue
        ideal = h4_poset.ideal(v.antichain)
        for i, r in enumerate(rs.positives):
            val = evaluate(v.witness, r)
            assert sgn(val - rs.one) == (1 if i in ideal else -1)
        assert all(sgn(x) > 0 for x in v.witness)
