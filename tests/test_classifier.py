import json
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from catalanregions.classifier import (
    bijection_criterion,
    catalan_numbers,
    classify_all,
    classify_maximal,
    classify_system,
    default_ratio_grid,
    sign_type_consistency,
    sweep_ratio,
)
from catalanregions import (classifier, cli, exactfield, feasibility,
                            rootposet)
from catalanregions.exactfield import (Approx, is_zero, scalar_to_json, sgn,
                                        sorted_runs)
from catalanregions.feasibility import (
    FeasibilityResult,
    region_status,
    witness_sign_type,
)
from catalanregions.rootposet import RootPoset
from catalanregions.rootsystem import (
    MAX_DIHEDRAL_M,
    OddRatioNotOne,
    SystemSpec,
    build,
    evaluate,
    parse_spec,
)
from helpers import REFERENCE, REGION_SPECS, bijection_lp, exact_rank


def test_catalan_numbers():
    h3 = catalan_numbers("H3")
    assert (h3.cat, h3.cat_positive) == (32, 21)
    h4 = catalan_numbers("H4")
    assert (h4.cat, h4.cat_positive) == (280, 232)
    for m in range(2, 13):
        c = catalan_numbers("I2", m)
        assert (c.cat, c.cat_positive) == (m + 2, m - 1)
    with pytest.raises(ValueError):
        catalan_numbers("I2")
    with pytest.raises(ValueError):
        catalan_numbers("B2")
    # a row without a parameter takes no m
    with pytest.raises(ValueError):
        catalan_numbers("H3", 5)
    with pytest.raises(ValueError):
        build(SystemSpec("H3", 5))


def test_h3_report(h3_report):
    r = h3_report
    assert r.antichain_total == 41
    assert r.by_size == {0: 1, 1: 15, 2: 21, 3: 4}
    assert r.maximal_total == 16 and r.good_count == 16 and r.bad_count == 0
    assert r.region_count == 41 and r.bounded_count == 29
    assert not r.empty_list and r.bijection_holds
    assert r.propagated_nonempty == 41 and r.lp_resolved == 0
    assert not r.degenerate_flags


def test_h4_report(h4_report):
    r = h4_report
    assert r.antichain_total == 429
    assert r.by_size == {0: 1, 1: 60, 2: 206, 3: 142, 4: 20}
    assert r.maximal_total == 152
    assert r.good_count == 139 and r.bad_count == 13
    assert r.propagated_nonempty == 401 and r.lp_resolved == 28
    assert r.region_count == 413 and r.bounded_count == 355
    assert len(r.empty_list) == 16
    assert dict(Counter(len(a) for a in r.empty_list)) == {1: 1, 2: 11, 3: 4}
    assert not r.bijection_holds
    assert not r.degenerate_flags


def test_h4_maximal_split_by_size(h4_report):
    by_size = Counter()
    for v in h4_report.maximal_verdicts:
        by_size[(len(v.antichain), v.good)] += 1
    assert by_size[(4, True)] == 12 and by_size[(4, False)] == 8
    assert by_size[(3, True)] == 74 and by_size[(3, False)] == 5
    assert by_size[(2, False)] == 0 and by_size[(1, False)] == 0


def test_region_count_identity(h3_report, h4_report):
    for r in (h3_report, h4_report):
        assert r.region_count == r.antichain_total - len(r.empty_list)
        unbounded = sum(1 for v in r.verdicts
                        if v.status == "NonEmpty" and not v.bounded)
        assert r.bounded_count + unbounded == r.region_count


def test_propagation_soundness(h4_report):
    rng = random.Random(42)
    propagated = [v for v in h4_report.verdicts if v.method == "Propagated"]
    assert len(propagated) == 401
    for v in rng.sample(propagated, 100):
        assert v.status == "NonEmpty"


PROPAGATED = {"H3": 41, "H4": 401, "I2:100": 151, "I2:2-40": 1258,
              "approx": 30, "sweep12": 996, "sweep6": 134}


@pytest.mark.parametrize("group", sorted(REGION_SPECS))
def test_propagated_verdicts_match_region_lp(group):
    # propagation decides these regions without an LP; the LP is the oracle
    seen = 0
    for spec in REGION_SPECS[group]:
        p = RootPoset(build(spec))
        for v in classify_all(p).verdicts:
            if v.method != "Propagated":
                continue
            ref = region_status(p, v.antichain)
            assert ref.status == "NonEmpty", v.antichain
            assert ([scalar_to_json(x) for x in v.witness]
                    == [scalar_to_json(x) for x in ref.witness]), v.antichain
            assert v.bounded is ref.bounded, v.antichain
            assert witness_sign_type(p, v.witness) == p.ideal(v.antichain)
            seen += 1
    assert seen == PROPAGATED[group]


def test_lp_count_only_read_witnesses_solve(monkeypatch):
    calls = []
    real = feasibility.lp_max

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(feasibility, "lp_max", counted)
    sweep_ratio(6)
    assert len(calls) == 0
    # the classifier imports int_c by name, so count it there
    int_c_calls = []
    real_int_c = classifier.int_c
    monkeypatch.setattr(classifier, "int_c",
                        lambda p, a: int_c_calls.append(a) or real_int_c(p, a))
    report = classify_system(parse_spec("H4"))
    assert len(calls) == 44  # 28 region LPs and 16 order certificates
    # 152 maximal antichains, then the 29 that no good one contains
    assert int_c_calls[:152] == [v.antichain for v in report.maximal_verdicts]
    assert len(int_c_calls) == len(set(int_c_calls)) == 181
    cli.report_to_json(report)
    assert len(calls) == 445  # plus the 401 propagated witnesses
    # a witness, once read, is held
    assert sum(v.witness is not None for v in report.verdicts) == 413
    cli.report_to_json(report)
    assert len(calls) == 445


def test_h4_census_builds_no_unread_certificate(monkeypatch):
    # the region and order-certificate LPs' tableaux come from the root
    # order's integer rows, so int_row runs only in RootPoset.__init__, and
    # every negative verdict carries an order certificate, checked once and
    # never as a Farkas certificate
    calls, depth = Counter(), Counter()

    def enters(key, real):
        def run(*args, **kwargs):
            depth[key] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[key] -= 1
        return run

    def counts(key, real):
        def run(*args, **kwargs):
            calls[key] += 1
            if depth["int_c"]:
                calls[f"{key} in int_c"] += 1
            if key == "int_row" and not depth["init"]:
                calls["int_row elsewhere"] += 1
            return real(*args, **kwargs)
        return run

    int_c = enters("int_c", feasibility.int_c)
    monkeypatch.setattr(feasibility, "int_c", int_c)
    monkeypatch.setattr(classifier, "int_c", int_c)
    monkeypatch.setattr(RootPoset, "__init__",
                        enters("init", RootPoset.__init__))
    for name in ("lp_max", "check_farkas", "check_order_certificate"):
        monkeypatch.setattr(feasibility, name,
                            counts(name, getattr(feasibility, name)))
    int_row = counts("int_row", exactfield.int_row)
    for module in (exactfield, feasibility, rootposet):
        monkeypatch.setattr(module, "int_row", int_row)
    cli.report_to_json(classify_system(parse_spec("H4")))
    assert calls["lp_max"] == 445
    assert calls["check_farkas"] == 0
    # one check for each of the 16 int_c refutations and the 16 empty regions
    assert calls["check_order_certificate in int_c"] == 16
    assert calls["check_order_certificate"] == 32
    assert calls["int_row"] and calls["int_row elsewhere"] == 0


def test_refuted_propagated_witness_raises(h4_poset, monkeypatch):
    report = classify_all(h4_poset)
    pairs = [v for v in report.verdicts
             if v.method == "Propagated" and len(v.antichain) == 2]
    target, other = pairs[0], pairs[1]
    # the target's region LP finds no positive margin; a Degenerate verdict
    # needs no certificate, so reading the witness reaches the disagreement
    region_lp = feasibility._region_lp

    def refute_one(poset, antichain, icmax):
        if antichain == target.antichain:
            return FeasibilityResult("Degenerate")
        return region_lp(poset, antichain, icmax)

    monkeypatch.setattr(feasibility, "_region_lp", refute_one)
    with pytest.raises(AssertionError, match=re.escape(str(target.antichain))):
        target.witness
    assert witness_sign_type(h4_poset, other.witness) == \
        h4_poset.ideal(other.antichain)
    lp = next(v for v in report.verdicts
              if v.method == "LP" and v.status == "NonEmpty")
    assert lp.witness is not None


def test_survivors(h4_report):
    survivors = [v for v in h4_report.verdicts if v.method == "LP"]
    assert len(survivors) == 28
    statuses = Counter(v.status for v in survivors)
    assert statuses == {"Empty": 16, "NonEmpty": 12}


def test_empty_regions_lp_recheck(h4_report, h4_poset):
    for a in h4_report.empty_list:
        assert region_status(h4_poset, a).status == "Empty"


def test_antichain_size_and_independence(h4_poset):
    rs = h4_poset.system
    for a in h4_poset.antichains():
        assert len(a) <= rs.rank
        if a:
            vectors = [rs.positives[i].coeffs for i in a]
            assert exact_rank(vectors, rs.zero) == len(a)


def test_bijection_criterion(h3_poset, h4_poset):
    assert bijection_criterion(h3_poset, classify_maximal(h3_poset))["holds"]
    crit = bijection_criterion(h4_poset, classify_maximal(h4_poset))
    assert not crit["holds"]
    assert len(crit["bad_witnesses"]) >= 13
    sizes = Counter(len(a) for a in crit["bad_witnesses"])
    assert dict(sizes) == {3: 8, 4: 8}


@pytest.mark.parametrize("label", ["H3", "I2:5", "I2:6", "I2:7", "I2:8",
                                   "I2:6:r=sin(2)/sin(1)"])
def test_bijection_criterion_matches_full_lp_pass(label):
    p = RootPoset(build(parse_spec(label)))
    crit = bijection_criterion(p, classify_maximal(p))
    bad, degenerate = bijection_lp(p)
    assert crit["bad_witnesses"] == bad
    assert crit["degenerate"] == degenerate
    assert crit["holds"] == (not bad)


def test_bijection_skips_are_witnessed_h4(h4_report, h4_poset):
    # every antichain the criterion skips lies under a good maximal
    # antichain whose Int_C witness also satisfies the skipped equalities
    rs = h4_poset.system
    good = [v for v in h4_report.maximal_verdicts if v.good]
    skipped = 0
    for a in h4_poset.antichains():
        cover = next((v for v in good if set(a) <= set(v.antichain)), None)
        if not a or cover is None:
            continue
        skipped += 1
        w = cover.int_c_witness
        assert all(sgn(x) > 0 for x in w)
        for i in a:
            assert is_zero(evaluate(w, rs.positives[i]) - rs.one)
    # 42 of the 428 nonempty antichains lie under no good maximal antichain
    assert skipped == 428 - 42


def test_bijection_witnesses_cover_bad_maximal(h4_report):
    bad_maximal = {v.antichain for v in h4_report.maximal_verdicts
                   if not v.good}
    witnesses = set(h4_report.bijection_bad_witnesses)
    assert bad_maximal <= witnesses
    # the unit-level witnesses are not the empty-region antichains: a
    # singleton always meets the chamber at level one, yet one singleton
    # region is empty
    assert witnesses != set(h4_report.empty_list)


def test_bijection_includes_nonmaximal_witnesses(h4_report, h4_poset):
    maximal = set(h4_poset.maximal_antichains())
    assert any(a not in maximal for a in h4_report.bijection_bad_witnesses)


def test_sign_type_round_trip(h3_report, h3_poset, h4_report, h4_poset):
    assert sign_type_consistency(h3_poset, h3_report.verdicts)
    assert sign_type_consistency(h4_poset, h4_report.verdicts)
    # a witness read back against another antichain's ideal fails
    first, second = h3_report.verdicts[:2]
    swapped = SimpleNamespace(status="NonEmpty", antichain=first.antichain,
                              witness=second.witness)
    assert not sign_type_consistency(h3_poset, [swapped])


def test_i2_odd_counts():
    for m in (3, 5, 7, 9, 11):
        rep = classify_system(parse_spec(f"I2:{m}"))
        assert rep.region_count == (3 * m + 1) // 2
        assert rep.bounded_count == (3 * m + 1) // 2 - 3
        assert rep.bijection_holds
        assert all(v.good for v in rep.maximal_verdicts)
        assert not rep.degenerate_flags


def test_i2_even_generic_counts():
    for m in (4, 6, 8, 10):
        rep = classify_system(parse_spec(f"I2:{m}"))
        assert rep.region_count == 3 * m // 2 + 1
        assert rep.bounded_count == 3 * m // 2 - 2
        assert rep.bijection_holds
        assert not rep.degenerate_flags


def test_i2_critical_ratios():
    rep = classify_system(parse_spec("I2:6:r=sin(2)/sin(1)"))  # r = sqrt3
    assert rep.field_backend == "sqrt3"
    assert rep.region_count == 8 == catalan_numbers("I2", 6).cat
    rep = classify_system(parse_spec("I2:4:r=sin(1)/sin(2)"))  # r = sin(pi/4)
    assert rep.field_backend == "sqrt2"
    assert rep.region_count == 6 == catalan_numbers("I2", 4).cat


def test_sweep_grid_and_duality():
    rows = sweep_ratio(6)
    by_label = {r["ratio"]: r for r in rows}
    assert by_label["sin(1)/sin(2)"]["region_count"] == 8
    assert by_label["sin(2)/sin(1)"]["region_count"] == 8
    assert by_label["sin(2)/sin(3)"]["region_count"] == 9
    assert by_label["sin(3)/sin(3)"]["region_count"] == 10
    # ratio duality r -> 1/r on every critical grid point
    for k in range(1, 4):
        for l in range(1, 4):
            a = by_label.get(f"sin({k})/sin({l})")
            b = by_label.get(f"sin({l})/sin({k})")
            if a and b:
                assert a["region_count"] == b["region_count"]
                assert a["bounded_count"] == b["bounded_count"]
    # the count falls at four critical ratios and is back at the next midpoint
    assert [r["ratio"] for r in rows if r["count_change"]] == [
        "sin(1)/sin(2)", "midpoint_2", "sin(2)/sin(3)", "midpoint_3",
        "sin(3)/sin(2)", "midpoint_5", "sin(2)/sin(1)", "midpoint_6"]
    with pytest.raises(OddRatioNotOne):
        sweep_ratio(5)
    for m in (0, -4, 1, MAX_DIHEDRAL_M + 2):
        with pytest.raises(ValueError, match="2 <= m"):
            sweep_ratio(m)


def test_sweep_accepts_both_ends_of_its_range(monkeypatch):
    monkeypatch.setattr(classifier, "MAX_DIHEDRAL_M", 4)
    assert [r["ratio"] for r in sweep_ratio(2)] == ["sin(1)/sin(1)",
                                                    "beyond_max"]
    assert len(sweep_ratio(4)) == 6
    with pytest.raises(ValueError, match="2 <= m <= 4"):
        sweep_ratio(6)


def test_default_grid_sorted():
    # strictly increasing in the ratios' own comparison, ties merged
    for m in range(2, 41, 2):
        values = [r for _, r in default_ratio_grid(m)]
        assert sgn(values[0]) > 0
        assert all(sgn(b - a) > 0 for a, b in zip(values, values[1:])), m


@pytest.mark.parametrize("m", [2, 4, 6])
def test_default_grid_exact_up_to_six(m):
    # midpoints and beyond_max stay in the field of the critical ratios
    assert not any(isinstance(r, Approx) for _, r in default_ratio_grid(m))


@pytest.mark.parametrize("m", range(2, 41, 2))
def test_ratio_grid_covers_every_ratio(m):
    """The census of I2(m), m even, is constant between the critical ratios
    of ``default_ratio_grid``, so ``sweep``'s rows hold for every r > 0.

    Take x and y from the roots at r = 1.  At ratio r a root of alpha_1's
    orbit has coefficients (x, y/r) and one of alpha_2's (x*r, y): the
    orbits scale uniformly, and the first check below asserts this at the
    grid's ``beyond_max``.  Then the test asserts three things:

    1. Each orbit is a chain in the root order.  Scaling a whole orbit keeps
       its order, so this holds for every r.  Two lines (beta|v) = 1 of one
       orbit never cross inside the chamber, and no three lines meet there:
       the arrangement is simple for every r.  With Zaslavsky's theorem it
       then has 1 + #roots + #incomparable pairs regions, since in rank 2
       two lines cross in the chamber iff their roots are incomparable.
       That is the number of antichains, since an antichain holds at most
       one root of each orbit.
    2. Every tie ratio is a critical ratio under ``sgn``.  The order of
       beta in alpha_1's orbit and gamma in alpha_2's changes only where a
       coordinate ties, x_beta = r*x_gamma or y_beta = r*y_gamma.  So the
       order, and every count, is constant on each open interval between
       grid ratios, and each such interval holds a midpoint row.
    3. The critical ratios are closed under r -> 1/r, so ``beyond_max``
       also stands for the interval (0, min).
    """
    p = RootPoset(build(SystemSpec("I2", m)))
    grid = default_ratio_grid(m)
    r = grid[-1][1]

    def scaled(root):
        x, y = root.coeffs
        return (root.orbit, (x, y / r) if root.orbit == 0 else (x * r, y))

    def same(u, w):
        return u[0] == w[0] and all(not sgn(a - b)
                                    for a, b in zip(u[1], w[1]))

    at_r = [(root.orbit, root.coeffs)
            for root in build(SystemSpec("I2", m, r)).positives]
    assert len(at_r) == m
    assert all(any(same(scaled(root), u) for u in at_r)
               for root in p.system.positives)

    orbits = [[root for root in p.system.positives if root.orbit == o]
              for o in (0, 1)]
    assert all(p.comparable(b.index, g.index)
               for orbit in orbits for b in orbit for g in orbit)

    crit = [ratio for label, ratio in grid if label.startswith("sin(")]
    ties = [b.coeffs[s] / g.coeffs[s] for b in orbits[0] for g in orbits[1]
            for s in (0, 1) if sgn(b.coeffs[s]) and sgn(g.coeffs[s])]
    # every pair in both coordinates, but for the simple roots' zeros
    assert len(ties) == (m // 2) ** 2 * 2 - m
    runs = sorted_runs([(False, t) for t in ties] + [(True, c) for c in crit],
                       key=lambda entry: entry[1])
    assert all(any(is_crit for is_crit, _ in run) for run in runs), m
    assert all(not sgn(1 / c - d) for c, d in zip(reversed(crit), crit))


@pytest.mark.parametrize("m", [4, 6])
def test_exact_sweep_rows_match_reference(m):
    keys = ("ratio", "region_count", "bounded_count", "degenerate")
    want = json.loads(REFERENCE.read_text())["sweeps"][str(m)]
    got = sweep_ratio(m)
    assert [{k: row[k] for k in keys} for row in got] == \
        [{k: row[k] for k in keys} for row in want]


def test_classify_all_approx_backend_matches_exact():
    exact = classify_all(RootPoset(build(parse_spec("I2:6"))))
    # an Approx ratio puts I2(6) on the Approx backend, as an m >= 7 grid does
    approx = classify_all(RootPoset(build(SystemSpec("I2", 6, Approx(1)))))
    assert exact.region_count == approx.region_count
    assert exact.bounded_count == approx.bounded_count
    assert not approx.degenerate_flags
