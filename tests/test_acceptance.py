"""Acceptance gate: one test per criterion, one pass/fail line each."""

import json
import random
from collections import Counter

from catalanregions.classifier import (
    catalan_numbers,
    classify_system,
    sweep_ratio,
)
from catalanregions.cli import main, report_to_json
from catalanregions.exactfield import sgn
from catalanregions.feasibility import (
    OrderCertificate,
    check_farkas,
    check_order_certificate,
    int_c,
    region_system,
    witness_sign_type,
)
from catalanregions.rootsystem import build, evaluate, parse_spec
from helpers import (
    exact_rank,
    matches_reference_report,
    random_chamber_point,
    random_tau,
)


def ok(num, label):
    print(f"criterion {num:2d} ({label}): PASS")


def test_c01_root_counts():
    assert len(build(parse_spec("H3")).positives) == 15
    assert len(build(parse_spec("H4")).positives) == 60
    for m in range(2, 31):
        assert len(build(parse_spec(f"I2:{m}")).positives) == m
    ok(1, "root counts")


def test_c02_h4_antichain_census(h4_poset):
    antichains = h4_poset.antichains()
    assert len(antichains) == 429
    hist = Counter(len(a) for a in antichains)
    assert dict(hist) == {0: 1, 1: 60, 2: 206, 3: 142, 4: 20}
    assert len(h4_poset.maximal_antichains()) == 152
    ok(2, "H4 antichain census")


def test_c03_h4_good_bad_split(h4_report):
    verdicts = h4_report.maximal_verdicts
    assert sum(v.good for v in verdicts) == 139
    assert sum(not v.good for v in verdicts) == 13
    by_size = Counter((len(v.antichain), v.good) for v in verdicts)
    assert by_size[(4, True)] == 12 and by_size[(4, False)] == 8
    assert by_size[(3, True)] == 74 and by_size[(3, False)] == 5
    ok(3, "H4 good/bad maximal split")


def test_c04_h4_classification(h4_report):
    r = h4_report
    assert r.propagated_nonempty == 401
    assert r.lp_resolved == 28
    survivors = Counter(v.status for v in r.verdicts if v.method == "LP")
    assert survivors == {"Empty": 16, "NonEmpty": 12}
    assert dict(Counter(len(a) for a in r.empty_list)) == {1: 1, 2: 11, 3: 4}
    assert r.region_count == 413 and r.bounded_count == 355
    ok(4, "H4 classification 401/28/16/12, 413 regions, 355 bounded")


def test_c05_h4_certificates(h4_report, h4_poset):
    rs = h4_poset.system
    empties = [v for v in h4_report.verdicts if v.status == "Empty"]
    assert len(empties) == 16
    for v in empties:
        if isinstance(v.certificate, OrderCertificate):
            assert check_order_certificate(h4_poset, v.certificate)
        else:
            sys, _ = region_system(h4_poset, v.antichain)
            assert check_farkas(sys, v.certificate, rs.zero)
    ok(5, "H4 empty-region certificates verified")


def test_c06_h3(h3_report):
    r = h3_report
    assert r.antichain_total == 41 == r.region_count
    assert r.bounded_count == 29
    assert r.bijection_holds
    assert all(v.good for v in r.maximal_verdicts)
    ok(6, "H3 bijection, 41 regions, 29 bounded")


def test_c07_i2_odd():
    for m in (3, 5, 7, 9, 11):
        rep = classify_system(parse_spec(f"I2:{m}"))
        assert rep.region_count == (3 * m + 1) // 2
        assert rep.bounded_count == (3 * m + 1) // 2 - 3
    ok(7, "I2 odd counts")


def test_c08_i2_even_sweep():
    for m in (4, 6, 8, 10):
        rep = classify_system(parse_spec(f"I2:{m}"))
        assert rep.region_count == 3 * m // 2 + 1
        assert rep.bounded_count == 3 * m // 2 - 2
        rows = sweep_ratio(m)
        by_label = {r["ratio"]: r for r in rows}
        for k in range(1, m // 2 + 1):
            for l in range(1, m // 2 + 1):
                a = by_label.get(f"sin({k})/sin({l})")
                b = by_label.get(f"sin({l})/sin({k})")
                if a and b:
                    assert a["region_count"] == b["region_count"]
                    assert a["bounded_count"] == b["bounded_count"]
        for r in rows:
            if r["ratio"].startswith("midpoint") or r["ratio"] == "beyond_max":
                assert not r["degenerate"]
                assert r["region_count"] == 3 * m // 2 + 1
    r6 = classify_system(parse_spec("I2:6:r=sin(2)/sin(1)"))
    assert r6.region_count == 8 == catalan_numbers("I2", 6).cat
    r4 = classify_system(parse_spec("I2:4:r=sin(1)/sin(2)"))
    assert r4.region_count == 6 == catalan_numbers("I2", 4).cat
    ok(8, "I2 even sweep, critical ratios, r->1/r duality")


def test_c09_catalan():
    assert (catalan_numbers("H3").cat, catalan_numbers("H3").cat_positive) \
        == (32, 21)
    assert (catalan_numbers("H4").cat, catalan_numbers("H4").cat_positive) \
        == (280, 232)
    for m in range(2, 13):
        c = catalan_numbers("I2", m)
        assert (c.cat, c.cat_positive) == (m + 2, m - 1)
    ok(9, "generalized Catalan numbers")


def test_c10_bijection_equivalence(h3_report, h4_report):
    reports = [h3_report, h4_report]
    for m in (3, 5, 7, 9, 11, 4, 6, 8, 10):
        reports.append(classify_system(parse_spec(f"I2:{m}")))
    for rep in reports:
        assert rep.bijection_holds == (not rep.empty_list)
    assert not h4_report.bijection_holds and h4_report.empty_list
    ok(10, "all-antichain criterion agrees with region census")


def test_c11_property_suites(h3_poset, h4_poset, h3_report, h4_report):
    # two-root sets: antichain exactly when the unit-level system meets C
    for p in (h3_poset, h4_poset):
        for i in range(p.size):
            for j in range(i + 1, p.size):
                feasible = int_c(p, (i, j)).status == "Feasible"
                assert feasible == (not p.comparable(i, j))
    # antichain size bound and linear independence
    for p in (h3_poset, h4_poset):
        rs = p.system
        for a in p.antichains():
            assert len(a) <= rs.rank
            if a:
                assert exact_rank([rs.positives[i].coeffs for i in a],
                                  rs.zero) == len(a)
    # order monotonicity on random chamber points
    rng = random.Random(2718)
    rs = h3_poset.system
    pairs = [(i, j) for i in range(h3_poset.size) for j in range(h3_poset.size)
             if i != j and h3_poset.leq(i, j)]
    for _ in range(100):
        v = random_chamber_point(rng, rs.rank, rs.one)
        for i, j in pairs:
            assert sgn(evaluate(v, rs.positives[j])
                       - evaluate(v, rs.positives[i])) >= 0
    # witness sign types read back exactly the generating ideal
    for p, rep in ((h3_poset, h3_report), (h4_poset, h4_report)):
        for verdict in rep.verdicts:
            if verdict.status == "NonEmpty":
                assert witness_sign_type(p, verdict.witness) == \
                    p.ideal(verdict.antichain)
    # field axioms on random triples
    rng = random.Random(31415)
    for _ in range(10_000):
        a, b, c = (random_tau(rng, 9) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if sgn(a) != 0:
            assert (b / a) * a == b
    ok(11, "property suites")


def test_c12_brute_force_oracles(h3_poset):
    from helpers import brute_force_antichains, brute_force_increasing_sets
    from catalanregions.rootposet import RootPoset
    for label in ("I2:3", "I2:5"):
        p = RootPoset(build(parse_spec(label)))
        assert p.antichains() == brute_force_antichains(p)
    brute = brute_force_increasing_sets(h3_poset)
    assert {h3_poset.ideal(a) for a in h3_poset.antichains()} == brute
    assert len(h3_poset.antichains()) == len(brute) == 41
    ok(12, "brute-force enumeration oracles")


def test_c13_determinism(tmp_path, capsys, h4_report):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["classify", "H4", "--out", str(p1)]) == 0
    assert main(["classify", "H4", "--out", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert json.loads(b1) == report_to_json(h4_report)
    assert matches_reference_report("H4", b1)
    ok(13, "byte-identical repeated classification")
