import random

import pytest

from catalanregions.classifier import default_ratio_grid
from catalanregions.exactfield import sgn
from catalanregions.feasibility import region_system
from catalanregions.rootposet import NotAntichain, RootPoset
from catalanregions.rootsystem import SystemSpec, build, evaluate, parse_spec
from helpers import (
    NotIncreasing,
    RootPosetReference,
    brute_force_antichains,
    brute_force_increasing_sets,
)


def _poset(label):
    return RootPoset(build(parse_spec(label)))


def test_antichains_match_brute_force_dihedral():
    for label in ("I2:3", "I2:5", "I2:6", "I2:6:r=0.5", "I2:7"):
        p = _poset(label)
        assert p.antichains() == brute_force_antichains(p)


def test_h3_ideals_match_brute_force_increasing_sets(h3_poset):
    brute = brute_force_increasing_sets(h3_poset)
    via_antichains = {h3_poset.ideal(a) for a in h3_poset.antichains()}
    assert via_antichains == brute
    assert len(brute) == 41


def test_leq_is_partial_order(h3_poset):
    p = h3_poset
    n = p.size
    for i in range(n):
        assert p.leq(i, i)
        for j in range(n):
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in range(n):
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)


def test_leq_matches_coefficient_differences(h3_poset):
    p = h3_poset
    roots = p.system.positives
    for i in range(p.size):
        for j in range(p.size):
            expect = all(sgn(cj - ci) >= 0
                         for ci, cj in zip(roots[i].coeffs, roots[j].coeffs))
            assert p.leq(i, j) == expect


def test_order_is_monotone_on_chamber_points(h3_poset):
    # if beta <= gamma then (v|beta) <= (v|gamma) on the closed chamber
    from helpers import random_chamber_point
    p = h3_poset
    rs = p.system
    rng = random.Random(99)
    pts = [random_chamber_point(rng, rs.rank, rs.one) for _ in range(100)]
    pairs = [(i, j) for i in range(p.size) for j in range(p.size)
             if i != j and p.leq(i, j)]
    for v in pts:
        for i, j in pairs:
            d = evaluate(v, rs.positives[j]) - evaluate(v, rs.positives[i])
            assert sgn(d) >= 0


def test_ideal_round_trip(h3_poset):
    p, ref = h3_poset, RootPosetReference(h3_poset.system)
    for a in p.antichains():
        ideal = p.ideal(a)
        assert p.ideal(a[::-1]) == ideal
        assert ref.is_increasing(ideal)
        assert ref.minimals(ideal) == a
        comp = ref.complement_maximals(ideal)
        assert ref.is_antichain(comp)
        assert not (set(comp) & ideal)


def test_ideal_minus_minimal_subset_is_increasing(h3_poset):
    p, ref = h3_poset, RootPosetReference(h3_poset.system)
    for a in p.antichains():
        if not a:
            continue
        ideal = p.ideal(a)
        reduced = ideal - {a[0]}
        assert ref.is_increasing(reduced)
        assert a[0] in ref.complement_maximals(reduced)
        # propagation reads the reduced set as the ideal of another antichain
        assert p.ideal(ref.minimals(reduced)) == reduced


def test_bad_inputs_raise(h3_poset):
    p = h3_poset
    chain = None
    for i in range(p.size):
        for j in range(p.size):
            if i != j and p.leq(i, j):
                chain = (i, j)
                break
        if chain:
            break
    with pytest.raises(NotAntichain):
        p.ideal(chain)
    # a repeated root and a root that does not exist miss the lookup too
    for bad in (chain, (0, 0), (p.size,)):
        with pytest.raises(NotAntichain):
            p.ideal_mask(bad)
    ref = RootPosetReference(p.system)
    with pytest.raises(NotIncreasing):
        ref.complement_maximals({chain[0]})


def test_maximal_antichains(h3_poset):
    p, ref = h3_poset, RootPosetReference(h3_poset.system)
    maximal = p.maximal_antichains()
    assert len(maximal) == 16
    for a in maximal:
        members = set(a)
        for extra in range(p.size):
            if extra not in members:
                assert not ref.is_antichain(tuple(sorted(members | {extra})))


def test_antichain_count_depends_on_ratio():
    # even dihedral posets change shape with the root-length ratio
    p1 = _poset("I2:6")
    p2 = _poset("I2:6:r=0.5")
    assert len(p1.maximal_antichains()) == 3
    assert len(p2.maximal_antichains()) == 5


def test_hasse_is_transitive_reduction(h3_poset):
    p = h3_poset
    edges = {(i, j) for i, j, _ in p.hasse()}
    for i, j in edges:
        assert p.leq(i, j) and i != j
        for k in range(p.size):
            if k != i and k != j:
                assert not (p.leq(i, k) and p.leq(k, j))
    # reachability through covers equals the order relation
    import collections
    adj = collections.defaultdict(set)
    for i, j in edges:
        adj[i].add(j)
    for i in range(p.size):
        seen = set()
        stack = [i]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == {j for j in range(p.size) if i != j and p.leq(i, j)}


def test_hasse_has_non_reflection_covers(h3_poset):
    kinds = {simple for _, _, simple in h3_poset.hasse()}
    assert kinds == {True, False}


def test_to_dot(h3_poset):
    dot = h3_poset.to_dot()
    assert dot.startswith("digraph")
    assert "b1 " in dot and "->" in dot
    assert "style=dashed" in dot
    # I2(4) has both kinds of cover, numbered from 1
    assert _poset("I2:4").to_dot() == "\n".join([
        "digraph rootposet {",
        "  rankdir=BT;",
        '  b1 [label="1"];',
        '  b2 [label="2"];',
        '  b3 [label="3"];',
        '  b4 [label="4"];',
        "  b1 -> b3 [style=dashed];",
        "  b1 -> b4;",
        "  b2 -> b3;",
        "  b2 -> b4 [style=dashed];",
        "}",
    ])


def test_h3_restriction_of_h4(h3_poset, h4_poset):
    # H3 sits inside H4 as the roots with zero last coefficient
    h4 = h4_poset.system
    sub = [r for r in h4.positives if sgn(r.coeffs[3]) == 0]
    assert len(sub) == 15
    h3_coeffs = {r.coeffs for r in h3_poset.system.positives}
    assert {r.coeffs[:3] for r in sub} == h3_coeffs


def test_i2_7_has_a_tie_within_the_tolerance():
    # two coefficients that sgn calls equal although their mpf values differ,
    # so the order build must put them in one run; I2:2-60 below checks it
    coeffs = [c for r in _poset("I2:7").system.positives for c in r.coeffs]
    assert any(sgn(a - b) == 0 and a.v != b.v for a in coeffs for b in coeffs)


ORACLE_SYSTEMS = {
    "H3": [parse_spec("H3")],
    "H4": [parse_spec("H4")],
    "I2:2-60": [parse_spec(f"I2:{m}") for m in range(2, 61)],
    "I2:400": [parse_spec("I2:400")],
    # roots over the denominators 10 and 3 in Q(sqrt 2)
    "I2:4:r=0.3": [parse_spec("I2:4:r=0.3")],
    "grid4": [SystemSpec("I2", 4, r) for _, r in default_ratio_grid(4)],
    "grid6": [SystemSpec("I2", 6, r) for _, r in default_ratio_grid(6)],
    "grid12": [SystemSpec("I2", 12, r) for _, r in default_ratio_grid(12)],
}


@pytest.mark.parametrize("group", ORACLE_SYSTEMS)
def test_masks_match_pairwise_oracle(group):
    for spec in ORACLE_SYSTEMS[group]:
        rs = build(spec)
        p, ref = RootPoset(rs), RootPosetReference(rs)
        n = p.size
        for i in range(n):
            for j in range(n):
                assert p.leq(i, j) == ref.leq(i, j)
                assert p.comparable(i, j) == ref.comparable(i, j)
        antichains = p.antichains()
        assert antichains == ref.antichains()
        assert p.maximal_antichains() == ref.maximal_antichains()
        # a positive root has no negative coefficient: its support is where
        # the coefficient is not zero
        for s, support in enumerate(p.supports):
            assert support == sum(1 << i for i, r in enumerate(rs.positives)
                                  if sgn(r.coeffs[s]) != 0)
        for a in antichains:
            ideal = ref.ideal(a)
            assert p.ideal_mask(a) == sum(1 << i for i in ideal)
            assert p.ideal(a) == ideal
        # the oracle's complement_maximals scans pairs of roots: on I2:400
        # every fifth antichain (all sizes occur) keeps this test to seconds
        for a in antichains[::5 if group == "I2:400" else 1]:
            assert ref.is_antichain(a)
            # I^c_max as the region system reads it
            _, icmax = region_system(p, a)
            assert icmax == ref.complement_maximals(ref.ideal(a))
        if group != "I2:400":  # the O(n^3) oracle; the CLI pins cover it
            assert p.hasse() == ref.hasse()

