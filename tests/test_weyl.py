"""The crystallographic types as an oracle for the census.

Their counts are theorems, not measurements: a Weyl group W has Cat(W)
antichains of positive roots (Cellini and Papi, J. Algebra 225, 2000), every
dominant region of its Catalan arrangement is nonempty, and Cat+(W) of them
are bounded (Athanasiadis, Bull. London Math. Soc. 36, 2004).  The types
enter the census as rows of the Coxeter table, so they run through the same
Gram matrix, descent tree and classifier as H3, H4 and I2(m).
"""

import pytest

from catalanregions import rootsystem
from catalanregions.classifier import classify_all
from catalanregions.exactfield import sqrt2
from catalanregions.feasibility import witness_sign_type
from catalanregions.rootposet import RootPoset
from catalanregions.rootsystem import CoxeterType, _path, build, parse_spec
from helpers import (
    RootPosetReference,
    int_c_matches_certified_run,
    witness_sign_type_reference,
)

LONG = sqrt2(0, 1)  # long roots of B_n and F4; short roots have length 1


def _a(n):
    return CoxeterType(_path(*[3] * (n - 1)), (1,) * n, tuple(range(1, n + 1)))


def _b(n):
    return CoxeterType(_path(*[3] * (n - 2), 4), (LONG,) * (n - 1) + (1,),
                       tuple(range(1, 2 * n, 2)))


def _d(n):
    # the path 0 - ... - (n-2), and n-1 joined to n-3
    return CoxeterType({**_path(*[3] * (n - 2)), (n - 3, n - 1): 3}, (1,) * n,
                       tuple(range(1, 2 * n - 2, 2)) + (n - 1,))


# Bourbaki's numbering, from 0: E6 is the path 0 - 2 - 3 - 4 - 5 with 1
# joined to 3, and F4 has its double bond between the long 1 and short 2
WEYL_TYPES = {
    "A3": _a(3), "A4": _a(4), "A5": _a(5), "A6": _a(6),
    "B3": _b(3), "B4": _b(4),
    "D4": _d(4), "D5": _d(5),
    "E6": CoxeterType({(0, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (1, 3): 3},
                      (1,) * 6, (1, 4, 5, 7, 8, 11)),
    "F4": CoxeterType(_path(3, 4, 3), (LONG, LONG, 1, 1), (1, 5, 7, 11)),
}

# (|Phi+|, Cat(W), Cat+(W)) = (nh/2, prod (h + e + 1)/(e + 1),
# prod (h + e - 1)/(e + 1)) over the exponents e, written out, not computed
WEYL_COUNTS = {
    "A3": (6, 14, 5), "A4": (10, 42, 14), "A5": (15, 132, 42),
    "A6": (21, 429, 132),
    "B3": (9, 20, 10), "B4": (16, 70, 35),
    "D4": (12, 50, 20), "D5": (20, 182, 77),
    "E6": (36, 833, 418),
    "F4": (24, 105, 66),
}


@pytest.mark.parametrize("name", sorted(WEYL_COUNTS))
def test_weyl_census_matches_theorems(monkeypatch, name):
    monkeypatch.setitem(rootsystem.COXETER_TYPES, name, WEYL_TYPES[name])
    rs = build(parse_spec(name))
    if name[0] in "BF":
        # long roots of length sqrt 2: rational entries held in Q(sqrt 2)
        assert rs.field == "sqrt2"
        assert all(g.y == 0 for row in rs.gram for g in row)
    else:
        assert rs.field == "rational"
    roots, cat, cat_positive = WEYL_COUNTS[name]
    assert len(rs.positives) == roots
    poset = RootPoset(rs)
    # the per-coordinate runs hold many ties here; compare every pair
    ref = RootPosetReference(rs)
    assert all(poset.leq(i, j) == ref.leq(i, j)
               for i in range(poset.size) for j in range(poset.size))
    report = classify_all(poset)
    assert report.antichain_total == cat
    assert report.region_count == cat and not report.empty_list
    assert report.bounded_count == cat_positive
    assert report.bijection_holds
    assert (report.catalan.cat, report.catalan.cat_positive) == (cat, cat_positive)
    # every witness lies in its open region and reads back its ideal, on
    # integer rows as on the reference's scalar dot products
    for v in report.verdicts:
        assert (witness_sign_type(poset, v.witness)
                == witness_sign_type_reference(poset, v.witness)
                == poset.ideal(v.antichain) == ref.ideal(v.antichain))


@pytest.mark.parametrize("name", sorted(WEYL_TYPES))
def test_weyl_int_c_certifies_only_on_refutation(monkeypatch, name):
    # every antichain is feasible here, so no run replays with multipliers
    monkeypatch.setitem(rootsystem.COXETER_TYPES, name, WEYL_TYPES[name])
    poset = RootPoset(build(parse_spec(name)))
    for a in poset.antichains()[1:]:
        assert int_c_matches_certified_run(poset, a), a
