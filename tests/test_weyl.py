"""The crystallographic types as an oracle for the census.

Their counts are theorems, not measurements: a Weyl group W has Cat(W)
antichains of positive roots (Cellini and Papi, J. Algebra 225, 2000), every
dominant region of its Catalan arrangement is nonempty, and Cat+(W) of them
are bounded (Athanasiadis, Bull. London Math. Soc. 36, 2004).  The types
enter the census as rows of the Coxeter table, so they run through the same
Gram matrix, descent tree and classifier as H3, H4 and I2(m).
"""

import hashlib

import pytest

from catalanregions import rootsystem
from catalanregions.classifier import classify_all
from catalanregions.exactfield import sqrt2
from catalanregions.feasibility import witness_sign_type
from catalanregions.rootposet import RootPoset
from catalanregions.rootsystem import CoxeterType, _path, build, parse_spec
from helpers import (
    RootPosetReference,
    int_c_digest,
    norm_matches_orbit,
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
    assert all(norm_matches_orbit(rs, r) for r in rs.positives)
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


# sha256 of int_c's status, witness and certificate, through
# scalar_to_json, on every nonempty antichain of each type
WEYL_INT_C_SHA256 = {
    "A3":
        "3a1f552e6fe6e3ebf4eb937e6c26fee51d5ef5f5c024a8511c331088deb83de5",
    "A4":
        "41e1f2ce43a33c3d8fbe75daa761d20ff65025208c899411f954403a990b9cb9",
    "A5":
        "dd1d6bf03289129975a429416c93ea82b1a64dee9cec4f564e2084f443b1d547",
    "A6":
        "a5d36fa2c1a75dfddf44ee895732a222898c5def3ef5e7e5b99c09c1a9d0ac7a",
    "B3":
        "7b19fd9165607a279ae740e277c3e774ab158a56fda256a4d06a7d982d380105",
    "B4":
        "35d5a9dd2b477ea30aef6b8de74d99aaa1c961b8762ce633afaada43bba38bd8",
    "D4":
        "31f1f66bacb72b304e58e44e28135ebb7dbd3afc7f4d9db9dc3777a37a8ca3a3",
    "D5":
        "20273cc1987fa8b873f5d23249aab408a57a68eb7e33e03e752adc16ea1e10af",
    "E6":
        "6c38acf06f6d6c950fa0989883c879936bc351ed44654db8728c19f7c812e049",
    "F4":
        "3a5a6f742a059deae222e840d3973c299f511e28bf33eca2dc2410efb25f5b1f",
}


@pytest.mark.parametrize("name", sorted(WEYL_TYPES))
def test_weyl_int_c_certifies_only_on_refutation(monkeypatch, name):
    # every antichain is feasible here, so no result carries a certificate;
    # the witnesses stay those pinned
    monkeypatch.setitem(rootsystem.COXETER_TYPES, name, WEYL_TYPES[name])
    poset = RootPoset(build(parse_spec(name)))
    antichains = poset.antichains()[1:]
    digest = hashlib.sha256()
    for a, res in zip(antichains, int_c_digest(poset, antichains, digest)):
        assert res.status == "Feasible" and res.certificate is None, a
    assert digest.hexdigest() == WEYL_INT_C_SHA256[name]
