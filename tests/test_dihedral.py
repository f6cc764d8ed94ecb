"""I2(m) at ratio 1 against closed forms decided on integers.

With theta = pi/m and c_j = sin(j*theta)/sin(theta), the positive roots of
I2(m) are beta_a = (c_a, c_{a+1}) for a = 0, ..., m - 1, in simple
coordinates.  For 0 <= x, y <= m, c_x <= c_y iff min(x, m - x) <=
min(y, m - y), so every comparison of two coordinates is an integer
comparison, and so is every tie (I2(7) has c_3 = c_4):
- beta_a <= beta_b in the root order iff both coordinates compare so;
- Int_C({beta_a, beta_b}) is the point v = (c_{b+1} - c_{a+1}, c_a - c_b)/det,
  where det*sin(theta)**2 = -sin(theta)*sin((b - a)*theta) has the sign of
  a - b, so it is nonempty iff both differences are nonzero with that sign,
  and v lies on a chamber wall iff one is zero and the other has that sign;
- the census counts are ``expectation_for``'s closed forms.
Every m outside 2..6 runs on Approx, which decides each tie within its
tolerance; these tests check those decisions against exact values over the
accepted range of m.  The closed forms use no code of the package.
"""

import math
from functools import lru_cache

import pytest

from catalanregions.classifier import classify_all
from catalanregions.cli import expectation_for, verify_report
from catalanregions.exactfield import as_mpf
from catalanregions.feasibility import int_c
from catalanregions.rootposet import RootPoset
from catalanregions.rootsystem import MAX_DIHEDRAL_M, build, parse_spec

# every m up to 60, and m at 100, 200 and the top of the accepted range
SELECTION = [*range(2, 61), *range(97, 101), 199, 200,
             *range(MAX_DIHEDRAL_M - 3, MAX_DIHEDRAL_M + 1)]
ALL_PAIRS_UP_TO = 20  # above it, int_c runs on the 2-antichains only


def _key(m, j):
    """c_x <= c_y iff _key(m, x) <= _key(m, y)."""
    return min(j, m - j)


def _cmp(m, x, y):
    """The sign of c_x - c_y."""
    kx, ky = _key(m, x), _key(m, y)
    return (kx > ky) - (kx < ky)


def closed_leq(m, a, b):
    return _cmp(m, a, b) <= 0 and _cmp(m, a + 1, b + 1) <= 0


def closed_int_c(m, a, b):
    """Int_C({beta_a, beta_b}) for a != b: "Feasible", "Infeasible", or
    "wall" when v has one coordinate zero and the other positive."""
    s = (a > b) - (a < b)  # the sign of det
    signs = {_cmp(m, b + 1, a + 1), _cmp(m, a, b)}
    if signs == {s}:
        return "Feasible"
    return "wall" if signs == {s, 0} else "Infeasible"


@lru_cache(maxsize=None)
def _system(m):
    """The poset of I2(m) and the closed-form index a of each built root.

    The direction of beta_a turns from alpha_2's to alpha_1's as a grows,
    since c_a/c_{a+1} = cos(theta) - cot((a + 1)*theta)*sin(theta) rises
    with a, so a is the rank of the root's angle atan2(x, y).  The labels
    are checked against the closed-form coordinates.
    """
    poset = RootPoset(build(parse_spec(f"I2:{m}")))
    coords = [tuple(float(as_mpf(x)) for x in r.coeffs)
              for r in poset.system.positives]
    order = sorted(range(m), key=lambda i: math.atan2(*coords[i]))
    label = [None] * m
    for a, i in enumerate(order):
        label[i] = a
    theta = math.pi / m
    for (x, y), a in zip(coords, label):
        for got, j in ((x, a), (y, a + 1)):
            want = math.sin(j * theta) / math.sin(theta)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (m, a)
    return poset, label


@pytest.mark.parametrize("m", SELECTION)
def test_dihedral_root_order_matches_closed_form(m):
    poset, label = _system(m)
    for i, a in enumerate(label):
        for j, b in enumerate(label):
            assert poset.leq(i, j) == closed_leq(m, a, b), (m, a, b)


@pytest.mark.parametrize("m", SELECTION)
def test_dihedral_int_c_matches_closed_form(m):
    poset, label = _system(m)
    if m <= ALL_PAIRS_UP_TO:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    else:
        pairs = [a for a in poset.antichains() if len(a) == 2]
    assert pairs
    # a point on a chamber wall is outside Int_C; Approx cannot tell it
    # from a point just inside, and reports the tie
    wall = "Infeasible" if poset.rows is not None else "Degenerate"
    statuses = set()
    for i, j in pairs:
        want = closed_int_c(m, label[i], label[j])
        statuses.add(want)
        status = int_c(poset, (i, j)).status
        assert status == (wall if want == "wall" else want), (m, i, j)
    assert "Feasible" in statuses


@pytest.mark.parametrize("m", SELECTION)
def test_dihedral_census_matches_closed_form(m):
    poset, _ = _system(m)
    report = classify_all(poset)
    assert report.degenerate_flags == []
    assert verify_report(report, expectation_for(parse_spec(f"I2:{m}"))) == []
