"""Zaslavsky's theorem as an oracle for the census, sharing no code with it.

The census counts the regions into which the hyperplanes
H_beta = {(beta|v) = 1}, beta a positive root, cut the open chamber
C = {v > 0}, in chamber coordinates: (beta|v) is the sum of beta's simple
coordinates times v.  A flat X, a nonempty intersection of hyperplanes,
that meets C meets it in an open convex set.  So by Zaslavsky, "A
combinatorial analysis of topological dissections", Adv. Math. 25 (1977),
the regions number sum |mu(X)| over those flats, mu(X) = mu(V, X) the
Moebius function of their semilattice.  A flat that contains one meeting C
meets C too, so mu there is mu in the lattice of all flats, and alternates
in sign with codimension.

Boundedness.  Let J be the roots with (beta|v) < 1 on a region R.  Simple
coordinates are nonnegative, so a recession direction d >= 0 has
(beta|d) = 0 for beta in J: d vanishes on the union of their supports, and
R is bounded iff that union is every simple index.  For a set T of simple
indices, the regions whose J is supported off T are the regions of the
roots supported off T in the chamber of the other coordinates: a point
there extends to R by taking v large on T, which puts every other root
above 1.  The flats of that smaller arrangement that meet its chamber are,
times the coordinate space of T, the flats meeting C whose roots are all
supported off T, with the same interval below them and so the same mu.
Inclusion-exclusion over T leaves
    bounded regions = sum |mu(X)| over the flats meeting C whose roots'
                      supports cover every simple index.

Each flat is reached from a flat of one codimension less and kept as a
point p and direction vectors N with v = p + N t; its roots are all those
whose hyperplane contains it, and a strictly positive point, from
Fourier-Motzkin over the at most rank parameters t, shows that it meets C.
Only ``build`` and ``exactfield`` enter; the census's modules are imported
to compare with its results alone.  Slow systems run in tools/oracles.py.
"""

import pytest

from catalanregions import rootsystem
from catalanregions.classifier import (
    classify_all,
    default_ratio_grid,
    sweep_ratio,
)
from catalanregions.exactfield import is_zero, sgn
from catalanregions.feasibility import int_c
from catalanregions.rootposet import RootPoset
from catalanregions.rootsystem import SystemSpec, build, parse_spec
from helpers import REGION_SPECS
from test_weyl import WEYL_TYPES


def _dot(a, b, zero):
    return sum((x * y for x, y in zip(a, b)), zero)


def _positive_point(rows, d, zero, one):
    """A point t with a + (b|t) > 0 on every row (a, b) of length-d b, by
    Fourier-Motzkin on the last parameter; None if there is none."""
    if not d:
        return () if all(sgn(a) > 0 for a, _ in rows) else None
    keep, lower, upper = [], [], []
    for a, b in rows:
        s = sgn(b[-1])
        (upper if s < 0 else lower if s > 0 else keep).append((a, b))
    # a1 + b1 t + c1 s > 0 < a2 + b2 t + c2 s with c1 > 0 > c2 give
    # -(a1 + b1 t)/c1 < s < (a2 + b2 t)/-c2
    nxt = [(a, b[:-1]) for a, b in keep]
    for a1, b1 in lower:
        for a2, b2 in upper:
            c1, c2 = b1[-1], zero - b2[-1]
            nxt.append((a1 * c2 + a2 * c1, tuple(
                x * c2 + y * c1 for x, y in zip(b1[:-1], b2[:-1]))))
    t = _positive_point(nxt, d - 1, zero, one)
    if t is None:
        return None
    lo = hi = None
    for a, b in lower:
        bound = (zero - a - _dot(b, t, zero)) / b[-1]
        if lo is None or sgn(bound - lo) > 0:
            lo = bound
    for a, b in upper:
        bound = (zero - a - _dot(b, t, zero)) / b[-1]
        if hi is None or sgn(bound - hi) < 0:
            hi = bound
    if lo is None:
        return (*t, zero if hi is None else hi - one)
    return (*t, lo + one if hi is None else (lo + hi) / 2)


def flats(rs):
    """{roots of X: mu(X)} over the flats X meeting the open chamber, the
    whole space V (no roots) included."""
    zero, one, n = rs.zero, rs.one, rs.rank
    roots = [r.coeffs for r in rs.positives]
    unit = [tuple(one if i == j else zero for i in range(n)) for j in range(n)]
    found = {frozenset(): ((zero,) * n, unit)}
    level, missed = [frozenset()], set()
    while level:
        nxt = []
        for xs in level:
            p, dirs = found[xs]
            # each root off X is an affine function c + (lin|t) of the
            # parameters; the nonconstant ones, scaled to 1 on their first
            # nonzero entry k, cut X in one flat per value of (c, k, lin)
            cuts = []
            for g, beta in enumerate(roots):
                lin = [_dot(beta, u, zero) for u in dirs]
                k = next((j for j, x in enumerate(lin) if not is_zero(x)),
                         None)
                if g in xs or k is None:
                    continue
                h = lin[k]
                f = ((_dot(beta, p, zero) - one) / h, k,
                     *(x / h for x in lin))
                cut = next((cut for cut in cuts if cut[0] == f), None)
                if cut is None:
                    cuts.append((f, [g]))
                else:
                    cut[1].append(g)
            for (c, k, *f), members in cuts:
                ys = xs | frozenset(members)
                if ys in found or ys in missed:
                    continue
                # t_k = -c - sum(f_j t_j) over the other parameters j
                q = tuple(x - y * c for x, y in zip(p, dirs[k]))
                rest = [tuple(x - y * fj for x, y in zip(dirs[j], dirs[k]))
                        for j, fj in enumerate(f) if j != k]
                point = _positive_point(
                    [(q[i], tuple(u[i] for u in rest)) for i in range(n)],
                    len(rest), zero, one)
                if point is None:
                    missed.add(ys)
                    continue
                v = [a + _dot(point, [u[i] for u in rest], zero)
                     for i, a in enumerate(q)]
                assert all(sgn(x) > 0 for x in v), ys
                assert all(is_zero(_dot(roots[g], v, zero) - one) for g in ys)
                found[ys] = (q, rest)
                nxt.append(ys)
        level = nxt
    mu = {}
    for s in sorted(found, key=len):
        mu[s] = 1 if not s else -sum(m for r, m in mu.items() if r < s)
    return mu


def check_census(rs):
    """Assert the census of ``rs`` against its flats: every |mu| is 1, the
    flats' root sets are the empty set and the antichains with a feasible
    Int_C, and the region and bounded counts are their sums of |mu|.
    Returns (regions, bounded)."""
    mu = flats(rs)
    assert all(abs(m) == 1 for m in mu.values())
    supports = [{i for i, x in enumerate(r.coeffs) if not is_zero(x)}
                for r in rs.positives]
    regions = sum(abs(m) for m in mu.values())
    bounded = sum(abs(m) for s, m in mu.items()
                  if len(set().union(*(supports[g] for g in s))) == rs.rank)
    poset = RootPoset(rs)
    feasible = {frozenset(a) for a in poset.antichains()[1:]
                if int_c(poset, a).status == "Feasible"}
    assert set(mu) == {frozenset()} | feasible
    report = classify_all(poset)
    assert (report.region_count, report.bounded_count) == (regions, bounded)
    return regions, bounded


# the paper's (regions, bounded) counts
PAPER_COUNTS = {"H3": (41, 29), "H4": (413, 355)}


@pytest.mark.parametrize("group", ["H3", "H4", "approx", "sweep6", "sweep12"])
def test_census_matches_zaslavsky(group):
    counts = [check_census(build(spec)) for spec in REGION_SPECS[group]]
    if group in PAPER_COUNTS:
        assert counts == [PAPER_COUNTS[group]]


def test_ratio_sweep_matches_zaslavsky():
    for row, (_, r) in zip(sweep_ratio(4), default_ratio_grid(4)):
        counts = check_census(build(SystemSpec("I2", 4, r)))
        assert counts == (row["region_count"], row["bounded_count"]), row


# A6 and E6 take seconds each and run in tools/oracles.py
@pytest.mark.parametrize("name", sorted(set(WEYL_TYPES) - {"A6", "E6"}))
def test_weyl_census_matches_zaslavsky(monkeypatch, name):
    monkeypatch.setitem(rootsystem.COXETER_TYPES, name, WEYL_TYPES[name])
    check_census(build(parse_spec(name)))
