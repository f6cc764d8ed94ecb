"""Shared oracles and generators used by several test modules."""

from catalanregions.exactfield import Q, is_zero, sgn, tau
from catalanregions.feasibility import int_c, lp_max


def random_rational(rng, span=20):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def random_tau(rng, span=20):
    return tau(random_rational(rng, span), random_rational(rng, span))


def brute_force_antichains(poset):
    """All antichains by filtering every subset; feasible for small posets."""
    n = poset.size
    out = []
    for mask in range(1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        if poset.is_antichain(members):
            out.append(members)
    out.sort(key=lambda a: (len(a), a))
    return out


def brute_force_increasing_sets(poset):
    """All upward-closed subsets by filtering every subset."""
    n = poset.size
    out = set()
    for mask in range(1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if poset.is_increasing(members):
            out.add(members)
    return out


def exact_rank(vectors, zero):
    """Rank of a list of coefficient vectors by exact Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows))
                    if not is_zero(rows[r][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and not is_zero(rows[r][col]):
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def random_chamber_point(rng, rank, one):
    """Strictly positive weight coordinates with random rational entries."""
    return tuple(one * Q(rng.randint(1, 50), rng.randint(1, 10))
                 for _ in range(rank))


def bounded_lp(poset, antichain):
    """Boundedness by LP: is the region's recession cone in the chamber {0}?

    Maximises sum(d) over d >= 0 with (d|gamma) <= 0 for gamma in I^c_max
    and sum(d) <= 1; the cone is trivial iff the optimum is zero.
    """
    rs = poset.system
    zero, one = rs.zero, rs.one
    n = rs.rank
    icmax = poset.complement_maximals(poset.ideal(antichain))
    rows = [(rs.positives[i].coeffs, zero) for i in icmax]
    rows.append(([one] * n, one))
    status, _, _, opt = lp_max(n, [one] * n, rows, zero, one)
    if status == "unbounded":
        return False
    return sgn(opt) == 0


def bijection_lp(poset):
    """Int_C by LP on every nonempty antichain: (bad, degenerate) lists."""
    bad, degenerate = [], []
    for a in poset.antichains():
        if not a:
            continue
        status = int_c(poset, a).status
        if status == "Infeasible":
            bad.append(a)
        elif status == "Degenerate":
            degenerate.append(a)
    return bad, degenerate
