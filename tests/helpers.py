"""Shared oracles and generators used by several test modules."""

import functools
import hashlib
import json
from pathlib import Path

import mpmath

from catalanregions.classifier import default_ratio_grid
from catalanregions.exactfield import (
    _RATIONAL_TYPES,
    Approx,
    DivByZero,
    Q,
    TagMismatch,
    _qsign,
    int_row,
    is_zero,
    near_tie,
    one_like,
    scalar_to_json,
    sgn,
    tau,
    zero_like,
)
from catalanregions.feasibility import (
    EmptyAntichain,
    FeasibilityResult,
    LinearSystem,
    OrderCertificate,
    _chamber_rows,
    _IntRows,
    _ScalarRows,
    check_farkas,
    int_c,
    lp_max,
)
from catalanregions.rootposet import NotAntichain
from catalanregions.rootsystem import (
    ClosureOverflow,
    Root,
    RootSystem,
    SystemSpec,
    _gram_matrix,
    coxeter_type,
    evaluate,
    parse_spec,
)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" \
    / "reference.json"

# region systems the differential tests run against the LP oracles: 112
# systems, 3039 antichains
REGION_SPECS = {
    "H3": [parse_spec("H3")],
    "H4": [parse_spec("H4")],
    "I2:2-40": [parse_spec(f"I2:{m}") for m in range(2, 41)],
    "I2:100": [parse_spec("I2:100")],
    "approx": [parse_spec(s) for s in ("I2:8:r=1.3", "I2:12:r=sin(1)/sin(4)")],
    "sweep6": [SystemSpec("I2", 6, r) for _, r in default_ratio_grid(6)],
    "sweep12": [SystemSpec("I2", 12, r) for _, r in default_ratio_grid(12)],
}


def matches_reference_report(label, data):
    """True iff report bytes hash to the stored reference for `label`."""
    want = json.loads(REFERENCE.read_text())["reports"][label]["sha256"]
    return hashlib.sha256(data).hexdigest() == want


CLOSURE_CAP = 10_000


def _coeff_cmp(a, b):
    """The canonical order of coefficient vectors, for the closure oracle:
    by height, then coefficient by coefficient."""
    s = sgn(sum(a[1:], a[0]) - sum(b[1:], b[0]))
    if s:
        return s
    for x, y in zip(a, b):
        s = sgn(x - y)
        if s:
            return s
    return 0


class _SeenSet:
    """Dedup container for coefficient vectors; tolerance-based under approx."""

    def __init__(self, approx):
        self.approx = approx
        self.exact = set()
        self.items = []

    def add(self, coeffs):
        """Insert; returns True if new."""
        if not self.approx:
            if coeffs in self.exact:
                return False
            self.exact.add(coeffs)
        elif coeffs in self.items:
            return False
        self.items.append(coeffs)
        return True


def positive_roots_by_closure(spec):
    """Oracle for rootsystem.build: the earlier reflection closure.

    It closes the simple roots under every simple reflection, keeping the
    negative roots and deduplicating each image against all roots held, then
    filters the positive roots, sorts them and finds their orbits by a second
    search.  Returns the positive roots as rootsystem.Root objects.
    """
    gram, field = _gram_matrix(coxeter_type(spec))
    n = len(gram)
    zero = zero_like(gram[0][0])
    one = one_like(gram[0][0])

    rs = RootSystem(spec, gram, (), field)
    simples = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]

    seen = _SeenSet(field == "approx")
    frontier = list(simples)
    for s in simples:
        seen.add(s)
    while frontier:
        nxt = []
        for coeffs in frontier:
            for i in range(n):
                image = rs.reflect(i, coeffs)
                if seen.add(image):
                    nxt.append(image)
            if len(seen.items) > CLOSURE_CAP:
                raise ClosureOverflow("reflection closure exceeded cap")
        frontier = nxt

    positives = [c for c in seen.items
                 if all(sgn(x) >= 0 for x in c) and any(sgn(x) > 0 for x in c)]

    positives.sort(key=functools.cmp_to_key(_coeff_cmp))

    expected = {"H3": 15, "H4": 60}.get(spec.family, spec.m)
    if len(positives) != expected:
        raise ClosureOverflow(
            f"closure produced {len(positives)} positive roots, expected {expected}")

    orbit_of = _orbits(rs, simples, positives)
    return tuple(Root(i, c, orbit_of[i]) for i, c in enumerate(positives))


def norm_matches_orbit(rs, root):
    """(beta|beta) equals the Gram diagonal of the simple root naming beta's
    orbit: exactly on an exact field, within the tolerance on Approx."""
    norm = rs.inner(root.coeffs, root.coeffs)
    simple = rs.gram[root.orbit][root.orbit]
    if rs.field == "approx":
        return is_zero(norm - simple)
    return norm == simple


def _orbits(rs, simples, positives):
    """Map canonical root position -> smallest simple index in its orbit."""
    n = len(simples)

    def pos_rep(coeffs):
        if all(sgn(x) <= 0 for x in coeffs):
            coeffs = tuple(zero_like(x) - x for x in coeffs)
        return coeffs

    orbit = [None] * len(positives)
    for si in range(n):
        start = positives.index(simples[si])
        if orbit[start] is not None:
            continue
        stack = [start]
        orbit[start] = si
        while stack:
            k = stack.pop()
            for i in range(n):
                img = positives.index(pos_rep(rs.reflect(i, positives[k])))
                if orbit[img] is None:
                    orbit[img] = si
                    stack.append(img)
    return orbit


def witness_sign_type_reference(poset, witness):
    """``feasibility.witness_sign_type`` on scalars: each (v|beta) by ``evaluate``.

    ``evaluate`` raises ValueError on a point of the wrong length and the
    field arithmetic TagMismatch on a foreign scalar.
    """
    rs = poset.system
    signs = [sgn(evaluate(witness, r) - rs.one) for r in rs.positives]
    if 0 in signs or any(sgn(x) <= 0 for x in witness):
        return None
    return frozenset(i for i, s in enumerate(signs) if s > 0)


def random_rational(rng, span=20):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def random_tau(rng, span=20):
    return tau(random_rational(rng, span), random_rational(rng, span))


def brute_force_antichains(poset):
    """All antichains by filtering every subset with the pairwise oracle's
    ``is_antichain``; feasible for small posets."""
    ref = RootPosetReference(poset.system)
    n = poset.size
    out = []
    for mask in range(1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        if ref.is_antichain(members):
            out.append(members)
    out.sort(key=lambda a: (len(a), a))
    return out


def brute_force_increasing_sets(poset):
    """All upward-closed subsets by filtering every subset with the
    pairwise oracle's ``is_increasing``."""
    ref = RootPosetReference(poset.system)
    n = poset.size
    out = set()
    for mask in range(1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if ref.is_increasing(members):
            out.add(members)
    return out


class NotIncreasing(ValueError):
    pass


class RootPosetReference:
    """Oracle for rootposet.RootPoset: the earlier n x n boolean order.

    It fills ``_leq`` pairwise, scans it in every query, lists incomparable
    roots for the antichain search and finds the Hasse covers by an O(n^3)
    transitive reduction.  Its set queries (``minimals``, ``maximals``,
    ``is_increasing`` and ``complement_maximals``) have no counterpart in
    RootPoset, whose census reads increasing sets as masks.
    """

    def __init__(self, system):
        self.system = system
        n = len(system.positives)
        self.size = n
        coeffs = [r.coeffs for r in system.positives]
        # beta <= gamma iff every simple coefficient of gamma - beta is >= 0
        self._leq = [
            [all(sgn(cj - ci) >= 0 for ci, cj in zip(coeffs[i], coeffs[j]))
             for j in range(n)]
            for i in range(n)
        ]

    def leq(self, i, j):
        return self._leq[i][j]

    def comparable(self, i, j):
        return self._leq[i][j] or self._leq[j][i]

    def minimals(self, roots):
        roots = set(roots)
        return tuple(sorted(
            i for i in roots
            if not any(self._leq[j][i] for j in roots if j != i)))

    def maximals(self, roots):
        roots = set(roots)
        return tuple(sorted(
            i for i in roots
            if not any(self._leq[i][j] for j in roots if j != i)))

    def is_antichain(self, roots):
        roots = tuple(roots)
        return all(not self.comparable(a, b)
                   for k, a in enumerate(roots) for b in roots[k + 1:])

    def is_increasing(self, roots):
        roots = set(roots)
        return all(j in roots
                   for i in roots for j in range(self.size) if self._leq[i][j])

    def ideal(self, antichain):
        if not self.is_antichain(antichain):
            raise NotAntichain(f"{antichain} is not an antichain")
        return frozenset(
            j for j in range(self.size)
            if any(self._leq[i][j] for i in antichain))

    def complement_maximals(self, increasing):
        if not self.is_increasing(increasing):
            raise NotIncreasing(f"{set(increasing)} is not upward closed")
        return self.maximals(set(range(self.size)) - set(increasing))

    def antichains(self):
        found = []
        incomp = [[j for j in range(i + 1, self.size)
                   if not self.comparable(i, j)] for i in range(self.size)]
        incomp_sets = [set(c) for c in incomp]

        def extend(current, candidates):
            found.append(tuple(current))
            for k, i in enumerate(candidates):
                current.append(i)
                extend(current, [j for j in candidates[k + 1:]
                                 if j in incomp_sets[i]])
                current.pop()

        extend([], list(range(self.size)))
        found.sort(key=lambda a: (len(a), a))
        return found

    def maximal_antichains(self):
        out = []
        for a in self.antichains():
            members = set(a)
            if all(any(self.comparable(i, j) for j in members)
                   for i in range(self.size) if i not in members):
                if a:
                    out.append(a)
        return out

    def hasse(self):
        n = self.size
        strict = [[self._leq[i][j] and i != j for j in range(n)]
                  for i in range(n)]
        edges = []
        rs = self.system
        for i in range(n):
            for j in range(n):
                if not strict[i][j]:
                    continue
                if any(strict[i][k] and strict[k][j] for k in range(n)):
                    continue
                simple = False
                for s in range(rs.rank):
                    refl = rs.reflect(s, rs.positives[i].coeffs)
                    if refl == rs.positives[j].coeffs:
                        simple = True
                        break
                edges.append((i, j, simple))
        return edges


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


def bounded_lp(ref, antichain):
    """Boundedness by LP: is the region's recession cone in the chamber {0}?

    Maximises sum(d) over d >= 0 with (d|gamma) <= 0 for gamma in I^c_max
    and sum(d) <= 1; the cone is trivial iff the optimum is zero.  ``ref``
    is a RootPosetReference, which finds I^c_max.
    """
    rs = ref.system
    zero, one = rs.zero, rs.one
    n = rs.rank
    icmax = ref.complement_maximals(ref.ideal(antichain))
    rows = [(rs.positives[i].coeffs, zero) for i in icmax]
    rows.append(([one] * n, one))
    status, _, _, opt = lp_solve(n, [one] * n, rows, zero, one)
    if status == "unbounded":
        return False
    return sgn(opt) == 0


class DimensionMismatch(ValueError):
    pass


def append_row(tab, coeffs, rhs, s, units):
    """Append the row s*(coeffs | rhs) to an ``_IntRows`` or ``_ScalarRows``
    tableau, with the unit entries ``units`` (column -> +-1)."""
    if isinstance(tab, _ScalarRows):
        tab.append_root(coeffs if s > 0 else [-c for c in coeffs], units)
        tab.rows[-1][tab.total] = rhs if s > 0 else -rhs
        return
    x, y, d = int_row([*coeffs, rhs], tab.rel)
    tab.append_root(([s * v for v in x[:-1]], [s * v for v in y[:-1]], d),
                    units)
    X, Y, _ = tab.rows[-1]
    X[tab.total], Y[tab.total] = s * x[-1], s * y[-1]


def tableau(n, objective, rows, zero, one):
    """Oracle for the written tableaux: the generic assembly of
    max objective.x s.t. rows, x >= 0, for ``lp_max``.

    rows: list of (coeffs, rhs) meaning coeffs . x <= rhs.  Columns: n
    structural, m slacks, one artificial per row with a negative rhs (that
    row is negated), then the rhs.  Exact fields split each scalar row into
    ints with ``int_row``; Approx keeps the scalars.
    """
    m = len(rows)
    for coeffs, _ in rows:
        if len(coeffs) != n:
            raise DimensionMismatch("row length != n")
    flipped = [sgn(rhs) < 0 for _, rhs in rows]
    storage = _ScalarRows if isinstance(zero, Approx) else _IntRows
    tab = storage(n, m, sum(flipped), zero, one)
    art = n + m
    for i, ((coeffs, rhs), neg) in enumerate(zip(rows, flipped)):
        if neg:
            append_row(tab, coeffs, rhs, -1, {n + i: -1, art: 1})
            tab.basis.append(art)
            art += 1
        else:
            append_row(tab, coeffs, rhs, 1, {n + i: 1})
            tab.basis.append(n + i)
    append_row(tab, objective, zero, 1, {})
    if tab.arts:
        tab.append_sum([i for i, neg in enumerate(flipped) if neg], tab.arts)
    return tab


def lp_solve(n, objective, rows, zero, one):
    """max objective.x s.t. rows, x >= 0, by feasibility.lp_max.

    rows: list of (coeffs, rhs) meaning coeffs . x <= rhs.  Returns
    (status, x, duals, optimum) like lp_max_reference: at an optimum the
    duals are for the rows as given, after "infeasible" they are the
    phase-1 duals and x and optimum are None, and all three are None when
    the LP is unbounded.
    """
    tab = tableau(n, objective, rows, zero, one)
    status = lp_max(tab)
    if status == "unbounded":
        return status, None, None, None
    if status == "infeasible":
        return status, None, tab.duals(), None
    x = tab.x()
    return (status, x, tab.duals(),
            sum((c * v for c, v in zip(objective, x)), zero))


def slack_lp(sys, zero, one):
    """(columns, objective, rows) of the slack LP of a strict system: max t
    over x >= 0 with (a|x) - t >= b for its strict_ge rows, (a|x) + t <= b
    for its strict_le rows, and t <= 1, each row as a <= row."""
    n = sys.n
    rows = [([zero - c for c in a] + [one], zero - b) for a, b in sys.strict_ge]
    rows += [(list(a) + [one], b) for a, b in sys.strict_le]
    rows.append(([zero] * n + [one], one))
    return n + 1, [zero] * n + [one], rows


def order_lp(poset, imin, icmax):
    """(columns, objective, rows) of the order-certificate LP as scalar rows:
    convex weights c on I_min and d on I^c_max (each sum as a pair of <=
    rows), sum(c*beta) - sum(d*gamma) <= 0 in every simple coordinate, and
    the objective minus the sum of those coordinate rows."""
    rs = poset.system
    zero, one = rs.zero, rs.one
    k, nv = len(imin), len(imin) + len(icmax)
    rows = []
    for idx in (range(k), range(k, nv)):
        sel = [one if j in idx else zero for j in range(nv)]
        rows.append((sel, one))
        rows.append(([zero - s for s in sel], zero - one))
    objective = [zero] * nv
    for s in range(rs.rank):
        coeffs = [rs.positives[i].coeffs[s] for i in imin]
        coeffs += [zero - rs.positives[i].coeffs[s] for i in icmax]
        rows.append((coeffs, zero))
        objective = [o - c for o, c in zip(objective, coeffs)]
    return nv, objective, rows


def order_certificate_generic(poset, imin, icmax):
    """Oracle for ``order_certificate``: its LP on ``order_lp``'s scalar rows
    through ``tableau``, with the optimum's sign read as that of the
    objective at x."""
    if not imin or not icmax:
        return None
    rs = poset.system
    nv, objective, rows = order_lp(poset, imin, icmax)
    status, x, _, opt = lp_solve(nv, objective, rows, rs.zero, rs.one)
    if status != "optimal" or sgn(opt) <= 0:
        return None
    k = len(imin)
    lower = [(i, x[j]) for j, i in enumerate(imin) if not is_zero(x[j])]
    upper = [(i, x[k + j]) for j, i in enumerate(icmax) if not is_zero(x[k + j])]
    return OrderCertificate(lower, upper)


def solve(sys, zero, one):
    """Oracle for the region LP: a strict system in the chamber coordinates v.

    The system holds the chamber rows v_i > 0 among its strict_ge rows, so
    v >= 0 is given and v itself is the LP's nonnegative columns, next to a
    uniform margin t (capped at 1) maximised over the strict rows.  On
    failure the duals, once the chamber rows absorb what they leave on v,
    give a Farkas certificate.  Raises ValueError on equalities or on a
    missing chamber row.
    """
    if sys.equalities:
        raise ValueError("solve takes strict rows only")
    n = sys.n
    chamber = [sys.strict_ge.index(row) for row in _chamber_rows(n, zero, one)]
    _, objective, rows = slack_lp(sys, zero, one)
    status, x, duals, opt = lp_solve(n + 1, objective, rows, zero, one)
    if status == "unbounded":  # t is capped, so never reached
        raise RuntimeError("slack LP unbounded")

    # opt is None when even the weak (closed) system is empty
    if opt is not None:
        if near_tie(opt):
            return FeasibilityResult("Degenerate")
        if sgn(opt) > 0:
            return FeasibilityResult("Feasible", witness=tuple(x[:n]))

    # the duals combine the rows into 0 > c0 >= 0 up to a remainder r >= 0
    # on v, which the chamber rows v_i > 0 absorb
    ge = len(sys.strict_ge)
    lam_ge = duals[:ge]
    for i, k in enumerate(chamber):
        lam_ge[k] += sum((y * a[i] for y, (a, _) in zip(duals, rows)), zero)
    cert = {"ge": lam_ge, "le": duals[ge:-1], "eq": []}
    check_farkas(sys, cert, zero)
    return FeasibilityResult("Infeasible", certificate=cert)


def solve_reference(sys, zero, one):
    """Oracle for ``solve``: the general strict/equality slack LP.

    Free variables are split into positive and negative parts; a uniform
    margin t (capped at 1) is maximised over the strict constraints.
    """
    n = sys.n
    nv = 2 * n + 1  # p, q, t
    t_col = 2 * n

    def xrow(a, tcoef):
        if len(a) != n:
            raise DimensionMismatch("constraint length != n")
        return list(a) + [zero - ai for ai in a] + [tcoef]

    rows = []
    kinds = []
    for a, b in sys.strict_ge:
        rows.append(([zero - v for v in xrow(a, zero - one)[:nv - 1]] + [one], zero - b))
        kinds.append("ge")
    for a, b in sys.strict_le:
        rows.append((xrow(a, one), b))
        kinds.append("le")
    for a, b in sys.equalities:
        rows.append((xrow(a, zero), b))
        kinds.append("eq+")
        rows.append(([zero - v for v in xrow(a, zero)], zero - b))
        kinds.append("eq-")
    rows.append(([zero] * t_col + [one], one))
    kinds.append("cap")

    objective = [zero] * nv
    objective[t_col] = one
    status, x, duals, opt = lp_solve(nv, objective, rows, zero, one)
    if status == "unbounded":  # t is capped, so never reached
        raise RuntimeError("slack LP unbounded")

    # opt is None when even the weak (closed) system is empty
    if opt is not None:
        if near_tie(opt):
            return FeasibilityResult("Degenerate")
        if sgn(opt) > 0:
            witness = tuple(x[i] - x[n + i] for i in range(n))
            return FeasibilityResult("Feasible", witness=witness)

    # aggregate with weights lam_ge on (a.x > b), lam_le on (a.x < b) and a
    # signed mu on each equality cancels x and leaves 0 > c0 >= 0
    lam_ge, lam_le, mu = [], [], []
    for kind, y in zip(kinds, duals):
        if kind == "ge":
            lam_ge.append(y)
        elif kind == "le":
            lam_le.append(y)
        elif kind == "eq+":
            mu.append(zero - y)
        elif kind == "eq-":
            mu[-1] = mu[-1] + y
    cert = {"ge": lam_ge, "le": lam_le, "eq": mu}
    check_farkas(sys, cert, zero)
    return FeasibilityResult("Infeasible", certificate=cert)


def int_c_lp(poset, antichain):
    """Feasibility of {(v|beta) = 1 for beta in antichain} inside the chamber."""
    if not antichain:
        raise EmptyAntichain("int_c needs a nonempty antichain")
    rs = poset.system
    sys = LinearSystem(
        rs.rank,
        equalities=[(rs.positives[i].coeffs, rs.one) for i in antichain],
        strict_ge=_chamber_rows(rs.rank, rs.zero, rs.one),
    )
    return solve_reference(sys, rs.zero, rs.one)


def int_c_digest(poset, antichains, digest):
    """Feed the status, witness and certificate of ``int_c`` on each
    antichain, as ``scalar_to_json`` writes them (a certificate as its
    [root, weight] pairs), into a hashlib digest; returns the results."""
    results = []
    for a in antichains:
        res = int_c(poset, a)
        cert = res.certificate and {
            side: [[i, scalar_to_json(w)] for i, w in weights]
            for side, weights in (("lower", res.certificate.lower),
                                  ("upper", res.certificate.upper))}
        witness = res.witness and [scalar_to_json(x) for x in res.witness]
        digest.update(json.dumps([res.status, witness, cert],
                                 sort_keys=True).encode())
        results.append(res)
    return results


def bijection_lp(poset):
    """Int_C by LP on every nonempty antichain: (bad, degenerate) lists."""
    bad, degenerate = [], []
    for a in poset.antichains():
        if not a:
            continue
        status = int_c_lp(poset, a).status
        if status == "Infeasible":
            bad.append(a)
        elif status == "Degenerate":
            degenerate.append(a)
    return bad, degenerate


def lp_max_reference(n, objective, rows, zero, one):
    """Oracle for ``lp_solve``: the earlier dense Bland simplex.

    It keeps no objective row and recomputes every reduced cost from the
    basis on each iteration, and it updates every column on each pivot.
    rows: list of (coeffs, rhs) meaning coeffs . x <= rhs.
    Returns (status, x, duals, optimum) like lp_solve.
    """
    m = len(rows)
    for coeffs, _ in rows:
        if len(coeffs) != n:
            raise DimensionMismatch("row length != n")

    nslack = m
    art_of_row = {}
    ncols = n + nslack  # artificials appended below
    tab = []
    flipped = []
    for i, (coeffs, rhs) in enumerate(rows):
        neg = sgn(rhs) < 0
        flipped.append(neg)
        row = [(-c if neg else c) for c in coeffs]
        row += [(-one if neg else one) if j == i else zero for j in range(nslack)]
        row.append(-rhs if neg else rhs)
        tab.append(row)
    basis = []
    for i in range(m):
        if flipped[i]:
            art_of_row[i] = ncols
            for r in range(m):
                tab[r].insert(len(tab[r]) - 1, one if r == i else zero)
            basis.append(ncols)
            ncols += 1
        else:
            basis.append(n + i)

    total = ncols

    def pivot(r, c):
        prow = tab[r]
        inv = one / prow[c]
        tab[r] = prow = [v * inv for v in prow]
        for k in range(m):
            if k == r:
                continue
            f = tab[k][c]
            if is_zero(f):
                continue
            tab[k] = [a - f * b for a, b in zip(tab[k], prow)]
        basis[r] = c

    def run_phase(cost, banned):
        # cost: full-length objective vector (maximisation)
        while True:
            # reduced costs r_j = cost_j - y . A_j with y = cost_basis . B^-1
            red = list(cost)
            for i, bi in enumerate(basis):
                cb = cost[bi]
                if is_zero(cb):
                    continue
                row = tab[i]
                red = [rj - cb * row[j] for j, rj in enumerate(red)]
            enter = -1
            for j in range(total):
                if j in banned or j in basis:
                    continue
                if sgn(red[j]) > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", red
            leave = -1
            best = None
            for i in range(m):
                a = tab[i][enter]
                if sgn(a) > 0:
                    ratio = tab[i][-1] / a
                    if best is None or sgn(ratio - best) < 0 or (
                            is_zero(ratio - best) and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", red
            pivot(leave, enter)

    arts = set(art_of_row.values())
    if arts:
        cost1 = [zero] * total
        for a in arts:
            cost1[a] = -one
        status, red = run_phase(cost1, banned=set())
        infeas = sum((tab[i][-1] for i in range(m) if basis[i] in arts), zero)
        if not is_zero(infeas):
            # even the weak system is empty; the phase-1 duals certify it
            # (lambda >= 0, lambda^T A >= 0, lambda^T b = -infeas < 0)
            duals = [zero - red[n + i] for i in range(m)]
            return "infeasible", None, duals, None
        # drive remaining zero-valued artificials out of the basis
        for i in range(m):
            if basis[i] in arts:
                for j in range(total):
                    if j not in arts and not is_zero(tab[i][j]):
                        pivot(i, j)
                        break

    cost2 = [zero] * total
    for j, cj in enumerate(objective):
        cost2[j] = cj
    status, red = run_phase(cost2, banned=arts)
    if status == "unbounded":
        return "unbounded", None, None, None

    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    # multiplier on row i (as given) is -reduced_cost(slack_i), for flipped
    # rows included: the slack column carries the flip sign already
    duals = [zero - red[n + i] for i in range(m)]
    opt = sum((cj * x[j] for j, cj in enumerate(objective)), zero)
    return "optimal", x, duals, opt


class QuadExtReference:
    """Oracle for exactfield.QuadExt: the earlier pair of Fractions ``a + b*rho``.

    Each component is a ``Fraction`` and every operation runs on them; the
    class is kept unchanged apart from its name.
    """

    __slots__ = ("a", "b", "rel")

    def __init__(self, a, b, rel):
        self.a = a if type(a) is not int else Q(a)
        self.b = b if type(b) is not int else Q(b)
        self.rel = rel

    def _coerce(self, other):
        if isinstance(other, QuadExtReference):
            if other.rel is not self.rel and other.rel != self.rel:
                raise TagMismatch(f"cannot mix {self.rel[2]} with {other.rel[2]}")
            return other
        if isinstance(other, _RATIONAL_TYPES):
            return QuadExtReference(Q(other), Q(0), self.rel)
        if isinstance(other, Approx):
            raise TagMismatch(f"cannot mix {self.rel[2]} with approx")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtReference(self.a + o.a, self.b + o.b, self.rel)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtReference(-self.a, -self.b, self.rel)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtReference(self.a - o.a, self.b - o.b, self.rel)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, _ = self.rel
        bb = self.b * o.b
        return QuadExtReference(self.a * o.a + q * bb, self.a * o.b + self.b * o.a + p * bb, self.rel)

    __rmul__ = __mul__

    def _norm(self):
        # (a + b*rho)(a + b*(p - rho)) = a^2 + p*a*b - q*b^2
        p, q, _ = self.rel
        return self.a * self.a + p * self.a * self.b - q * self.b * self.b

    def _conj(self):
        p, _, _ = self.rel
        return QuadExtReference(self.a + p * self.b, -self.b, self.rel)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o._norm()
        if n == 0:
            raise DivByZero("division by zero")
        c = o._conj()
        return QuadExtReference((self.a * c.a + self.rel[1] * self.b * c.b) / n,
                       (self.a * c.b + self.b * c.a + self.rel[0] * self.b * c.b) / n,
                       self.rel)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sign(self):
        # a + b*rho = (2a + p*b + b*sqrt(D)) / 2 with D = p^2 + 4q.
        p, q, _ = self.rel
        big_a = 2 * self.a + p * self.b
        big_b = self.b
        if big_b == 0:
            return _qsign(big_a)
        if big_a == 0:
            return _qsign(big_b)
        sa, sb = _qsign(big_a), _qsign(big_b)
        if sa == sb:
            return sa
        d = p * p + 4 * q
        cmp = _qsign(big_a * big_a - d * big_b * big_b)
        return sa * cmp if cmp else 0

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TagMismatch:
            return False
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # equal to a rational when b == 0, so hash like that rational
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.rel[2]))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, {self.rel[2]})"

    def __str__(self):
        return f"{self.a}{'+' if self.b >= 0 else ''}{self.b}{self.rel[2]}"

    def root_value(self):
        p, q, _ = self.rel
        return (p + mpmath.sqrt(p * p + 4 * q)) / 2

    def mpf(self):
        rho = self.root_value()
        return mpmath.mpf(int(self.a.numerator)) / int(self.a.denominator) + \
            rho * int(self.b.numerator) / int(self.b.denominator)
