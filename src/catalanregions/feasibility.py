"""Exact linear feasibility over an ordered field.

Int_C(A), the chamber points at level one on an antichain, is decided by
elimination: row reduction of the equalities, then Fourier-Motzkin over the
at most rank - 1 null-space parameters, which yields an exact witness or
the Farkas multipliers of a refutation.  Regions mix many strict rows and
go through the LP engine in the chamber coordinates v >= 0 themselves,
maximising a uniform slack t (capped at 1): the open polyhedron is nonempty
iff the optimum t* is positive.  On failure the simplex duals give a Farkas
certificate, once the chamber rows v_i > 0 absorb what they leave on v; for
empty dominant regions a second LP searches for the more readable root-order
certificate (a convex comparison between the two antichains bounding the
region).

On an exact field the simplex tableau holds ints, not scalars: a row is
integer numerators X, Y over one positive row denominator D, entry j being
(X[j] + Y[j]*rho)/D with rho**2 = p*rho + q (p = q = 0 and Y = 0 for
rationals).  Pivots multiply by conjugates over norms, signs use the
quadratic sign rule that ``QuadExt.sign`` uses, and only the results become
scalars.  Approx rows stay lists of scalars; one Bland driver runs both.
``exactfield.int_row`` defines the row format, and the same rows serve the
read-back: ``witness_sign_type`` signs each (v|beta) - 1 on the witness's
row and the poset's root rows, with no scalar arithmetic.

The census solves a region LP only for the antichains that no good maximal
antichain covers: on H4, 28 decision LPs and 16 certificates.  A propagated
verdict solves its witness LP on the first read of ``witness``, so H4's 401
witness LPs run only when the report is serialized, and the I2(6) and
I2(12) ratio sweeps, which read counts only, solve none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .exactfield import (
    Approx,
    QuadExt,
    _reduce,
    int_row,
    is_zero,
    near_tie,
    quad_sign,
    sgn,
)
from .rootposet import _extremes
from .rootsystem import evaluate


class DimensionMismatch(ValueError):
    pass


class EmptyAntichain(ValueError):
    pass


# ---------------------------------------------------------------------------
# core simplex: max c.x  s.t.  A x <= b,  x >= 0
# ---------------------------------------------------------------------------

def lp_max(n, objective, rows, zero, one):
    """Two-phase tableau simplex with Bland's anti-cycling rule.

    rows: list of (coeffs, rhs) meaning coeffs . x <= rhs.
    Returns (status, x, duals, optimum); status is "optimal", "unbounded" or
    "infeasible".  At an optimum the duals are for the rows as given and
    nonnegative.  "infeasible" means the rows admit no x >= 0 at all; its
    duals are the phase-1 duals, a Farkas combination (lambda >= 0,
    lambda^T A >= 0, lambda^T b < 0), and x and optimum are None.  All three
    are None when the LP is unbounded.

    Exact fields pivot on integer rows (``_IntRows``), Approx on scalar rows
    (``_ScalarRows``); both take the same pivots, so the results are the
    canonical scalars a scalar tableau would reach.
    """
    m = len(rows)
    for coeffs, _ in rows:
        if len(coeffs) != n:
            raise DimensionMismatch("row length != n")

    # columns: n structural, m slacks, one artificial per row with a
    # negative rhs (that row is negated), then the rhs
    flipped = [sgn(rhs) < 0 for _, rhs in rows]
    arts = set(range(n + m, n + m + sum(flipped)))
    total = n + m + len(arts)
    storage = _ScalarRows if isinstance(zero, Approx) else _IntRows
    tab = storage(zero, one, total)
    basis = []
    art = n + m
    for i, ((coeffs, rhs), neg) in enumerate(zip(rows, flipped)):
        if neg:
            tab.append(coeffs, rhs, -1, {n + i: -1, art: 1})
            basis.append(art)
            art += 1
        else:
            tab.append(coeffs, rhs, 1, {n + i: 1})
            basis.append(n + i)
    # objective rows hold the reduced costs of the current basis.  No
    # starting basic column has a phase-2 cost; phase 1 maximises
    # -sum(artificials), which prices out as the sum of the flipped rows.
    tab.append(objective, zero, 1, {})
    if arts:
        tab.append_sum([i for i, neg in enumerate(flipped) if neg], arts)
    in_basis = set(basis)

    def pivot(r, c):
        tab.pivot(r, c)
        in_basis.discard(basis[r])
        in_basis.add(c)
        basis[r] = c

    def run_phase(banned):
        # maximise the objective in the last row; False when unbounded
        rows, sign = tab.rows, tab.sign
        while True:
            red = rows[-1]
            enter = next((j for j in range(total) if j not in banned
                          and j not in in_basis and sign(red, j) > 0), -1)
            if enter < 0:
                return True
            # smallest ratio; a tie leaves on the smallest basic column
            leave = best = None
            for i in range(m):
                if sign(rows[i], enter) <= 0:
                    continue
                ratio = tab.ratio(rows[i], enter)
                if leave is not None:
                    s = tab.compare(ratio, best)
                    if s > 0 or (s == 0 and basis[i] > basis[leave]):
                        continue
                leave, best = i, ratio
            if leave is None:
                return False
            pivot(leave, enter)

    if arts:
        run_phase(banned=())
        phase1 = tab.rows.pop()
        if tab.sign(phase1, total):
            # the phase-1 optimum leaves sum(artificials) > 0: even the weak
            # system is empty, and the phase-1 duals certify it
            duals = [zero - tab.value(phase1, n + i) for i in range(m)]
            return "infeasible", None, duals, None
        # drive remaining zero-valued artificials out of the basis
        for i in range(m):
            if basis[i] in arts:
                for j in range(total):
                    if j not in arts and tab.sign(tab.rows[i], j):
                        pivot(i, j)
                        break

    if not run_phase(banned=arts):
        return "unbounded", None, None, None
    red = tab.rows[-1]
    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab.value(tab.rows[i], total)
    # multiplier on row i (as given) is -reduced_cost(slack_i), for flipped
    # rows included: the slack column carries the flip sign already
    duals = [zero - tab.value(red, n + i) for i in range(m)]
    opt = sum((cj * x[j] for j, cj in enumerate(objective)), zero)
    return "optimal", x, duals, opt


class _ScalarRows:
    """Tableau rows as lists of scalars, for the Approx backend."""

    def __init__(self, zero, one, total):
        self.zero, self.one, self.total = zero, one, total
        self.rows = []

    def append(self, coeffs, rhs, s, units):
        """Row s*(coeffs | rhs) with the unit entries ``units`` (column -> +-1)."""
        zero, one, total = self.zero, self.one, self.total
        row = [zero] * (total + 1)
        row[:len(coeffs)] = coeffs if s > 0 else [-c for c in coeffs]
        for j, u in units.items():
            row[j] = one if u > 0 else -one
        row[total] = rhs if s > 0 else -rhs
        self.rows.append(row)

    def append_sum(self, indices, zeroed):
        """The sum of the rows at ``indices``, zero on the ``zeroed`` columns."""
        zero = self.zero
        flips = [self.rows[i] for i in indices]
        row = [sum((r[j] for r in flips), zero) for j in range(self.total + 1)]
        for j in zeroed:
            row[j] = zero
        self.rows.append(row)

    def sign(self, row, j):
        return sgn(row[j])

    def value(self, row, j):
        return row[j]

    def ratio(self, row, j):
        return row[self.total] / row[j]

    def compare(self, a, b):
        return sgn(a - b)

    def pivot(self, r, c):
        tab = self.rows
        inv = self.one / tab[r][c]
        tab[r] = prow = [v * inv for v in tab[r]]
        nonzero = [j for j, v in enumerate(prow) if not is_zero(v)]
        for k, row in enumerate(tab):
            f = row[c]
            if k == r or is_zero(f):
                continue
            for j in nonzero:
                row[j] -= f * prow[j]


class _IntRows:
    """Exact tableau rows as ints, for rationals and the quadratic fields.

    A row is ``[X, Y, D]``: two int lists over one int D > 0, so entry j is
    (X[j] + Y[j]*rho)/D with rho**2 = p*rho + q from ``zero.rel``; rationals
    take p = q = 0 and keep Y zero.  Every row whose D is not 1 is kept in
    lowest terms, gcd(*X, *Y, D) == 1, so D is the least common denominator
    of the row and entries grow no faster than the values they stand for.
    """

    def __init__(self, zero, one, total):
        self.rel = zero.rel if isinstance(zero, QuadExt) else None
        self.p, self.q = self.rel[:2] if self.rel else (0, 0)
        self.total = total
        self.rows = []

    def append(self, coeffs, rhs, s, units):
        """Row s*(coeffs | rhs) with the unit entries ``units`` (column -> +-1)."""
        x, y, d = int_row([*coeffs, rhs], self.rel)
        pad = [0] * (self.total - len(coeffs))
        X = [s * v for v in x[:-1]] + pad + [s * x[-1]]
        Y = [s * v for v in y[:-1]] + pad + [s * y[-1]]
        for j, u in units.items():
            X[j] = u * d
        self.rows.append([X, Y, d])

    def append_sum(self, indices, zeroed):
        """The sum of the rows at ``indices``, zero on the ``zeroed`` columns."""
        flips = [self.rows[i] for i in indices]
        d = lcm(*(r[2] for r in flips))
        X, Y = [0] * (self.total + 1), [0] * (self.total + 1)
        for rx, ry, rd in flips:
            f = d // rd
            X = [a + f * b for a, b in zip(X, rx)]
            Y = [a + f * b for a, b in zip(Y, ry)]
        for j in zeroed:
            X[j] = Y[j] = 0
        self.rows.append(_lowest(X, Y, d))

    def sign(self, row, j):
        return quad_sign(row[0][j], row[1][j], self.p, self.q)

    def value(self, row, j):
        X, Y, d = row
        if self.rel is None:
            return Fraction(X[j], d)
        return _reduce(X[j], Y[j], d, self.rel)

    def ratio(self, row, j):
        # b/a with the row denominator cancelled, as numerators (bx, by, ax, ay)
        X, Y, _ = row
        return X[self.total], Y[self.total], X[j], Y[j]

    def compare(self, u, v):
        # u = b1/a1 and v = b2/a2 with a1, a2 > 0: the sign of b1*a2 - b2*a1
        p, q = self.p, self.q
        b1x, b1y, a1x, a1y = u
        b2x, b2y, a2x, a2y = v
        return quad_sign(b1x * a2x + q * b1y * a2y - b2x * a1x - q * b2y * a1y,
                         b1x * a2y + b1y * a2x + p * b1y * a2y
                         - b2x * a1y - b2y * a1x - p * b2y * a1y, p, q)

    def pivot(self, r, c):
        """Divide row r by its entry in column c, then clear column c elsewhere.

        1/P for P = x + y*rho is conj(P)/N(P), with conj(P) = (x + p*y) - y*rho
        and N(P) = x^2 + p*x*y - q*y^2, so the new pivot row is exact over
        the denominator |N(P)| and needs no division.  Another row K over
        D_k with entry F in column c becomes (K*D - F*R)/(D_k*D), for R over
        D the new pivot row; only R's nonzero columns change beyond the
        rescaling.
        """
        p, q = self.p, self.q
        rows = self.rows
        X, Y, _ = rows[r]
        px, py = X[c], Y[c]
        if py == 0:  # a rational pivot: divide by px itself
            if px < 0:
                X, Y, px = [-v for v in X], [-v for v in Y], -px
            d = px
        else:
            cx, cy = px + p * py, -py
            d = px * cx - q * py * py
            if d < 0:
                cx, cy, d = -cx, -cy, -d
            qcy, ccy = q * cy, cx + p * cy
            X, Y = ([x * cx + qcy * y for x, y in zip(X, Y)],
                    [x * cy + y * ccy for x, y in zip(X, Y)])
        rows[r] = prow = _lowest(X, Y, d)
        X, Y, d = prow
        nonzero = [j for j, (x, y) in enumerate(zip(X, Y)) if x or y]
        for k, row in enumerate(rows):
            KX, KY, kd = row
            fx, fy = KX[c], KY[c]
            if k == r or not (fx or fy):
                continue
            if d != 1:
                KX, KY, kd = [v * d for v in KX], [v * d for v in KY], kd * d
            # F*R[j] = (fx*x + q*fy*y) + ((fx + p*fy)*y + fy*x)*rho
            qfy, gx = q * fy, fx + p * fy
            for j in nonzero:
                x, y = X[j], Y[j]
                KX[j] -= fx * x + qfy * y
                KY[j] -= gx * y + fy * x
            rows[k] = _lowest(KX, KY, kd)


def _lowest(X, Y, d):
    """The row [X, Y, d] divided by gcd(*X, *Y, d); no gcd is taken when d is 1."""
    if d != 1:
        g = gcd(*X, *Y, d)
        if g != 1:
            X, Y, d = [v // g for v in X], [v // g for v in Y], d // g
    return [X, Y, d]


# ---------------------------------------------------------------------------
# strict systems via the uniform-slack LP
# ---------------------------------------------------------------------------

@dataclass
class LinearSystem:
    n: int
    equalities: list = field(default_factory=list)   # (coeffs, rhs)
    strict_ge: list = field(default_factory=list)    # coeffs . x >  rhs
    strict_le: list = field(default_factory=list)    # coeffs . x <  rhs


@dataclass
class FeasibilityResult:
    status: str                  # "Feasible" | "Infeasible" | "Degenerate"
    witness: tuple | None = None
    farkas: dict | None = None   # {"ge": [...], "le": [...], "eq": [...]}


def solve(sys, zero, one):
    """Decide a region system: strict rows in the chamber coordinates v.

    The system holds the chamber rows v_i > 0 among its strict_ge rows, so
    v >= 0 is given and v itself is the LP's nonnegative columns, next to a
    uniform margin t (capped at 1) maximised over the strict rows.  Raises
    ValueError on equalities or on a missing chamber row.
    """
    if sys.equalities:
        raise ValueError("solve takes strict rows only")
    n = sys.n
    chamber = [sys.strict_ge.index(row) for row in _chamber_rows(n, zero, one)]
    rows = [([zero - c for c in a] + [one], zero - b) for a, b in sys.strict_ge]
    rows += [(list(a) + [one], b) for a, b in sys.strict_le]
    rows.append(([zero] * n + [one], one))
    status, x, duals, opt = lp_max(n + 1, [zero] * n + [one], rows, zero, one)
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
    return FeasibilityResult("Infeasible", farkas=cert)


def check_farkas(sys, cert, zero):
    """Re-substitute a Farkas certificate; raises if it does not refute the system."""
    n = sys.n
    combo = [zero] * n
    c0 = zero
    strict_mass = zero
    for (a, b), lam in zip(sys.strict_ge, cert["ge"]):
        if sgn(lam) < 0:
            raise AssertionError("negative multiplier")
        combo = [ci + lam * ai for ci, ai in zip(combo, a)]
        c0 = c0 + lam * b
        strict_mass = strict_mass + lam
    for (a, b), lam in zip(sys.strict_le, cert["le"]):
        if sgn(lam) < 0:
            raise AssertionError("negative multiplier")
        combo = [ci - lam * ai for ci, ai in zip(combo, a)]
        c0 = c0 - lam * b
        strict_mass = strict_mass + lam
    for (a, b), m in zip(sys.equalities, cert["eq"]):
        combo = [ci + m * ai for ci, ai in zip(combo, a)]
        c0 = c0 + m * b
    if any(not is_zero(ci) for ci in combo):
        raise AssertionError("certificate does not cancel the variables")
    # combination reads: 0 = combo . x  >=/> c0 while c0 >= 0 (strict part > 0)
    if sgn(c0) < 0:
        raise AssertionError("certificate constant is negative")
    if is_zero(strict_mass) and is_zero(c0):
        raise AssertionError("certificate refutes nothing")
    return True


# ---------------------------------------------------------------------------
# region-level operations
# ---------------------------------------------------------------------------

@dataclass
class OrderCertificate:
    lower: list      # (root index, convex weight) over I_min
    upper: list      # (root index, convex weight) over I^c_max


@dataclass
class RegionVerdict:
    antichain: tuple
    status: str               # "NonEmpty" | "Empty" | "Degenerate"
    certificate: object = None  # OrderCertificate or farkas dict
    bounded: bool | None = None
    method: str = "LP"        # "Propagated" | "LP"
    poset: object = field(default=None, repr=False, compare=False)

    @cached_property
    def witness(self):
        """A chamber point of the region, or None unless it is NonEmpty.

        ``region_status`` sets the witness of the LP it decided by.  A
        verdict decided without an LP solves the same region LP on its
        first read, which must find the region nonempty.
        """
        if self.status != "NonEmpty":
            return None
        solved = region_status(self.poset, self.antichain)
        if solved.witness is None:
            raise AssertionError(
                f"propagation marked {self.antichain} nonempty "
                f"but the LP disagrees")
        return solved.witness


def _chamber_rows(n, zero, one):
    return [(tuple(one if j == i else zero for j in range(n)), zero)
            for i in range(n)]


def int_c(poset, antichain):
    """Int_C(A) = {v > 0 : (v|beta) = 1 for beta in A}, decided by elimination.

    Row reduction solves the equalities as v = v0 + N s over the null-space
    parameters s, and drops consistent dependent rows; an inconsistent one
    is refuted by its row combination alone.  The chamber rows v_i > 0 then
    become strict rows in s, and Fourier-Motzkin elimination removes one
    parameter at a time, each row carrying its nonnegative multipliers over
    the chamber rows.  A final constant <= 0 makes those multipliers a
    Farkas certificate; otherwise back-substitution through the open
    intervals of each level gives an exact witness.
    """
    if not antichain:
        raise EmptyAntichain("int_c needs a nonempty antichain")
    rs = poset.system
    zero, one = rs.zero, rs.one
    n, k = rs.rank, len(antichain)
    sys = LinearSystem(
        n,
        equalities=[(rs.positives[i].coeffs, one) for i in antichain],
        strict_ge=_chamber_rows(n, zero, one),
    )

    def refuted(lam, mu):
        cert = {"ge": lam, "le": [], "eq": mu}
        check_farkas(sys, cert, zero)
        return FeasibilityResult("Infeasible", farkas=cert)

    # reduced row echelon form of [B | 1]; combos[r] writes row r as a
    # combination of the equalities as given
    rows = [list(a) + [b] for a, b in sys.equalities]
    combos = [[one if j == i else zero for j in range(k)] for i in range(k)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, k) if not is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        combos[r], combos[piv] = combos[piv], combos[r]
        inv = one / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        combos[r] = [x * inv for x in combos[r]]
        for i in range(k):
            f = rows[i][col]
            if i != r and not is_zero(f):
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                combos[i] = [x - f * y for x, y in zip(combos[i], combos[r])]
        pivots.append(col)
    for row, combo in zip(rows[len(pivots):], combos[len(pivots):]):
        # the row reads 0 = row[n]; a nonzero constant refutes the equalities
        if not is_zero(row[n]):
            if sgn(row[n]) < 0:
                combo = [zero - x for x in combo]
            return refuted([zero] * n, combo)

    # chamber row i as (g, h, lam): g + h.s > 0, lam its chamber multipliers
    free = [c for c in range(n) if c not in pivots]
    chamber = [None] * n
    for t, c in enumerate(free):
        chamber[c] = (zero, [one if u == t else zero for u in range(len(free))])
    for r, c in enumerate(pivots):
        chamber[c] = (rows[r][n], [zero - rows[r][f] for f in free])
    level = [(g, h, [one if j == i else zero for j in range(n)])
             for i, (g, h) in enumerate(chamber)]

    levels = []
    for t in range(len(free)):
        levels.append(level)
        signs = [sgn(h[t]) for _, h, _ in level]
        nxt = [row for row, sg in zip(level, signs) if sg == 0]
        for (gp, hp, lp), sp in zip(level, signs):
            if sp <= 0:
                continue
            for (gq, hq, lq), sq in zip(level, signs):
                if sq >= 0:
                    continue
                # positive weights a, b cancel the s_t coefficient
                a, b = zero - hq[t], hp[t]
                nxt.append((a * gp + b * gq,
                            [a * x + b * y for x, y in zip(hp, hq)],
                            [a * x + b * y for x, y in zip(lp, lq)]))
        level = nxt

    for g, _, lam in level:
        if sgn(g) <= 0 and not near_tie(g):
            # sum(lam_i v_i) is the constant g on the equalities' solution
            # set, so it equals sum(nu_k beta_k) with sum(nu_k) = g
            mu = [zero] * k
            for r, c in enumerate(pivots):
                mu = [y - lam[c] * x for y, x in zip(mu, combos[r])]
            return refuted(lam, mu)
    if any(near_tie(g) for g, _, _ in level):
        return FeasibilityResult("Degenerate")

    # back-substitute: each level bounds its parameter by open intervals,
    # and the chamber row s_t > 0 is always among the lower bounds.  While
    # s_t is chosen, it and the parameters eliminated before it are zero.
    s = [zero] * len(free)

    def at(g, h):
        return sum((x * y for x, y in zip(h, s)), g)

    for t in reversed(range(len(free))):
        lo = hi = None
        for g, h, _ in levels[t]:
            sg = sgn(h[t])
            if sg == 0:
                continue
            bound = (zero - at(g, h)) / h[t]
            if sg > 0 and (lo is None or sgn(bound - lo) > 0):
                lo = bound
            elif sg < 0 and (hi is None or sgn(bound - hi) < 0):
                hi = bound
        s[t] = lo + one if hi is None else (lo + hi) / 2
    return FeasibilityResult(
        "Feasible", witness=tuple(at(g, h) for g, h in chamber))


def region_system(poset, antichain):
    rs = poset.system
    icmax = _extremes(poset._full & ~poset.ideal_mask(antichain), poset._up)
    sys = LinearSystem(
        rs.rank,
        strict_ge=[(rs.positives[i].coeffs, rs.one) for i in antichain]
        + _chamber_rows(rs.rank, rs.zero, rs.one),
        strict_le=[(rs.positives[i].coeffs, rs.one) for i in icmax],
    )
    return sys, icmax


def region_status(poset, antichain):
    """Decide emptiness of the dominant region of an antichain (maybe empty),
    and the boundedness of a nonempty one."""
    rs = poset.system
    sys, icmax = region_system(poset, antichain)
    res = solve(sys, rs.zero, rs.one)
    verdict = RegionVerdict(tuple(antichain), "NonEmpty")
    if res.status == "Feasible":
        verdict.witness = res.witness
        verdict.bounded = bounded(poset, antichain)
    elif res.status == "Degenerate":
        verdict.status = "Degenerate"
    else:
        verdict.status = "Empty"
        cert = order_certificate(poset, tuple(antichain), icmax)
        if cert is None:
            cert = res.farkas
        elif not check_order_certificate(poset, cert):
            raise AssertionError(
                f"order certificate of {tuple(antichain)} does not check")
        verdict.certificate = cert
    return verdict


def order_certificate(poset, imin, icmax):
    """Convex weights with sum(d*gamma) - sum(c*beta) in the nonneg cone, if any.

    Such a comparison sum(c*beta) < sum(d*gamma) in the root order refutes the
    region directly: any interior point would evaluate above 1 on the left
    and below 1 on the right.
    """
    if not imin or not icmax:
        return None
    rs = poset.system
    zero, one = rs.zero, rs.one
    k, l = len(imin), len(icmax)
    nv = k + l
    lower_roots = [rs.positives[i].coeffs for i in imin]
    upper_roots = [rs.positives[i].coeffs for i in icmax]

    rows = []
    # convex weights: sum c = 1, sum d = 1 (as pairs of <= rows)
    for idx in (range(k), range(k, nv)):
        sel = [one if j in idx else zero for j in range(nv)]
        rows.append((sel, one))
        rows.append(([zero - s for s in sel], zero - one))
    # componentwise sum(d*gamma) - sum(c*beta) >= 0
    diff_rows = []
    for s in range(rs.rank):
        coeffs = [lower_roots[j][s] for j in range(k)] + \
                 [zero - upper_roots[j][s] for j in range(l)]
        diff_rows.append(coeffs)
        rows.append((coeffs, zero))
    objective = [zero] * nv
    for coeffs in diff_rows:
        objective = [o - c for o, c in zip(objective, coeffs)]

    status, x, _, opt = lp_max(nv, objective, rows, zero, one)
    if status != "optimal" or sgn(opt) <= 0:
        return None
    lower = [(i, x[j]) for j, i in enumerate(imin) if not is_zero(x[j])]
    upper = [(i, x[k + j]) for j, i in enumerate(icmax) if not is_zero(x[k + j])]
    return OrderCertificate(lower, upper)


def check_order_certificate(poset, cert):
    """Independent verification of a convex root-order comparison."""
    rs = poset.system
    zero = rs.zero
    for _, w in cert.lower + cert.upper:
        if sgn(w) < 0:
            return False
    for weights in (cert.lower, cert.upper):
        if sum((w for _, w in weights), zero) != rs.one:
            return False
    diff = [zero] * rs.rank
    for i, w in cert.upper:
        diff = [d + w * c for d, c in zip(diff, rs.positives[i].coeffs)]
    for i, w in cert.lower:
        diff = [d - w * c for d, c in zip(diff, rs.positives[i].coeffs)]
    return all(sgn(d) >= 0 for d in diff) and any(sgn(d) > 0 for d in diff)


def bounded(poset, antichain):
    """True iff every support mask meets the roots outside the ideal I(A).

    A recession direction d >= 0 has (d|gamma) <= 0 for gamma outside I(A),
    so d vanishes on supp(gamma): the region is bounded iff that forces d = 0.
    """
    inside = poset.ideal_mask(antichain)
    return all(support & ~inside for support in poset.supports)


def witness_sign_type(poset, witness):
    """Increasing set read off a point of an open region: roots with (v|beta) > 1.

    None unless every v_i > 0 and no (v|beta) is 1: a point off its region
    never reads back the region's ideal.  Raises ValueError when the point
    does not have the system's rank, and TagMismatch on a scalar of another
    field.  On an exact field v becomes one integer row (VX, VY, D), and each
    (v|beta) - 1 is signed on ints against the poset's root row (A, B, E):
    it has the sign of sum((VX + VY*rho)(A + B*rho)) - D*E.
    """
    rs = poset.system
    if len(witness) != rs.rank:
        raise ValueError("dimension mismatch")
    if poset.rows is None:
        signs = [sgn(evaluate(witness, r) - rs.one) for r in rs.positives]
        if 0 in signs or any(sgn(x) <= 0 for x in witness):
            return None
        return frozenset(i for i, s in enumerate(signs) if s > 0)
    vx, vy, d = int_row(witness, poset.rel)
    p, q = poset.rel[:2] if poset.rel else (0, 0)
    if any(quad_sign(x, y, p, q) <= 0 for x, y in zip(vx, vy)):
        return None
    above = []
    for i, (a, b, e) in enumerate(poset.rows):
        # (x + y*rho)(a + b*rho) = (x*a + q*y*b) + (x*b + y*a + p*y*b)*rho
        sx = sy = 0
        for x, y, ai, bi in zip(vx, vy, a, b):
            yb = y * bi
            sx += x * ai + q * yb
            sy += x * bi + y * ai + p * yb
        s = quad_sign(sx - d * e, sy, p, q)
        if s > 0:
            above.append(i)
        elif not s:
            return None
    return frozenset(above)
