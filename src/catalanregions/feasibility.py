"""Exact linear feasibility over an ordered field.

Int_C(A), the chamber points at level one on an antichain, is decided by
one elimination on the LPs' rows: row reduction of the equalities with
their pivot, then Fourier-Motzkin over the at most rank - 1 free columns,
which yields an exact witness or a refutation whose Farkas certificate is
read off the refuting row.  Regions mix many
strict rows and go through the LP engine in the chamber coordinates v >= 0
themselves, maximising a uniform slack t (capped at 1): the open polyhedron
is nonempty iff the optimum t* is positive.  An empty dominant region is
certified only by a second LP's root-order certificate, a convex comparison
between the two antichains bounding the region; of the census's systems
only H4 has empty regions.

On an exact field the simplex tableau holds ints, not scalars: a row is
integer numerators X, Y over one positive row denominator D, entry j being
(X[j] + Y[j]*rho)/D with rho**2 = p*rho + q (p = q = 0 and Y = 0 for
rationals).  Pivots multiply by conjugates over norms, signs use the
quadratic sign rule that ``QuadExt.sign`` uses, and only the values read
back become scalars.  Approx rows stay lists of scalars; one Bland driver,
``lp_max``, runs both.  ``exactfield.int_row`` defines the row format.  Both
LPs' tableaux and Int_C's [B | 1] are written in their final form from the
poset's integer root rows (the roots' coefficient tuples on Approx, which
runs no order LP), with no scalar arithmetic, and the same root rows serve
the read-back: ``witness_sign_type`` signs each (v|beta) - 1 on the
witness's row and the root rows.

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


class EmptyAntichain(ValueError):
    pass


# ---------------------------------------------------------------------------
# core simplex: max c.x  s.t.  A x <= b,  x >= 0
# ---------------------------------------------------------------------------

def lp_max(tab):
    """Two-phase tableau simplex with Bland's anti-cycling rule, in place.

    ``tab`` is a tableau written by ``_region_tableau`` or
    ``_order_tableau``: m constraint rows, each with its starting basic
    column in ``tab.basis``, then the objective row and, when there are
    artificial columns, the phase-1 row.  Returns "optimal", "unbounded" or
    "infeasible", where "infeasible" means the rows admit no x >= 0 at all.
    The tableau then reads back only what its caller asks for: ``x`` at an
    optimum, and ``duals``, the row multipliers, at an optimum or, as the
    phase-1 Farkas combination, after "infeasible".

    Exact fields pivot on integer rows (``_IntRows``), Approx on scalar rows
    (``_ScalarRows``); both take the same pivots, so the results are the
    canonical scalars a scalar tableau would reach.
    """
    m, total, basis, arts = tab.m, tab.total, tab.basis, tab.arts
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
        if tab.sign(tab.rows[-1], total):
            # the phase-1 optimum leaves sum(artificials) > 0: even the weak
            # system is empty, and the phase-1 row prices the duals
            return "infeasible"
        tab.rows.pop()
        # drive remaining zero-valued artificials out of the basis
        for i in range(m):
            if basis[i] in arts:
                for j in range(total):
                    if j not in arts and tab.sign(tab.rows[i], j):
                        pivot(i, j)
                        break

    if not run_phase(banned=arts):
        return "unbounded"
    return "optimal"


class _Tableau:
    """Rows, basis and columns of a tableau; the storages supply the rows.

    ``rows`` holds the m constraint rows, then the objective row, whose
    entries are the reduced costs of the current basis, then the phase-1 row
    while there are artificial columns.  Columns: n structural, m slacks,
    the artificials, then the rhs at ``total``.  No starting basic column
    has a phase-2 cost, and phase 1 maximises -sum(artificials), which
    prices out as the sum of the rows that hold them (``append_sum``).
    ``int_c`` eliminates in a tableau with no basis, where a row's slack
    columns hold its combination of the equalities.
    """

    def __init__(self, n, m, arts, zero, one):
        self.n, self.m, self.zero, self.one = n, m, zero, one
        self.total = n + m + arts
        self.arts = set(range(n + m, self.total))
        self.rows, self.basis = [], []

    def x(self):
        """The structural values of the current basic solution."""
        x = [self.zero] * self.n
        for row, bi in zip(self.rows, self.basis):
            if bi < self.n:
                x[bi] = self.value(row, self.total)
        return x

    def duals(self):
        """Multipliers of the rows as given, from the last row's reduced costs.

        At an optimum they price the objective and are nonnegative; after
        "infeasible" they are the phase-1 duals, a Farkas combination
        (lambda >= 0, lambda^T A >= 0, lambda^T b < 0).  The multiplier of
        row i is -reduced_cost(slack_i), for negated rows included: the
        slack column carries the flip sign already.
        """
        red, zero = self.rows[-1], self.zero
        return [zero - self.value(red, self.n + i) for i in range(self.m)]


class _ScalarRows(_Tableau):
    """Tableau rows as lists of scalars, for the Approx backend."""

    def append_root(self, root, units):
        """Row with a root's coefficients (None for none) in its first
        columns and the entries ``units`` (column -> +-1)."""
        zero, one = self.zero, self.one
        row = [zero] * (self.total + 1)
        if root is not None:
            row[:len(root)] = root
        for j, u in units.items():
            row[j] = one if u > 0 else -one
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

    def combine(self, p, q, f):
        """q[f]*p - p[f]*q, positive weights when p[f] < 0 < q[f]."""
        a, b = q[f], self.zero - p[f]
        return [a * x + b * y for x, y in zip(p, q)]

    def pivot(self, r, c):
        tab = self.rows
        inv = self.one / tab[r][c]
        tab[r] = prow = [v * inv for v in tab[r]]
        nonzero = None
        for k, row in enumerate(tab):
            f = row[c]
            if k == r or is_zero(f):
                continue
            if nonzero is None:
                nonzero = [j for j, v in enumerate(prow) if not is_zero(v)]
            for j in nonzero:
                row[j] -= f * prow[j]


class _IntRows(_Tableau):
    """Exact tableau rows as ints, for rationals and the quadratic fields.

    A row is ``[X, Y, D]``: two int lists over one int D > 0, so entry j is
    (X[j] + Y[j]*rho)/D with rho**2 = p*rho + q from ``zero.rel``; rationals
    take p = q = 0 and keep Y zero.  Every row whose D is not 1 is kept in
    lowest terms, gcd(*X, *Y, D) == 1, so D is the least common denominator
    of the row and entries grow no faster than the values they stand for.
    """

    def __init__(self, n, m, arts, zero, one):
        super().__init__(n, m, arts, zero, one)
        self.rel = zero.rel if isinstance(zero, QuadExt) else None
        self.p, self.q = self.rel[:2] if self.rel else (0, 0)

    def append_root(self, root, units):
        """Row with a root's coefficients, or another integer row (A, B, E)
        in lowest terms (None for none), in its first columns, over E, and
        the entries ``units`` (column -> +-1) as +-E."""
        a, b, d = root if root is not None else ((), (), 1)
        X, Y = [0] * (self.total + 1), [0] * (self.total + 1)
        X[:len(a)], Y[:len(b)] = a, b
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

    def combine(self, p, q, f):
        """q[f]*p - p[f]*q over the product of the row denominators, in
        lowest terms; positive weights when p[f] < 0 < q[f]."""
        (PX, PY, pd), (QX, QY, qd) = p, q
        px, py, qx, qy = PX[f], PY[f], QX[f], QY[f]
        # (u + v*rho)(a + b*rho) = (u*a + q*v*b) + ((u + p*v)*b + v*a)*rho
        p_, q_ = self.p, self.q
        qqy, qpy, gq, gp = q_ * qy, q_ * py, qx + p_ * qy, px + p_ * py
        X = [qx * a + qqy * b - px * c - qpy * d
             for a, b, c, d in zip(PX, PY, QX, QY)]
        Y = [gq * b + qy * a - gp * d - py * c
             for a, b, c, d in zip(PX, PY, QX, QY)]
        return _lowest(X, Y, pd * qd)

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


def _storage(poset, roots, n, m, arts):
    """An empty tableau in the poset's storage, with the rows of ``roots``."""
    rs = poset.system
    if poset.rows is None:
        return (_ScalarRows(n, m, arts, rs.zero, rs.one),
                [rs.positives[i].coeffs for i in roots])
    return (_IntRows(n, m, arts, rs.zero, rs.one),
            [poset.rows[i] for i in roots])


# ---------------------------------------------------------------------------
# strict systems and their Farkas certificates
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
    certificate: object = None  # the OrderCertificate of an Empty verdict
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

    [B | 1], with one slack column per equality, is reduced by the storage's
    ``pivot``; an inconsistent dependent row refutes the equalities.  Pivot
    row c, read as rhs - sum(row[f] * v_f) > 0 over the free columns f, is
    the chamber row v_c > 0, and each free column adds v_f > 0.
    Fourier-Motzkin removes the free columns with the storage's ``combine``,
    so a row's pivot and slack columns hold its chamber and equality
    multipliers.  A final rhs <= 0 refutes Int_C, with the Farkas
    certificate read off its row; otherwise back-substitution through the
    open intervals of each level gives an exact witness.
    """
    if not antichain:
        raise EmptyAntichain("int_c needs a nonempty antichain")
    rs = poset.system
    zero, one = rs.zero, rs.one
    n, k = rs.rank, len(antichain)

    def refuted(lam, mu):
        sys = LinearSystem(n, equalities=[(rs.positives[i].coeffs, one)
                                          for i in antichain],
                           strict_ge=_chamber_rows(n, zero, one))
        cert = {"ge": lam, "le": [], "eq": mu}
        check_farkas(sys, cert, zero)
        return FeasibilityResult("Infeasible", farkas=cert)

    tab, roots = _storage(poset, antichain, n, k, 0)
    rhs, rows, val = tab.total, tab.rows, tab.value
    for i, root in enumerate(roots):
        tab.append_root(root, {n + i: 1, rhs: 1})
    # reduced row echelon form: each column pivots on the first row below
    # the pivots found so far that is nonzero there
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, k) if tab.sign(rows[i], col)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        tab.pivot(r, col)
        pivots.append(col)
    for row in rows[len(pivots):]:
        # the row reads 0 = rhs; a nonzero rhs refutes the equalities
        sg = tab.sign(row, rhs)
        if sg:
            combo = [val(row, n + i) for i in range(k)]
            return refuted([zero] * n,
                           combo if sg > 0 else [zero - x for x in combo])

    # the chamber rows in column order: the pivot rows, and for each free
    # column f the row with -1 at f and rhs 0, which reads v_f > 0
    free = [c for c in range(n) if c not in pivots]
    chamber = dict(zip(pivots, rows))
    for f in free:
        tab.append_root(None, {f: -1})
        chamber[f] = rows.pop()
    level = [chamber[c] for c in range(n)]
    levels = []
    for f in free:
        levels.append(level)
        signs = [tab.sign(row, f) for row in level]
        nxt = [row for row, sg in zip(level, signs) if sg == 0]
        for p, sp in zip(level, signs):
            if sp >= 0:
                continue
            for q, sq in zip(level, signs):
                if sq <= 0:
                    continue
                nxt.append(tab.combine(p, q, f))
        level = nxt

    for row in level:
        g = val(row, rhs)
        if sgn(g) <= 0 and not near_tie(g):
            # the row is sum(lam_c * chamber[c]): a pivot column holds lam_c,
            # and a free column f, -1 in chamber[f] alone, is zero, so lam_f
            # is the sum of lam_c * chamber[c][f] over the pivots c
            lam = [val(row, c) for c in range(n)]
            for f in free:
                lam[f] = sum((lam[c] * val(chamber[c], f) for c in pivots),
                             zero)
            return refuted(lam, [zero - val(row, n + i) for i in range(k)])
    if any(near_tie(val(row, rhs)) for row in level):
        return FeasibilityResult("Degenerate")

    # back-substitute: each level bounds its parameter by open intervals,
    # and the chamber row s_t > 0 is always among the lower bounds; the row
    # reads at(row, t + 1) - h*s_t > 0, with the parameters from t + 1 on
    s = [zero] * len(free)

    def at(row, t=0):
        x = val(row, rhs)
        for f, y in zip(free[t:], s[t:]):
            x = x - val(row, f) * y
        return x

    for t in reversed(range(len(free))):
        lo = hi = None
        for row in levels[t]:
            h = val(row, free[t])
            sg = sgn(h)
            if sg == 0:
                continue
            bound = at(row, t + 1) / h
            if sg < 0 and (lo is None or sgn(bound - lo) > 0):
                lo = bound
            elif sg > 0 and (hi is None or sgn(bound - hi) < 0):
                hi = bound
        s[t] = lo + one if hi is None else (lo + hi) / 2
    return FeasibilityResult(
        "Feasible", witness=tuple(at(chamber[c]) for c in range(n)))


def _icmax(poset, antichain):
    """I^c_max: the maximal roots outside the increasing set of an antichain."""
    return _extremes(poset._full & ~poset.ideal_mask(antichain), poset._up)


def region_system(poset, antichain):
    rs = poset.system
    icmax = _icmax(poset, antichain)
    sys = LinearSystem(
        rs.rank,
        strict_ge=[(rs.positives[i].coeffs, rs.one) for i in antichain]
        + _chamber_rows(rs.rank, rs.zero, rs.one),
        strict_le=[(rs.positives[i].coeffs, rs.one) for i in icmax],
    )
    return sys, icmax


def _region_tableau(poset, antichain, icmax):
    """The region LP's tableau, written in its final form from the root rows.

    The LP maximises a margin t over the chamber coordinates v >= 0:
    (beta|v) - t >= 1 for beta in the antichain, t - v_s <= 0 for the
    chamber rows v_s > 0, (gamma|v) + t <= 1 for gamma in I^c_max, and
    t <= 1.  Columns are v, t, one slack per row, one artificial per beta,
    then the rhs, and each beta row is stored negated, with its rhs 1 and
    its artificial as the starting basic column.  On an exact field a
    root's entries are its integer row (A, B, E) in ``poset.rows``, so the
    row of beta is A with -E at t and at its slack and E at its artificial
    and the rhs, over E; Approx takes the roots' coefficient tuples.
    """
    rs = poset.system
    n, k = rs.rank, len(antichain)
    m = k + n + len(icmax) + 1
    t, slack, rhs = n, n + 1, n + 1 + m + k
    tab, roots = _storage(poset, (*antichain, *icmax), n + 1, m, k)
    for i, root in enumerate(roots[:k]):
        art = slack + m + i
        tab.append_root(root, {t: -1, slack + i: -1, art: 1, rhs: 1})
        tab.basis.append(art)
    for s in range(n):
        tab.append_root(None, {s: -1, t: 1, slack + k + s: 1})
    for i, root in enumerate(roots[k:]):
        tab.append_root(root, {t: 1, slack + k + n + i: 1, rhs: 1})
    tab.append_root(None, {t: 1, slack + m - 1: 1, rhs: 1})
    tab.basis += range(slack + k, slack + m)
    tab.append_root(None, {t: 1})
    if k:
        tab.append_sum(range(k), tab.arts)
    return tab


def _region_lp(poset, antichain, icmax):
    """Solve the region LP: Feasible with a witness when the optimal margin
    t* is positive, Degenerate on an Approx near tie, otherwise Infeasible."""
    tab = _region_tableau(poset, antichain, icmax)
    status = lp_max(tab)
    if status == "unbounded":  # t is capped, so never reached
        raise RuntimeError("slack LP unbounded")
    if status == "optimal":
        n = poset.system.rank
        x = tab.x()
        if near_tie(x[n]):
            return FeasibilityResult("Degenerate")
        if sgn(x[n]) > 0:
            return FeasibilityResult("Feasible", witness=tuple(x[:n]))
    return FeasibilityResult("Infeasible")


def region_status(poset, antichain):
    """Decide emptiness of the dominant region of an antichain (maybe empty),
    and the boundedness of a nonempty one.  An empty region carries its order
    certificate, from the antichain up to I^c_max, or AssertionError names
    the antichain."""
    antichain = tuple(antichain)
    icmax = _icmax(poset, antichain)
    res = _region_lp(poset, antichain, icmax)
    verdict = RegionVerdict(antichain, "NonEmpty")
    if res.status == "Feasible":
        verdict.witness = res.witness
        verdict.bounded = bounded(poset, antichain)
    elif res.status == "Degenerate":
        verdict.status = "Degenerate"
    else:
        verdict.status = "Empty"
        cert = order_certificate(poset, antichain, icmax)
        # the comparison refutes the region only from I_min up to I^c_max
        if (cert is None or not check_order_certificate(poset, cert)
                or not {i for i, _ in cert.lower}.issubset(antichain)
                or not {i for i, _ in cert.upper}.issubset(icmax)):
            raise AssertionError(f"no order certificate of {antichain} checks")
        verdict.certificate = cert
    return verdict


def _order_tableau(poset, imin, icmax):
    """The order-certificate LP's tableau, written from the root rows.

    The LP takes convex weights c on I_min and d on I^c_max, with
    sum(c*beta) <= sum(d*gamma) in every simple coordinate s, and maximises
    the height of sum(d*gamma) - sum(c*beta).  Columns are c, d, one slack
    per row, one artificial per ">= 1" row, then the rhs.  Rows: sum(c) <= 1,
    then sum(c) >= 1 stored negated with its artificial, the same pair for d,
    then one row per coordinate; the objective has -ht(beta) on c and
    +ht(gamma) on d.  A coordinate row is the roots' rows (A, B, E) of
    ``poset.rows``, transposed and signed, over lcm(E) and in lowest terms.
    """
    n, k = poset.system.rank, len(imin)
    nv, m = k + len(icmax), n + 4
    slack, rhs = nv, nv + m + 2
    tab, roots = _storage(poset, (*imin, *icmax), nv, m, 2)
    d = lcm(*(e for _, _, e in roots))
    ax, bx = [], []
    for j, (a, b, e) in enumerate(roots):
        f = d // e if j < k else -(d // e)
        ax.append([f * v for v in a])
        bx.append([f * v for v in b])
    coords = [_lowest(x, y, d) for x, y in zip(zip(*ax), zip(*bx))]
    objective = _lowest([-sum(a) for a in ax], [-sum(b) for b in bx], d)
    for side, cols in enumerate((range(k), range(k, nv))):
        ones = dict.fromkeys(cols, 1)
        tab.append_root(None, {**ones, slack + 2 * side: 1, rhs: 1})
        tab.append_root(None, {**ones, slack + 2 * side + 1: -1,
                               slack + m + side: 1, rhs: 1})
        tab.basis += (slack + 2 * side, slack + m + side)
    for s, row in enumerate(coords):
        tab.append_root(row, {slack + 4 + s: 1})
    tab.basis += range(slack + 4, slack + m)
    tab.append_root(objective, {})
    tab.append_sum((1, 3), tab.arts)
    return tab


def order_certificate(poset, imin, icmax):
    """Convex weights with sum(d*gamma) - sum(c*beta) in the nonneg cone, if any.

    Such a comparison sum(c*beta) < sum(d*gamma) in the root order refutes the
    region directly: any interior point would evaluate above 1 on the left
    and below 1 on the right.  None when a side is empty, and on Approx,
    which has no integer rows (and, in I2(m), no empty region).
    """
    if poset.rows is None or not imin or not icmax:
        return None
    tab = _order_tableau(poset, imin, icmax)
    # the objective row's rhs holds minus the optimum, which must be positive
    if lp_max(tab) != "optimal" or tab.sign(tab.rows[-1], tab.total) >= 0:
        return None
    x, k = tab.x(), len(imin)
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
