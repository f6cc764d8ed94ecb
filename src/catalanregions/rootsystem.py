"""Root systems built from one table of Coxeter data.

Each family of the census is a row of ``COXETER_TYPES``: the labels m_ij of
its Coxeter diagram, the lengths l_i of its simple roots and its exponents.
The Gram matrix is g_ii = l_i^2 and g_ij = -l_i l_j cos(pi/m_ij); the number
of positive roots is rank * h / 2, with h the largest exponent plus one.
Everything is expressed in simple-root coordinates; a point of the dominant
chamber is a vector of fundamental-weight coordinates, so pairing a point
with a root is a plain dot product.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
import functools
import math
import re

from .exactfield import (
    Approx,
    Q,
    TagMismatch,
    as_mpf,
    field_tag,
    is_zero,
    load_mpmath,
    one_like,
    scalar_to_json,
    sgn,
    sqrt2,
    sqrt3,
    tau,
    zero_like,
)

# largest dihedral m accepted: `classify I2:400` takes 0.5 s (2-CPU Xeon),
# 0.35 s of it in the Approx witness LPs its report reads
MAX_DIHEDRAL_M = 400
# largest digit count and decimal exponent of a ratio: its Fraction then has
# at most 2001 digits, below Python's 4300-digit limit on printing an int
MAX_RATIO_DIGITS = 1000


class OddRatioNotOne(ValueError):
    """A dihedral system with odd m has one root orbit, so the ratio must be 1."""


class NonPositiveRatio(ValueError):
    pass


class ClosureOverflow(RuntimeError):
    """The Gram matrix gave more or fewer positive roots than its type has."""


@dataclass(frozen=True)
class SystemSpec:
    family: str                 # a name of COXETER_TYPES
    m: int | None = None        # parametrised rows only
    ratio: object = 1           # scalar, or ("sin", k, l) resolved at build

    def label(self):
        if self.m is None:
            return self.family
        r = self.ratio
        if isinstance(r, tuple):
            r = f"sin({r[1]})/sin({r[2]})"
        return f"{self.family}:{self.m}" + ("" if r == 1 else f":r={r}")


def _path(*labels):
    """Labels of the path diagram 0 - 1 - ... - len(labels)."""
    return {(i, i + 1): m for i, m in enumerate(labels)}


# The Coxeter table, one row per family of the census.  labels maps each
# joined pair i < j of simple roots to m_ij, the order of s_i s_j (every
# other pair has m_ij = 2), and lengths gives the simple roots' lengths l_i.
# A family with a parameter m has a function of its spec for a row, and its
# specs read <name>:<m>[:r=<ratio>].
CoxeterType = namedtuple("CoxeterType", "labels lengths exponents")
DIHEDRAL = "I2"
COXETER_TYPES = {
    "H3": CoxeterType(_path(5, 3), (1, 1, 1), (1, 5, 9)),
    "H4": CoxeterType(_path(5, 3, 3), (1, 1, 1, 1), (1, 11, 19, 29)),
    DIHEDRAL: lambda spec: CoxeterType(
        _path(spec.m), (1, _checked_ratio(spec)), (1, spec.m - 1)),
}


def coxeter_type(spec):
    """The spec's row of COXETER_TYPES; ValueError if m does not fit a row."""
    row = COXETER_TYPES.get(spec.family)
    if (row is None or callable(row) != (spec.m is not None)
            or callable(row) and spec.m < 2):
        raise ValueError(f"no Coxeter row for {spec.family!r} with m = {spec.m}")
    return row(spec) if callable(row) else row


def parse_spec(text):
    """Parse a table name; a parametrised one reads "<name>:<m>", then
    optionally ":r=<decimal>" or ":r=sin(k)/sin(l)"."""
    name, *params = text.split(":")
    row = COXETER_TYPES.get(name)
    if row is None or bool(params) != callable(row) or len(params) > 2:
        raise ValueError(f"bad system spec {text!r}")
    if not params:
        return SystemSpec(name)
    m = int(params[0])
    if not 2 <= m <= MAX_DIHEDRAL_M:
        raise ValueError(f"{name}(m) requires 2 <= m <= {MAX_DIHEDRAL_M}")
    ratio = 1
    if len(params) == 2:
        if not params[1].startswith("r="):
            raise ValueError(f"bad ratio clause {params[1]!r}")
        body = params[1][2:]
        sin_match = re.match(r"^sin\((\d+)\)/sin\((\d+)\)$", body)
        if sin_match:
            k, l = int(sin_match.group(1)), int(sin_match.group(2))
            # sin(k pi/m) > 0 needs 0 < k < m; at k = m it is only 0 in floats
            if not (1 <= k < m and 1 <= l < m):
                raise ValueError(f"sin(k)/sin(l) needs 1 <= k, l <= {m - 1}")
            ratio = ("sin", k, l)
        else:
            # Fraction would expand the exponent before any check, and a
            # label over 4300 digits would not print
            digits = sum(ch.isdigit() for ch in body)
            exponent = re.search(r"[eE][+-]?([\d_]+)", body)
            if digits > MAX_RATIO_DIGITS or exponent and int(
                    exponent.group(1).replace("_", "")) > MAX_RATIO_DIGITS:
                raise ValueError(f"a ratio takes at most {MAX_RATIO_DIGITS} "
                                 f"digits and an exponent of at most "
                                 f"{MAX_RATIO_DIGITS}")
            try:
                ratio = Q(body)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in ratio {body!r}") from None
    spec = SystemSpec(name, m, ratio)
    coxeter_type(spec)
    return spec


def _resolve_ratio(spec):
    """Turn the ratio field into a concrete scalar (exact when the field allows)."""
    r = spec.ratio
    if isinstance(r, tuple):
        # sin(k pi/m) = sin((m - k) pi/m), and sin(k pi/m) = U_{k-1}(c) sin(pi/m)
        # for c = cos(pi/m), so the ratio lies in the field of c
        m = spec.m
        k, l = min(r[1], m - r[1]), min(r[2], m - r[2])
        if k == l:
            return Q(1)
        c = _cos_pi_over(m)
        return _chebyshev_u(k - 1, c) / _chebyshev_u(l - 1, c)
    return r


def _chebyshev_u(n, c):
    """U_n(c): U_0 = 1, U_1 = 2c, U_{j+1} = 2c U_j - U_{j-1}."""
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, 2 * c * cur - prev
    return cur


def _checked_ratio(spec):
    """The resolved ratio of a dihedral spec: positive, and 1 for odd m."""
    r = _resolve_ratio(spec)
    if spec.m % 2 == 1 and r != 1:
        raise OddRatioNotOne(f"{spec.family}({spec.m}) with odd m requires ratio 1")
    if sgn(r) <= 0:
        raise NonPositiveRatio("root-length ratio must be positive")
    return r


@functools.cache
def _cos_pi_over(m):
    """cos(pi/m): exact where a quadratic field holds it, else Approx."""
    exact = {2: Q(0), 3: Q(1, 2), 4: sqrt2(0, Q(1, 2)), 5: tau(0, Q(1, 2)),
             6: sqrt3(0, Q(1, 2))}
    if m in exact:
        return exact[m]
    mpmath = load_mpmath()
    return Approx(mpmath.cos(mpmath.pi / m))


@dataclass(frozen=True)
class Root:
    index: int          # position in the canonical ordering, 0-based
    coeffs: tuple       # coordinates in the simple-root basis
    orbit: int          # index of a simple root in the same reflection orbit


class RootSystem:
    """Positive roots, Gram matrix and evaluation pairing for one system."""

    def __init__(self, spec, gram, positives, field):
        self.spec = spec
        self.gram = gram
        self.positives = positives
        self.field = field          # field tag string
        self.rank = len(gram)
        self.zero = zero_like(gram[0][0])
        self.one = one_like(gram[0][0])

    def inner(self, u, w):
        """Bilinear form u^T G w on simple-root coordinate vectors."""
        if len(u) != self.rank or len(w) != self.rank:
            raise ValueError("dimension mismatch")
        return sum((ui * gij * wj for ui, row in zip(u, self.gram)
                    if not is_zero(ui) for gij, wj in zip(row, w)), self.zero)

    def reflect(self, i, coeffs):
        """Apply the simple reflection s_{alpha_i} to a coefficient vector."""
        pair = sum((cj * self.gram[j][i] for j, cj in enumerate(coeffs)),
                   self.zero)
        coef = 2 * pair / self.gram[i][i]
        return tuple(c - coef if j == i else c for j, c in enumerate(coeffs))

    def roots_to_json(self):
        return [{"index": r.index,
                 "coeffs": [scalar_to_json(c) for c in r.coeffs],
                 "norm2": scalar_to_json(self.inner(r.coeffs, r.coeffs))}
                for r in self.positives]


def evaluate(x, root):
    """(v | beta) for v given in weight coordinates: a plain dot product."""
    coeffs = root.coeffs if isinstance(root, Root) else root
    if len(x) != len(coeffs):
        raise ValueError("dimension mismatch")
    acc = None
    for xi, ci in zip(x, coeffs):
        term = xi * ci
        acc = term if acc is None else acc + term
    return acc


def _height_cmp(a, b):
    """Order (height, coeffs, ...) tuples by height, then coefficient by
    coefficient: the canonical order of the positive roots."""
    s = sgn(a[0] - b[0])
    if s:
        return s
    for x, y in zip(a[1], b[1]):
        s = sgn(x - y)
        if s:
            return s
    return 0


def _gram_matrix(row):
    """Gram matrix of a Coxeter table row, plus the field tag of its entries.

    g_ii = l_i^2 and g_ij = -l_i l_j cos(pi/m_ij), promoted into the one
    field that holds every length and cosine; Approx when there is none.
    """
    labels, lengths, _ = row
    n = len(lengths)
    label = {(i, j): labels.get((min(i, j), max(i, j)), 2)
             for i in range(n) for j in range(n) if i != j}
    cos = {m: _cos_pi_over(m) for m in set(label.values())}
    try:
        one = one_like(math.prod([*lengths, *cos.values()]))
    except TagMismatch:
        one = Approx(1)
    if isinstance(one, Approx):
        lengths = [Approx(as_mpf(l)) for l in lengths]
        cos = {m: Approx(as_mpf(c)) for m, c in cos.items()}
    lengths = [one * l for l in lengths]
    cos = {m: one * c for m, c in cos.items()}
    return [tuple(lengths[i] * lengths[i] if i == j
                  else -(lengths[i] * lengths[j] * cos[label[i, j]])
                  for j in range(n)) for i in range(n)], field_tag(one)


def build(spec):
    """Construct the positive roots as a descent tree over the simple roots.

    A descent of a positive root gamma is an i with (gamma|alpha_i) > 0.
    Every non-simple positive root has one, and s_i gamma is then a lower
    positive root, since s_i permutes the positive roots other than alpha_i
    (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.4).  Taking
    s_j gamma, for j the smallest descent, as gamma's parent makes the
    positive roots a tree, so each is reached once and no negative root is.

    Only the arithmetic the roots need is done: each root keeps the pairings
    (beta|alpha_i) its descent signs are read from, and its reflections use
    them in ``RootSystem.reflect``'s own expression; the canonical sort
    computes each root's height once; and no norm is computed, as
    ``roots_to_json`` evaluates its own.
    """
    row = coxeter_type(spec)
    gram, field = _gram_matrix(row)
    rs = RootSystem(spec, gram, (), field)
    n, zero, one = rs.rank, rs.zero, rs.one
    # |Phi+| = nh/2 for the Coxeter number h (Humphreys 1990, 3.18)
    expected = n * (max(row.exponents) + 1) // 2

    def pairings(coeffs):
        """(coeffs|alpha_i) for each simple index i, and their signs."""
        pairs = [sum((c * gram[k][i] for k, c in enumerate(coeffs)), zero)
                 for i in range(n)]
        return pairs, [sgn(p) for p in pairs]

    # (coefficients, index of the simple root at the top of its tree)
    found = [(tuple(one if j == i else zero for j in range(n)), i)
             for i in range(n)]
    frontier = [(c, top, *pairings(c)) for c, top in found]
    while frontier:
        nxt = []
        for beta, top, beta_pairs, beta_signs in frontier:
            for j in range(n):
                if beta_signs[j] >= 0:
                    continue
                coef = 2 * beta_pairs[j] / gram[j][j]
                gamma = tuple(c - coef if k == j else c
                              for k, c in enumerate(beta))
                gamma_pairs, gamma_signs = pairings(gamma)
                if any(s > 0 for s in gamma_signs[:j]):
                    continue
                found.append((gamma, top))
                if len(found) > expected:
                    raise ClosureOverflow(
                        f"more than the expected {expected} positive roots")
                nxt.append((gamma, top, gamma_pairs, gamma_signs))
        frontier = nxt
    if len(found) != expected:
        raise ClosureOverflow(
            f"found {len(found)} positive roots, expected {expected}")

    # alpha_i and alpha_j share an orbit when they are joined by a path of
    # odd labels m_ij; each class is named by its least index
    orbit = list(range(n))
    for (i, j), m_ij in sorted(row.labels.items()):
        if m_ij % 2:
            lo, hi = sorted((orbit[i], orbit[j]))
            orbit = [lo if o == hi else o for o in orbit]

    keyed = sorted(((sum(c[1:], c[0]), c, top) for c, top in found),
                   key=functools.cmp_to_key(_height_cmp))
    rs.positives = tuple(Root(i, c, orbit[top])
                         for i, (_, c, top) in enumerate(keyed))
    return rs
