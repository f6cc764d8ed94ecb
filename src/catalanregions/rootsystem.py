"""Root system construction for H3, H4 and the dihedral family I2(m).

Everything is expressed in simple-root coordinates; a point of the dominant
chamber is a vector of fundamental-weight coordinates, so pairing a point
with a root is a plain dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import re

import mpmath

from .exactfield import (
    Approx,
    Q,
    TagMismatch,
    as_mpf,
    field_tag,
    is_zero,
    one_like,
    scalar_to_json,
    sgn,
    sqrt2,
    sqrt3,
    tau,
    zero_like,
)

# largest dihedral m accepted: RootPoset fills its order masks by m^2 pairwise
# Approx sign tests, 1.6 s at m = 400, about half of `classify I2:400`'s 3 s
MAX_DIHEDRAL_M = 400


class OddRatioNotOne(ValueError):
    """I2(m) with odd m has a single root orbit, so the ratio must be 1."""


class NonPositiveRatio(ValueError):
    pass


class ClosureOverflow(RuntimeError):
    """The Gram matrix gave more or fewer positive roots than its type has."""


@dataclass(frozen=True)
class SystemSpec:
    family: str                 # "H3" | "H4" | "I2"
    m: int | None = None        # I2 only
    ratio: object = 1           # scalar, or ("sin", k, l) resolved at build

    def label(self):
        if self.family != "I2":
            return self.family
        r = self.ratio
        if isinstance(r, tuple):
            return f"I2:{self.m}:r=sin({r[1]})/sin({r[2]})"
        if r == 1:
            return f"I2:{self.m}"
        return f"I2:{self.m}:r={r}"


_SIN_RE = re.compile(r"^sin\((\d+)\)/sin\((\d+)\)$")


def parse_spec(text):
    """Parse "H3" | "H4" | "I2:<m>" | "I2:<m>:r=<decimal>" | "I2:<m>:r=sin(k)/sin(l)"."""
    if text in ("H3", "H4"):
        return SystemSpec(text)
    parts = text.split(":")
    if parts[0] != "I2" or len(parts) not in (2, 3):
        raise ValueError(f"bad system spec {text!r}")
    m = int(parts[1])
    if not 2 <= m <= MAX_DIHEDRAL_M:
        raise ValueError(f"I2(m) requires 2 <= m <= {MAX_DIHEDRAL_M}")
    ratio = 1
    if len(parts) == 3:
        if not parts[2].startswith("r="):
            raise ValueError(f"bad ratio clause {parts[2]!r}")
        body = parts[2][2:]
        sin_match = _SIN_RE.match(body)
        if sin_match:
            k, l = int(sin_match.group(1)), int(sin_match.group(2))
            # sin(k pi/m) > 0 needs 0 < k < m; at k = m it is only 0 in floats
            if not (1 <= k < m and 1 <= l < m):
                raise ValueError(f"sin(k)/sin(l) needs 1 <= k, l <= {m - 1}")
            ratio = ("sin", k, l)
        else:
            try:
                ratio = Q(body)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in ratio {body!r}") from None
    spec = SystemSpec("I2", m, ratio)
    _checked_ratio(spec)
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
        if c is None:
            c = Approx(mpmath.cos(mpmath.pi / m))
        return _chebyshev_u(k - 1, c) / _chebyshev_u(l - 1, c)
    return r


def _chebyshev_u(n, c):
    """U_n(c): U_0 = 1, U_1 = 2c, U_{j+1} = 2c U_j - U_{j-1}."""
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, 2 * c * cur - prev
    return cur


def _checked_ratio(spec):
    """The resolved ratio of an I2 spec, which must be positive, and 1 for odd m."""
    r = _resolve_ratio(spec)
    if spec.m % 2 == 1 and r != 1:
        raise OddRatioNotOne(f"I2({spec.m}) with odd m requires ratio 1")
    if sgn(r) <= 0:
        raise NonPositiveRatio("root-length ratio must be positive")
    return r


def _cos_pi_over(m):
    """Exact cos(pi/m) where a quadratic field suffices, else None."""
    return {
        2: Q(0),
        3: Q(1, 2),
        4: sqrt2(0, Q(1, 2)),
        5: tau(0, Q(1, 2)),
        6: sqrt3(0, Q(1, 2)),
    }.get(m)


@dataclass(frozen=True)
class Root:
    index: int          # position in the canonical ordering, 0-based
    coeffs: tuple       # coordinates in the simple-root basis
    norm2: object
    orbit: int          # index of a simple root in the same reflection orbit

    def to_json(self):
        return {
            "index": self.index,
            "coeffs": [scalar_to_json(c) for c in self.coeffs],
            "norm2": scalar_to_json(self.norm2),
        }


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
        acc = self.zero
        for i, ui in enumerate(u):
            if is_zero(ui):
                continue
            row = self.gram[i]
            for j, wj in enumerate(w):
                acc = acc + ui * row[j] * wj
        return acc

    def reflect(self, i, coeffs):
        """Apply the simple reflection s_{alpha_i} to a coefficient vector."""
        pair = self.zero
        for j, cj in enumerate(coeffs):
            pair = pair + cj * self.gram[j][i]
        coef = 2 * pair / self.gram[i][i]
        out = list(coeffs)
        out[i] = out[i] - coef
        return tuple(out)

    def roots_to_json(self):
        return [r.to_json() for r in self.positives]


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


def _coeff_cmp(a, b):
    ha = hb = None
    for x in a:
        ha = x if ha is None else ha + x
    for x in b:
        hb = x if hb is None else hb + x
    s = sgn(ha - hb)
    if s:
        return s
    for x, y in zip(a, b):
        s = sgn(x - y)
        if s:
            return s
    return 0


def _gram_matrix(spec):
    """Gram matrix plus the field tag of its entries."""
    if spec.family in ("H3", "H4"):
        n = 3 if spec.family == "H3" else 4
        one, half = tau(1, 0), tau(Q(1, 2), 0)
        cos5 = tau(0, Q(1, 2))
        zero = tau(0, 0)
        g = [[zero] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = one
        g[0][1] = g[1][0] = -cos5
        for i in range(1, n - 1):
            g[i][i + 1] = g[i + 1][i] = -half
        return [tuple(row) for row in g], "tau"

    m = spec.m
    r = _checked_ratio(spec)
    c = _cos_pi_over(m)
    # the entries live in the field of r*c; Approx when there is none
    one = None
    if c is not None and not isinstance(r, Approx):
        try:
            one = one_like(r * c)
        except TagMismatch:
            pass
    if one is None:
        one = Approx(1)
        r, c = Approx(as_mpf(r)), Approx(mpmath.cos(mpmath.pi / m))
    r, c = one * r, one * c
    off = -(r * c)
    return [(one, off), (off, r * r)], field_tag(one)


def build(spec):
    """Construct the positive roots as a descent tree over the simple roots.

    A descent of a positive root gamma is an i with (gamma|alpha_i) > 0.
    Every non-simple positive root has one, and s_i gamma is then a lower
    positive root, since s_i permutes the positive roots other than alpha_i
    (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.4).  Taking
    s_j gamma, for j the smallest descent, as gamma's parent makes the
    positive roots a tree, so each is reached once and no negative root is.
    """
    gram, field = _gram_matrix(spec)
    rs = RootSystem(spec, gram, (), field)
    n, zero, one = rs.rank, rs.zero, rs.one
    expected = {"H3": 15, "H4": 60}.get(spec.family, spec.m)

    def signs(coeffs):
        """sgn((coeffs|alpha_i)) for each simple index i."""
        return [sgn(sum((c * gram[k][i] for k, c in enumerate(coeffs)), zero))
                for i in range(n)]

    # (coefficients, index of the simple root at the top of its tree)
    found = [(tuple(one if j == i else zero for j in range(n)), i)
             for i in range(n)]
    frontier = [(c, top, signs(c)) for c, top in found]
    while frontier:
        nxt = []
        for beta, top, beta_signs in frontier:
            for j in range(n):
                if beta_signs[j] >= 0:
                    continue
                gamma = rs.reflect(j, beta)
                gamma_signs = signs(gamma)
                if any(s > 0 for s in gamma_signs[:j]):
                    continue
                found.append((gamma, top))
                if len(found) > expected:
                    raise ClosureOverflow(
                        f"more than the expected {expected} positive roots")
                nxt.append((gamma, top, gamma_signs))
        frontier = nxt
    if len(found) != expected:
        raise ClosureOverflow(
            f"found {len(found)} positive roots, expected {expected}")

    # alpha_i and alpha_j share an orbit when m_ij, the number of roots
    # supported on {i, j}, is odd; each class is named by its least index
    orbit = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            m_ij = sum(1 for c, _ in found
                       if not any(c[k] for k in range(n) if k not in (i, j)))
            if m_ij % 2:
                lo, hi = sorted((orbit[i], orbit[j]))
                orbit = [lo if o == hi else o for o in orbit]

    found.sort(key=functools.cmp_to_key(lambda a, b: _coeff_cmp(a[0], b[0])))
    rs.positives = tuple(Root(i, c, rs.inner(c, c), orbit[top])
                         for i, (c, top) in enumerate(found))
    return rs
