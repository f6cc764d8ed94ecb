"""Exact scalar arithmetic for the ordered fields used by the geometry.

Three kinds of scalar coexist (never mixed within one computation):

* plain rationals (``fractions.Fraction``),
* quadratic extensions ``a + b*rho`` where rho > 0 satisfies
  ``rho**2 = p*rho + q`` -- this covers the golden ratio tau (p=q=1),
  sqrt(2) (p=0, q=2) and sqrt(3) (p=0, q=3),
* high-precision floats with a fixed comparison tolerance, for dihedral
  systems whose coordinates live in no fixed quadratic field.  They compute
  in mpmath's process-wide context, which importing this module raises to
  ``DECIMAL_DPS`` digits.

Which kind a system uses follows from its spec alone (see
``rootsystem.build``); nothing selects it at run time.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


def Q(a=0, b=1):
    return Fraction(a, b) if b != 1 else Fraction(a)


_RATIONAL_TYPES = (int, Fraction)


class TagMismatch(TypeError):
    """Arithmetic attempted between scalars of different field tags."""


class DivByZero(ZeroDivisionError):
    """Division by an (exactly or numerically) zero scalar."""


# Working precision for all decimal evaluation; well above the 50
# significant digits the comparisons are validated against.  mpmath
# re-rounds every operation (negation included) to the ambient context,
# so the global context is raised once at import.
DECIMAL_DPS = 60
if mpmath.mp.dps < DECIMAL_DPS:
    mpmath.mp.dps = DECIMAL_DPS

# Relations rho**2 = p*rho + q, with rho the positive root.
REL_TAU = (1, 1, "tau")
REL_SQRT2 = (0, 2, "sqrt2")
REL_SQRT3 = (0, 3, "sqrt3")
_REL_BY_NAME = {"tau": REL_TAU, "sqrt2": REL_SQRT2, "sqrt3": REL_SQRT3}


def _qsign(r):
    return (r > 0) - (r < 0)


class QuadExt:
    """Element ``a + b*rho`` of a real quadratic field, exact ordered arithmetic."""

    __slots__ = ("a", "b", "rel")

    def __init__(self, a, b, rel):
        self.a = a if type(a) is not int else Q(a)
        self.b = b if type(b) is not int else Q(b)
        self.rel = rel

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.rel is not self.rel and other.rel != self.rel:
                raise TagMismatch(f"cannot mix {self.rel[2]} with {other.rel[2]}")
            return other
        if isinstance(other, _RATIONAL_TYPES):
            return QuadExt(Q(other), Q(0), self.rel)
        if isinstance(other, Approx):
            raise TagMismatch(f"cannot mix {self.rel[2]} with approx")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.rel)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.rel)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.rel)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, _ = self.rel
        bb = self.b * o.b
        return QuadExt(self.a * o.a + q * bb, self.a * o.b + self.b * o.a + p * bb, self.rel)

    __rmul__ = __mul__

    def _norm(self):
        # (a + b*rho)(a + b*(p - rho)) = a^2 + p*a*b - q*b^2
        p, q, _ = self.rel
        return self.a * self.a + p * self.a * self.b - q * self.b * self.b

    def _conj(self):
        p, _, _ = self.rel
        return QuadExt(self.a + p * self.b, -self.b, self.rel)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o._norm()
        if n == 0:
            raise DivByZero("division by zero")
        c = o._conj()
        return QuadExt((self.a * c.a + self.rel[1] * self.b * c.b) / n,
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


def tau(a=0, b=1):
    """The golden-ratio scalar a + b*tau with tau**2 = tau + 1."""
    return QuadExt(Q(a), Q(b), REL_TAU)


def sqrt2(a=0, b=1):
    return QuadExt(Q(a), Q(b), REL_SQRT2)


def sqrt3(a=0, b=1):
    return QuadExt(Q(a), Q(b), REL_SQRT3)


class Approx:
    """High-precision float with a tolerance; ties are surfaced, not resolved.

    Comparisons whose difference is below ``epsilon`` count as equal; a
    difference within [epsilon, 10*epsilon] is close enough to a tie to be
    reported as degenerate by callers that care.  Arithmetic runs in the
    process-wide mpmath context, which importing this module raises to
    ``DECIMAL_DPS`` digits; nothing enters a context of its own.
    """

    __slots__ = ("v",)

    epsilon = mpmath.mpf("1e-30")

    def __init__(self, v):
        if isinstance(v, Fraction):
            self.v = mpmath.mpf(v.numerator) / v.denominator
        else:
            self.v = mpmath.mpf(v)

    def _coerce(self, other):
        if isinstance(other, Approx):
            return other
        if isinstance(other, _RATIONAL_TYPES):
            return Approx(other)
        if isinstance(other, QuadExt):
            raise TagMismatch(f"cannot mix approx with {other.rel[2]}")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Approx(self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return Approx(-self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Approx(self.v - o.v)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Approx(self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if abs(o.v) < Approx.epsilon:
            raise DivByZero("division by (numerically) zero")
        return Approx(self.v / o.v)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sign(self):
        if abs(self.v) < Approx.epsilon:
            return 0
        return 1 if self.v > 0 else -1

    def near_tie(self):
        return abs(self.v) < 10 * Approx.epsilon

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TagMismatch:
            return False
        if o is None:
            return NotImplemented
        return abs(self.v - o.v) < Approx.epsilon

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __bool__(self):
        return self.sign() != 0

    def __repr__(self):
        return f"Approx({mpmath.nstr(self.v, 20)})"


def sgn(x):
    """Exact sign for rational/quadratic scalars, tolerance sign for Approx."""
    if isinstance(x, (QuadExt, Approx)):
        return x.sign()
    return _qsign(x)


def near_tie(x):
    """True when an Approx scalar is too close to zero to trust its sign."""
    return isinstance(x, Approx) and x.near_tie()


def is_zero(x):
    """Zero test of every scalar kind; for Approx the same tolerance as ``sgn``."""
    return not x


def field_tag(x):
    if isinstance(x, QuadExt):
        return x.rel[2]
    if isinstance(x, Approx):
        return "approx"
    return "rational"


def zero_like(x):
    if isinstance(x, QuadExt):
        return QuadExt(Q(0), Q(0), x.rel)
    if isinstance(x, Approx):
        return Approx(0)
    return Q(0)


def one_like(x):
    if isinstance(x, QuadExt):
        return QuadExt(Q(1), Q(0), x.rel)
    if isinstance(x, Approx):
        return Approx(1)
    return Q(1)


def as_mpf(x):
    if isinstance(x, QuadExt):
        return x.mpf()
    if isinstance(x, Approx):
        return x.v
    return mpmath.mpf(int(x.numerator)) / int(x.denominator)


def scalar_to_json(x):
    if isinstance(x, QuadExt):
        return {"a": str(x.a), "b": str(x.b), "field": x.rel[2]}
    if isinstance(x, Approx):
        return {"value": mpmath.nstr(x.v, 40), "field": "approx"}
    return {"a": str(x), "field": "rational"}


def scalar_from_json(d):
    if d["field"] == "rational":
        return Q(d["a"])
    if d["field"] == "approx":
        return Approx(d["value"])
    return QuadExt(Q(d["a"]), Q(d["b"]), _REL_BY_NAME[d["field"]])
