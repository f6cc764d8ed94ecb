"""Exact scalar arithmetic for the ordered fields used by the geometry.

Three kinds of scalar coexist (never mixed within one computation):

* plain rationals (``fractions.Fraction``),
* quadratic extensions ``a + b*rho`` where rho > 0 satisfies
  ``rho**2 = p*rho + q`` -- this covers the golden ratio tau (p=q=1),
  sqrt(2) (p=0, q=2) and sqrt(3) (p=0, q=3).  An element is stored
  fraction-free as ints ``(x + y*rho)/d`` with ``d > 0`` and
  ``gcd(x, y, d) == 1``, so each element has one triple; arithmetic and
  signs run on plain ints, and ``a = x/d``, ``b = y/d`` are ``Fraction``
  views,
* high-precision floats with a fixed comparison tolerance, for dihedral
  systems whose coordinates live in no fixed quadratic field.  They compute
  on ``mpmath.libmp``'s kernels at the precision and rounding of mpmath's
  process-wide context, which the first use of an Approx value, a cosine
  or a decimal view raises to ``DECIMAL_DPS`` digits; mpmath is imported
  only then, through ``load_mpmath``.

Which kind a system uses follows from its spec alone (see
``rootsystem.build``); nothing selects it at run time.  Scalars are ordered
through ``sgn`` of a difference alone; QuadExt and Approx define no ``<``.

A vector of exact scalars of one field also has an integer-row form (see
``int_row``): int lists X, Y over one least denominator D > 0, entry j being
(X[j] + Y[j]*rho)/D.  The exact simplex pivots on it, and the witness
read-back compares on it, with no scalar arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm


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
# so the first use raises the global context, and every later use raises
# it again should a caller's context have lowered it since.
DECIMAL_DPS = 60


def load_mpmath():
    """The mpmath module, its process-wide context at DECIMAL_DPS digits or more.

    mpmath is imported on the first call, so a process that computes only
    in exact fields never loads it; that call also binds Approx's kernel.
    The precision is checked on every call: a caller's ``mpmath.workdps``
    block restores its own saved precision on exit, which may be below
    DECIMAL_DPS.
    """
    global _lib, _mpf, _prec_rounding
    import mpmath

    if mpmath.mp.dps < DECIMAL_DPS:
        mpmath.mp.dps = DECIMAL_DPS
    if _lib is None:
        from mpmath import libmp
        _lib, _mpf = libmp, mpmath.mp.mpf
        _prec_rounding = mpmath.mp._prec_rounding
    return mpmath


# Approx's kernel, bound by the first load_mpmath call: mpmath.libmp, the
# mpf type of mpmath's process-wide context, and that context's
# [prec, rounding] list, which mpmath updates in place whenever the
# precision changes.  Every Approx is made after that call.
_lib = _mpf = _prec_rounding = None


# Relations rho**2 = p*rho + q, with rho the positive root.
REL_TAU = (1, 1, "tau")
REL_SQRT2 = (0, 2, "sqrt2")
REL_SQRT3 = (0, 3, "sqrt3")
_REL_BY_NAME = {"tau": REL_TAU, "sqrt2": REL_SQRT2, "sqrt3": REL_SQRT3}
# the tags ``field_tag`` returns: a report's field backend and each scalar's
FIELD_TAGS = ("rational", *_REL_BY_NAME, "approx")


def _qsign(r):
    return (r > 0) - (r < 0)


def quad_sign(x, y, p, q):
    """Sign of ``x + y*rho`` for ints x, y, where rho > 0 and rho**2 = p*rho + q.

    x + y*rho = (2x + p*y + y*sqrt(D)) / 2 with D = p^2 + 4q; with y == 0
    this is the sign of x, so it also serves rationals (p = q = 0).
    """
    big_a = 2 * x + p * y
    if y == 0:
        return _qsign(big_a)
    if big_a == 0:
        return _qsign(y)
    sa, sb = _qsign(big_a), _qsign(y)
    if sa == sb:
        return sa
    return sa * _qsign(big_a * big_a - (p * p + 4 * q) * y * y)


def int_row(scalars, rel):
    """The integer row (X, Y, D) of a vector of scalars of one field.

    Entry j is (X[j] + Y[j]*rho)/D, with D > 0 the least common denominator,
    so gcd(*X, *Y, D) == 1.  ``rel`` is the field's relation, None for the
    rationals, whose rows keep Y zero.  Ints and Fractions belong to every
    field; any other scalar raises TagMismatch.
    """
    parts = []
    for c in scalars:
        if isinstance(c, QuadExt) and c.rel == rel:
            parts.append((c.x, c.y, c.d))
        elif isinstance(c, _RATIONAL_TYPES):
            parts.append((c.numerator, 0, c.denominator))
        else:
            raise TagMismatch(f"a vector over {rel[2] if rel else 'Q'} "
                              f"cannot take {c!r}")
    # each entry is in lowest terms, so the row over the lcm is too
    d = lcm(*(pd for _, _, pd in parts))
    return ([x * (d // pd) for x, _, pd in parts],
            [y * (d // pd) for _, y, pd in parts], d)


def _parts(c):
    """Numerator and denominator of an int or Fraction component."""
    if isinstance(c, int):
        return int(c), 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"QuadExt components must be int or Fraction, "
                    f"not {type(c).__name__}")


def _reduce(x, y, d, rel):
    """The element (x + y*rho)/d of ints with d > 0, in lowest terms.

    It calls neither ``__init__`` nor an arithmetic dunder, so operation
    counts taken on the dunders see only the callers' operations.
    """
    g = gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    r = object.__new__(QuadExt)
    r.x = x
    r.y = y
    r.d = d
    r.rel = rel
    return r


class QuadExt:
    """Element ``(x + y*rho)/d`` of a real quadratic field, exact ordered arithmetic.

    ``x``, ``y`` and ``d`` are ints with ``d > 0`` and ``gcd(x, y, d) == 1``,
    so every element has exactly one triple and equality compares triples.
    ``a`` and ``b`` are read-only ``Fraction`` views of ``x/d`` and ``y/d``.
    """

    __slots__ = ("x", "y", "d", "rel")

    def __init__(self, a, b, rel):
        an, ad = _parts(a)
        bn, bd = _parts(b)
        g = gcd(ad, bd)
        # d = lcm(ad, bd); gcd(x, y, d) == 1 as both parts are in lowest terms
        self.x = an * (bd // g)
        self.y = bn * (ad // g)
        self.d = ad // g * bd
        self.rel = rel

    @property
    def a(self):
        return Fraction(self.x, self.d)

    @property
    def b(self):
        return Fraction(self.y, self.d)

    def _coerce(self, other):
        """``other`` as a triple (x, y, d) of self's field, or None."""
        if isinstance(other, QuadExt):
            if other.rel is not self.rel and other.rel != self.rel:
                raise TagMismatch(f"cannot mix {self.rel[2]} with {other.rel[2]}")
            return other.x, other.y, other.d
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        if isinstance(other, Approx):
            raise TagMismatch(f"cannot mix {self.rel[2]} with approx")
        return None

    def __add__(self, other):
        if type(other) is QuadExt and other.rel is self.rel:
            x, y, d = other.x, other.y, other.d
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            x, y, d = o
        sd = self.d
        if d == sd:
            return _reduce(self.x + x, self.y + y, d, self.rel)
        return _reduce(self.x * d + x * sd, self.y * d + y * sd, sd * d, self.rel)

    __radd__ = __add__

    def __neg__(self):
        return _reduce(-self.x, -self.y, self.d, self.rel)

    def __sub__(self, other):
        if type(other) is QuadExt and other.rel is self.rel:
            x, y, d = other.x, other.y, other.d
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            x, y, d = o
        sd = self.d
        if d == sd:
            return _reduce(self.x - x, self.y - y, d, self.rel)
        return _reduce(self.x * d - x * sd, self.y * d - y * sd, sd * d, self.rel)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is QuadExt and other.rel is self.rel:
            x, y, d = other.x, other.y, other.d
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            x, y, d = o
        sx, sy = self.x, self.y
        if y == 0:
            return _reduce(sx * x, sy * x, self.d * d, self.rel)
        p, q, _ = self.rel
        yy = sy * y
        return _reduce(sx * x + q * yy, sx * y + sy * x + p * yy, self.d * d, self.rel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is QuadExt and other.rel is self.rel:
            x, y, d = other.x, other.y, other.d
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            x, y, d = o
        sx, sy = self.x, self.y
        if y == 0:
            if x == 0:
                raise DivByZero("division by zero")
            if x < 0:
                d, x = -d, -x
            return _reduce(sx * d, sy * d, self.d * x, self.rel)
        # 1/o = d * (x + p*y - y*rho) / n, with n = x^2 + p*x*y - q*y^2 the
        # norm of x + y*rho; n is never 0 for y != 0, since rho is irrational
        p, q, _ = self.rel
        n = x * x + p * x * y - q * y * y
        if n < 0:
            d, n = -d, -n
        c = x + p * y
        yy = sy * y
        return _reduce(d * (sx * c - q * yy), d * (sy * c - sx * y - p * yy),
                       self.d * n, self.rel)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduce(*o, self.rel) / self

    def sign(self):
        # (x + y*rho)/d with d > 0 has the sign of x + y*rho
        p, q, _ = self.rel
        return quad_sign(self.x, self.y, p, q)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TagMismatch:
            return False
        if o is None:
            return NotImplemented
        return self.x == o[0] and self.y == o[1] and self.d == o[2]

    def __hash__(self):
        # equal to a rational when y == 0, so hash like that rational
        if self.y == 0:
            return hash(Fraction(self.x, self.d))
        return hash((self.x, self.y, self.d, self.rel[2]))

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, {self.rel[2]})"

    def __str__(self):
        return f"{self.a}{'+' if self.y >= 0 else ''}{self.b}{self.rel[2]}"

    def root_value(self):
        p, q, _ = self.rel
        return (p + load_mpmath().sqrt(p * p + 4 * q)) / 2

    def mpf(self):
        # a + rho*b, evaluated in this order from the reduced fractions
        rho = self.root_value()
        a, b = self.a, self.b
        return load_mpmath().mpf(a.numerator) / a.denominator + \
            rho * b.numerator / b.denominator


def tau(a=0, b=1):
    """The golden-ratio scalar a + b*tau with tau**2 = tau + 1."""
    return QuadExt(a, b, REL_TAU)


def sqrt2(a=0, b=1):
    return QuadExt(a, b, REL_SQRT2)


def sqrt3(a=0, b=1):
    return QuadExt(a, b, REL_SQRT3)


class _Epsilon:
    """``Approx.epsilon``, mpf("1e-30") at DECIMAL_DPS digits, made on first read.

    The first read puts the value itself in the class in place of this
    descriptor, so mpmath loads only when an Approx comparison needs it.
    """

    def __get__(self, obj, cls):
        mpmath = load_mpmath()
        with mpmath.workdps(DECIMAL_DPS):
            eps = mpmath.mpf("1e-30")
        cls.epsilon = eps
        return eps


class Approx:
    """High-precision float with a tolerance; ties are surfaced, not resolved.

    Comparisons whose difference is below ``epsilon`` count as equal; a
    difference within [epsilon, 10*epsilon] is close enough to a tie to be
    reported as degenerate by callers that care.  ``v`` is an ``mpmath.mpf``.
    Arithmetic, ``sign`` and ``near_tie`` call ``mpmath.libmp``'s kernels on
    ``v._mpf_`` at the current precision and rounding of the process-wide
    mpmath context, as mpf's own operators do, so each result has their
    bits without their dispatch.  The first use raises that context to
    ``DECIMAL_DPS`` digits, as every construction does again; nothing
    enters a context of its own.  ``epsilon`` is read on every comparison.
    """

    __slots__ = ("v",)

    epsilon = _Epsilon()

    def __init__(self, v):
        mpmath = load_mpmath()
        if isinstance(v, Fraction):
            self.v = mpmath.mpf(v.numerator) / v.denominator
        else:
            self.v = mpmath.mpf(v)

    def _coerce(self, other):
        if type(other) is Approx:
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
        prec, rnd = _prec_rounding
        return _approx(_lib.mpf_add(self.v._mpf_, o.v._mpf_, prec, rnd))

    __radd__ = __add__

    def __neg__(self):
        return _approx(_lib.mpf_neg(self.v._mpf_, *_prec_rounding))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec, rnd = _prec_rounding
        return _approx(_lib.mpf_sub(self.v._mpf_, o.v._mpf_, prec, rnd))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec, rnd = _prec_rounding
        return _approx(_lib.mpf_mul(self.v._mpf_, o.v._mpf_, prec, rnd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivByZero("division by (numerically) zero")
        prec, rnd = _prec_rounding
        return _approx(_lib.mpf_div(self.v._mpf_, o.v._mpf_, prec, rnd))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sign(self):
        # v >= eps and v <= -eps, as mpf's own comparisons evaluate them
        v, eps = self.v._mpf_, Approx.epsilon._mpf_
        if _lib.mpf_ge(v, eps):
            return 1
        if _lib.mpf_le(v, _lib.mpf_neg(eps, *_prec_rounding)):
            return -1
        return 0

    def near_tie(self):
        # abs(v) < 10 * eps, as mpf's own operators evaluate it
        eps = Approx.epsilon._mpf_
        return _lib.mpf_lt(_lib.mpf_abs(self.v._mpf_, *_prec_rounding),
                           _lib.mpf_mul_int(eps, 10, *_prec_rounding))

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TagMismatch:
            return False
        if o is None:
            return NotImplemented
        return not (self - o)

    def __bool__(self):
        return self.sign() != 0

    def __repr__(self):
        return f"Approx({load_mpmath().nstr(self.v, 20)})"


def _approx(val):
    """Approx around a raw mpf value of mpmath.libmp, without ``__init__``.

    Every kernel call already rounds to the process-wide context, so the
    value is stored as it is; like ``_reduce``, no arithmetic dunder runs.
    """
    v = object.__new__(_mpf)
    v._mpf_ = val
    r = object.__new__(Approx)
    r.v = v
    return r


def sgn(x):
    """Exact sign for rational/quadratic scalars, tolerance sign for Approx."""
    if isinstance(x, (QuadExt, Approx)):
        return x.sign()
    return _qsign(x)


def sorted_runs(items, key):
    """The items in ascending order of ``key(item)`` under ``sgn`` of
    differences, as runs of items whose keys ``sgn`` calls equal.

    Each run keeps the input order.  A run grows while an item ties with
    the run's first member; on Approx this takes ties to be transitive,
    which holds when distinct values differ by more than 2*epsilon.
    """
    ordered = sorted(items, key=cmp_to_key(lambda a, b: sgn(key(a) - key(b))))
    runs = []
    for item in ordered:
        if runs and not sgn(key(item) - key(runs[-1][0])):
            runs[-1].append(item)
        else:
            runs.append([item])
    return runs


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
        return _reduce(0, 0, 1, x.rel)
    if isinstance(x, Approx):
        return Approx(0)
    return Q(0)


def one_like(x):
    if isinstance(x, QuadExt):
        return _reduce(1, 0, 1, x.rel)
    if isinstance(x, Approx):
        return Approx(1)
    return Q(1)


def as_mpf(x):
    if isinstance(x, QuadExt):
        return x.mpf()
    if isinstance(x, Approx):
        return x.v
    return load_mpmath().mpf(int(x.numerator)) / int(x.denominator)


def _ratio_str(num, den):
    """str(Fraction(num, den)) for ints with den > 0, without the Fraction."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def scalar_to_json(x):
    if isinstance(x, QuadExt):
        return {"a": _ratio_str(x.x, x.d), "b": _ratio_str(x.y, x.d),
                "field": x.rel[2]}
    if isinstance(x, Approx):
        return {"value": load_mpmath().nstr(x.v, 40), "field": "approx"}
    return {"a": str(x), "field": "rational"}


def scalar_from_json(d):
    if d["field"] == "rational":
        return Q(d["a"])
    if d["field"] == "approx":
        return Approx(d["value"])
    return QuadExt(Q(d["a"]), Q(d["b"]), _REL_BY_NAME[d["field"]])
