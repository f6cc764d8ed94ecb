"""The root order on the positive roots, its antichains and increasing sets.

Roots are referred to by their canonical position (0-based index into
``RootSystem.positives``).  Antichains are sorted tuples of indices, and a
set of roots is an int mask, bit j standing for root j.  Bit j of ``_up[i]``
(``_down[i]``) is set when root j lies above (below) root i, i included,
and bit j of ``supports[s]`` when the s-th simple coefficient of root j is
positive.  The enumeration of the antichains maps each antichain A to the
mask of its increasing set I(A), the OR of ``_up`` over A; the census reads
those masks, and only ``ideal`` turns one into a frozenset.

The order is the intersection of one total preorder per simple coordinate,
so the masks are filled from ``exactfield.sorted_runs`` of the roots in each
coordinate, n log n sign tests per coordinate in every field.

On an exact field ``rows[i]`` is root i's coefficient vector as an integer
row (A, B, E) of ``exactfield.int_row``: coefficient s is
(A[s] + B[s]*rho)/E in the field of ``rel`` (None for the rationals).  The
rows serve all of ``feasibility``: the region and order-certificate LP
tableaux, Int_C's row reduction and the witness read-back; Approx has none.
"""

from __future__ import annotations

from .exactfield import Approx, QuadExt, int_row, sgn, sorted_runs


class NotAntichain(ValueError):
    pass


def _mask(roots):
    return sum(1 << i for i in set(roots))


def _bits(mask):
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _extremes(s, beyond):
    """Roots i of the mask s with nothing else of s in beyond[i]."""
    return tuple(i for i in _bits(s) if beyond[i] & s == 1 << i)


class RootPoset:
    def __init__(self, system):
        self.system = system
        n = len(system.positives)
        self.size = n
        self._full = (1 << n) - 1
        coeffs = [r.coeffs for r in system.positives]
        zero = system.zero
        if isinstance(zero, Approx):
            self.rel = self.rows = None
        else:
            self.rel = zero.rel if isinstance(zero, QuadExt) else None
            self.rows = [int_row(c, self.rel) for c in coeffs]
        # beta <= gamma iff every simple coefficient of gamma - beta is >= 0:
        # per coordinate, the roots whose run is at or above (below) i's
        self._up, self._down = [self._full] * n, [self._full] * n
        for s in range(system.rank):
            below = 0
            for run in sorted_runs(range(n), key=lambda i: coeffs[i][s]):
                tied = _mask(run)
                below |= tied
                above = self._full & ~below | tied
                for i in run:
                    self._up[i] &= above
                    self._down[i] &= below
        self.supports = [_mask(i for i, c in enumerate(coeffs) if sgn(c[s]) > 0)
                         for s in range(system.rank)]
        self._hasse = None
        self._ideals = None

    def leq(self, i, j):
        return bool(self._up[i] >> j & 1)

    def comparable(self, i, j):
        return bool((self._up[i] | self._down[i]) >> j & 1)

    # -- enumeration ---------------------------------------------------------

    def _ideal_masks(self):
        """Every antichain, canonically ordered, mapped to the mask of its
        increasing set."""
        if self._ideals is None:
            found = []

            def extend(current, ideal, candidates):
                found.append((current, ideal))
                for i in _bits(candidates):
                    candidates ^= 1 << i  # only later roots may join i
                    extend(current + (i,), ideal | self._up[i],
                           candidates & ~(self._up[i] | self._down[i]))

            extend((), 0, self._full)
            found.sort(key=lambda entry: (len(entry[0]), entry[0]))
            self._ideals = dict(found)
        return self._ideals

    def antichains(self):
        """All antichains (the empty one included), canonically ordered."""
        return list(self._ideal_masks())

    def ideal_mask(self, antichain):
        """The mask of the increasing set generated by an antichain, given
        in any order; NotAntichain for any other set of roots."""
        try:
            return self._ideal_masks()[tuple(sorted(antichain))]
        except KeyError:
            raise NotAntichain(f"{antichain} is not an antichain") from None

    def ideal(self, antichain):
        """The increasing set generated by an antichain."""
        return frozenset(_bits(self.ideal_mask(antichain)))

    def maximal_antichains(self):
        """Antichains maximal under set inclusion: comparable to every root."""
        out = []
        for a in self.antichains():
            reach = 0
            for i in a:
                reach |= self._up[i] | self._down[i]
            if reach == self._full:
                out.append(a)
        return out

    # -- Hasse diagram -------------------------------------------------------

    def hasse(self):
        """Cover edges (i, j, simple) with i covered by j; ``simple`` is True
        when the cover arises from a single simple reflection."""
        if self._hasse is None:
            rs = self.system
            edges = []
            for i in range(self.size):
                ci = rs.positives[i].coeffs
                for j in _extremes(self._up[i] & ~(1 << i), self._down):
                    cj = rs.positives[j].coeffs
                    simple = any(rs.reflect(s, ci) == cj for s in range(rs.rank))
                    edges.append((i, j, simple))
            self._hasse = edges
        return self._hasse

    def to_dot(self):
        """DOT source for the Hasse diagram; non-reflection covers are dashed."""
        lines = ["digraph rootposet {", "  rankdir=BT;"]
        for r in self.system.positives:
            lines.append(f'  b{r.index + 1} [label="{r.index + 1}"];')
        for i, j, simple in self.hasse():
            style = "" if simple else " [style=dashed]"
            lines.append(f"  b{i + 1} -> b{j + 1}{style};")
        lines.append("}")
        return "\n".join(lines)
