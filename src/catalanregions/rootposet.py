"""The root order on the positive roots, its antichains and increasing sets.

Roots are referred to by their canonical position (0-based index into
``RootSystem.positives``).  Antichains are sorted tuples of indices,
increasing sets are frozensets.
"""

from __future__ import annotations

from .exactfield import sgn


class NotAntichain(ValueError):
    pass


class NotIncreasing(ValueError):
    pass


class RootPoset:
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
        self._hasse = None
        self._antichains = None

    def leq(self, i, j):
        return self._leq[i][j]

    def comparable(self, i, j):
        return self._leq[i][j] or self._leq[j][i]

    # -- antichain / increasing-set primitives ------------------------------

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
        """The increasing set generated by an antichain."""
        if not self.is_antichain(antichain):
            raise NotAntichain(f"{antichain} is not an antichain")
        return frozenset(
            j for j in range(self.size)
            if any(self._leq[i][j] for i in antichain))

    def complement_maximals(self, increasing):
        """The antichain I^c_max for an upward-closed I."""
        if not self.is_increasing(increasing):
            raise NotIncreasing(f"{set(increasing)} is not upward closed")
        return self.maximals(set(range(self.size)) - set(increasing))

    # -- enumeration ---------------------------------------------------------

    def antichains(self):
        """All antichains (the empty one included), canonically ordered."""
        if self._antichains is None:
            found = []
            incomp = [[j for j in range(i + 1, self.size)
                       if not self.comparable(i, j)] for i in range(self.size)]

            def extend(current, candidates):
                found.append(tuple(current))
                for k, i in enumerate(candidates):
                    current.append(i)
                    extend(current, [j for j in candidates[k + 1:]
                                     if j in incomp_sets[i]])
                    current.pop()

            incomp_sets = [set(c) for c in incomp]
            extend([], list(range(self.size)))
            found.sort(key=lambda a: (len(a), a))
            self._antichains = found
        return self._antichains

    def maximal_antichains(self):
        """Antichains maximal under set inclusion."""
        out = []
        for a in self.antichains():
            members = set(a)
            if all(any(self.comparable(i, j) for j in members)
                   for i in range(self.size) if i not in members):
                if a:
                    out.append(a)
        return out

    # -- Hasse diagram -------------------------------------------------------

    def hasse(self):
        """Cover edges (i, j, simple) with i covered by j; ``simple`` is True
        when the cover arises from a single simple reflection."""
        if self._hasse is None:
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
