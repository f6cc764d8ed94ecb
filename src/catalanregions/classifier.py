"""Full census of dominant regions.  Int_C decides the maximal antichains,
and an LP each region that no good maximal antichain covers; propagation,
boundedness and bijection coverage then read only the root order's masks and
the subsets of the good maximal antichains.  A propagated region's witness
LP runs only when the witness is read."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import prod

from .exactfield import sorted_runs
from .feasibility import (
    RegionVerdict,
    bounded,
    int_c,
    region_status,
    witness_sign_type,
)
from .rootposet import RootPoset
from .rootsystem import (DIHEDRAL, MAX_DIHEDRAL_M, OddRatioNotOne, SystemSpec,
                         _resolve_ratio, build, coxeter_type)


@dataclass
class MaximalAntichainVerdict:
    antichain: tuple
    good: bool
    int_c_witness: tuple | None = None
    degenerate: bool = False


@dataclass
class GeneralizedCatalan:
    exponents: list
    coxeter_number: int
    cat: int
    cat_positive: int


def catalan_numbers(family, m=None):
    """Generalized Catalan numbers from the exponents and Coxeter number of
    the family's row in the Coxeter table."""
    exps = list(coxeter_type(SystemSpec(family, m)).exponents)
    h = max(exps) + 1
    den = prod(e + 1 for e in exps)
    num, pnum = prod(h + e + 1 for e in exps), prod(h + e - 1 for e in exps)
    if num % den or pnum % den:
        raise ArithmeticError("Catalan products did not come out integral")
    return GeneralizedCatalan(exps, h, num // den, pnum // den)


@dataclass
class ClassificationReport:
    spec: object
    field_backend: str
    antichain_total: int
    by_size: dict
    maximal_total: int
    good_count: int
    bad_count: int
    propagated_nonempty: int
    lp_resolved: int
    verdicts: list                  # RegionVerdict per antichain, canonical order
    maximal_verdicts: list
    empty_list: list                # antichains of the empty regions
    region_count: int
    bounded_count: int
    catalan: GeneralizedCatalan
    bijection_holds: bool
    bijection_bad_witnesses: list
    degenerate_flags: list = field(default_factory=list)


def classify_maximal(poset):
    """Tag every inclusion-maximal antichain good/bad via Int_C feasibility."""
    out = []
    for a in poset.maximal_antichains():
        res = int_c(poset, a)
        out.append(MaximalAntichainVerdict(
            a,
            good=res.status == "Feasible",
            int_c_witness=res.witness,
            degenerate=res.status == "Degenerate"))
    return out


def _subsets(a):
    """Every subset of a sorted antichain, as sorted tuples."""
    return chain.from_iterable(combinations(a, k) for k in range(len(a) + 1))


def bijection_criterion(poset, maximal_verdicts):
    """Int_C over all nonempty antichains; the bijection holds iff none fails.

    A subset A of a good maximal antichain M has Int_C(M) inside Int_C(A),
    so the subsets of the good M are skipped by membership in one set; of
    the rest, only antichains that are not maximal go through int_c.
    """
    held = {v.antichain: v for v in maximal_verdicts}
    covered = {a for v in maximal_verdicts if v.good
               for a in _subsets(v.antichain)}
    bad = []
    degenerate = []
    for a in poset.antichains():
        if not a or a in covered:
            continue
        if a in held:
            status = "Degenerate" if held[a].degenerate else "Infeasible"
        else:
            status = int_c(poset, a).status
        if status == "Infeasible":
            bad.append(a)
        elif status == "Degenerate":
            degenerate.append(a)
    return {"holds": not bad, "bad_witnesses": bad, "degenerate": degenerate}


def classify_all(poset):
    """Run the whole census for one root poset."""
    rs = poset.system
    antichains = poset.antichains()

    maximal_verdicts = classify_maximal(poset)
    good_count = sum(1 for v in maximal_verdicts if v.good)

    # a good maximal antichain M certifies the regions of the increasing
    # sets I(M) minus any subset of M; collect their masks
    propagated = set()
    for v in maximal_verdicts:
        if v.good:
            top = poset.ideal_mask(v.antichain)
            propagated.update(top & ~sum(1 << i for i in drop)
                              for drop in _subsets(v.antichain))

    degenerate_flags = [
        {"antichain": list(v.antichain), "where": "int_c"}
        for v in maximal_verdicts if v.degenerate]

    verdicts = []
    empty_list = []
    for a in antichains:
        if poset.ideal_mask(a) in propagated:
            # its witness LP runs only if someone reads v.witness
            verdict = RegionVerdict(a, "NonEmpty", method="Propagated",
                                    bounded=bounded(poset, a), poset=poset)
        else:
            verdict = region_status(poset, a)
            if verdict.status == "Empty":
                empty_list.append(a)
            elif verdict.status == "Degenerate":
                degenerate_flags.append(
                    {"antichain": list(a), "where": "region"})
        verdicts.append(verdict)

    by_size = dict(Counter(len(a) for a in antichains))

    region_count = sum(1 for v in verdicts if v.status == "NonEmpty")
    bounded_count = sum(1 for v in verdicts if v.status == "NonEmpty" and v.bounded)

    crit = bijection_criterion(poset, maximal_verdicts)
    if crit["holds"] != (not empty_list):
        raise AssertionError(
            "bijection criterion disagrees with the region census")

    spec = rs.spec
    return ClassificationReport(
        spec=spec,
        field_backend=rs.field,
        antichain_total=len(antichains),
        by_size=by_size,
        maximal_total=len(maximal_verdicts),
        good_count=good_count,
        bad_count=len(maximal_verdicts) - good_count,
        propagated_nonempty=len(propagated),
        lp_resolved=len(antichains) - len(propagated),
        verdicts=verdicts,
        maximal_verdicts=maximal_verdicts,
        empty_list=empty_list,
        region_count=region_count,
        bounded_count=bounded_count,
        catalan=catalan_numbers(spec.family, spec.m),
        bijection_holds=crit["holds"],
        bijection_bad_witnesses=crit["bad_witnesses"],
        degenerate_flags=degenerate_flags
        + [{"antichain": list(a), "where": "int_c"} for a in crit["degenerate"]],
    )


def classify_system(spec):
    return classify_all(RootPoset(build(spec)))


def sweep_ratio(m, ratios=None):
    """Classify the dihedral system of even m across a grid of root-length ratios.

    Returns one row per ratio with counts and a degeneracy marker; rows where
    the region count changes against the previous ratio are flagged.
    """
    if not 2 <= m <= MAX_DIHEDRAL_M:
        raise ValueError(f"ratio sweeps need 2 <= m <= {MAX_DIHEDRAL_M}")
    if m % 2:
        raise OddRatioNotOne("ratio sweeps need even m")
    if ratios is None:
        ratios = default_ratio_grid(m)
    rows = []
    prev = None
    for label, ratio in ratios:
        report = classify_system(SystemSpec(DIHEDRAL, m, ratio))
        row = {
            "ratio": label,
            "region_count": report.region_count,
            "bounded_count": report.bounded_count,
            "degenerate": bool(report.degenerate_flags),
            "count_change": prev is not None and report.region_count != prev,
        }
        prev = report.region_count
        rows.append(row)
    return rows


def default_ratio_grid(m):
    """Critical ratios sin(k pi/m)/sin(l pi/m), the midpoints between them and
    one ratio beyond the largest, all in the ratios' own field: exact for
    m <= 6, Approx above.  They are sorted and deduplicated by ``sgn`` too,
    each value labelled by its last (k, l).  For even m the census is
    constant between critical ratios, so the grid's rows cover every r > 0:
    the argument is in ``tests/test_classifier.py``,
    ``test_ratio_grid_covers_every_ratio``."""
    crit = [(f"sin({k})/sin({l})",
             _resolve_ratio(SystemSpec(DIHEDRAL, m, ("sin", k, l))))
            for k in range(1, m // 2 + 1) for l in range(1, m // 2 + 1)]
    ordered = [run[-1] for run in sorted_runs(crit, key=lambda c: c[1])]
    grid = []
    for idx, (label, r) in enumerate(ordered):
        if idx:
            _, prev_r = ordered[idx - 1]
            grid.append((f"midpoint_{idx}", (prev_r + r) / 2))
        grid.append((label, r))
    grid.append(("beyond_max", ordered[-1][1] + 1))
    return grid


def sign_type_consistency(poset, verdicts):
    """Check that every witness reads back exactly its antichain's ideal."""
    for v in verdicts:
        if v.status != "NonEmpty" or v.witness is None:
            continue
        if witness_sign_type(poset, v.witness) != poset.ideal(v.antichain):
            return False
    return True
