"""Traced mode: spans and counters around the public functions of each layer.

Nothing under ``src/`` changes.  While a traced pass runs, the tracer replaces
module attributes (every alias, so ``classifier.int_c`` is caught as well as
``feasibility.int_c``) and class methods with timing or counting wrappers,
and restores them afterwards.  Spans are kept in memory and written once, as
JSON lines, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Each ``lp_max`` call is attributed to its nearest enclosing stage span.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction

# module -> functions wrapped as spans named "<module>.<function>"
SPAN_FUNCTIONS = {
    "classifier": ("classify_system", "classify_all", "classify_maximal",
                   "bijection_criterion", "sweep_ratio"),
    "feasibility": ("lp_max", "int_c", "region_status", "bounded",
                    "order_certificate", "check_farkas", "witness_sign_type",
                    "check_order_certificate"),
    "rootsystem": ("build",),
    "exactfield": ("scalar_from_json",),
    "cli": ("report_to_json",),
}
POSET_METHODS = {"__init__": "rootposet.init", "ideal": "rootposet.ideal"}
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
         "__rmul__", "__truediv__", "__rtruediv__")
DIVS = ("__truediv__", "__rtruediv__")

# the stage an lp_max call serves: its nearest enclosing span in this table
LP_PURPOSE = {
    "feasibility.order_certificate": "order_cert",
    "feasibility.region_status": "region",
    "feasibility.bounded": "bounded",
    "classifier.classify_maximal": "maximal_int_c",
    "classifier.bijection_criterion": "bijection_int_c",
}
# spans whose antichain argument decides whether their LP repeats a verdict
ITEM_SPANS = ("feasibility.int_c", "feasibility.region_status")
PURPOSES = ("maximal_int_c", "region", "bounded", "bijection_int_c",
            "order_cert")
CHECKS = ("feasibility.check_farkas", "feasibility.witness_sign_type",
          "feasibility.check_order_certificate")


def _keep_antichain(args, result):
    return tuple(args[1])


def _keep_result(args, result):
    return result


# what a span keeps for the analysis after the pass (never written out)
KEEP = {
    "feasibility.int_c": _keep_antichain,
    "feasibility.region_status": _keep_antichain,
    "classifier.classify_all": _keep_result,
    "exactfield.scalar_from_json": _keep_result,
}


class Tracer:
    def __init__(self, prog):
        self.prog = prog
        self.spans = []      # [name, start ns, end ns, parent index, kept]
        self.ops = Counter()
        self._stack = []
        self._saved = []
        self._purpose = {}

    # -- recording -----------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep is not None:
                rec[4] = keep(args, result)
            return result
        return traced

    def _counted(self, key, fn):
        ops = self.ops

        def counted(*args):
            ops[key] += 1
            return fn(*args)
        return counted

    @contextmanager
    def span(self, name):
        """A span around benchmark code (used for the canonical dump)."""
        stack, clock = self._stack, time.perf_counter_ns
        rec = [name, clock(), 0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = clock()
            stack.pop()

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        prog = self.prog
        modules = list(vars(prog).values())
        for mod_name, names in SPAN_FUNCTIONS.items():
            for attr in names:
                original = getattr(getattr(prog, mod_name), attr)
                wrapper = self._timed(f"{mod_name}.{attr}", original)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        self._patch(mod, key, wrapper)
        poset_cls = prog.rootposet.RootPoset
        for attr, name in POSET_METHODS.items():
            self._patch(poset_cls, attr, self._timed(name, vars(poset_cls)[attr]))
        for cls in (prog.exactfield.QuadExt, prog.exactfield.Approx):
            for attr in ARITH + ("sign",):
                key = f"{cls.__name__}.{attr}"
                self._patch(cls, attr, self._counted(key, vars(cls)[attr]))

    def uninstall(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def _lp_purposes(self):
        """Purpose of every lp_max span, and how many repeat a held verdict."""
        spans = self.spans
        purpose = Counter()
        repeats = 0
        held = {}
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name != "feasibility.lp_max":
                continue
            kind, item, census = "other", None, None
            j = parent
            while j >= 0:
                ancestor = spans[j][0]
                if kind == "other" and ancestor in LP_PURPOSE:
                    kind = LP_PURPOSE[ancestor]
                if item is None and ancestor in ITEM_SPANS:
                    item = spans[j][4]
                if ancestor == "classifier.classify_all":
                    census = j
                    break
                j = spans[j][3]
            self._purpose[i] = kind
            purpose[kind] += 1
            if census is None or item is None:
                continue
            if census not in held:
                held[census] = _held_verdicts(spans[census][4])
            if item in held[census].get(kind, ()):
                repeats += 1
        return purpose, repeats

    def metrics(self, untraced_wall_s, traced_wall_s, report_bytes):
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total_ns = defaultdict(int)
        calls = Counter()
        self_ns = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            total_ns[name] += end - start
            calls[name] += 1
            self_ns[name.split(".")[0]] += end - start - child_ns[i]

        def secs(*names):
            return sum(total_ns[n] for n in names) / 1e9

        purpose, repeats = self._lp_purposes()
        lp_calls = calls["feasibility.lp_max"]
        reports = [s[4] for s in spans
                   if s[0] == "classifier.classify_all" and s[4] is not None]
        parsed = [s[4] for s in spans if s[0] == "exactfield.scalar_from_json"]
        to_json = self.prog.exactfield.scalar_to_json
        bits = max((_scalar_bits(to_json(x))
                    for x in _emitted_scalars(reports, parsed)), default=0)
        out = {
            "feasibility.lp_calls": (lp_calls, "count"),
            **{f"feasibility.lp_calls.{p}": (purpose[p], "count")
               for p in PURPOSES},
            "feasibility.lp_s": (secs("feasibility.lp_max"), "s"),
            "feasibility.lp_ms_per_call": (
                secs("feasibility.lp_max") * 1e3 / lp_calls if lp_calls else 0.0,
                "ms"),
            "feasibility.check_s": (secs(*CHECKS), "s"),
            "feasibility.cert_max_bits": (bits, "bits"),
            "classifier.maximal_s": (secs("classifier.classify_maximal"), "s"),
            "classifier.region_s": (secs("feasibility.region_status"), "s"),
            "classifier.bounded_s": (secs("feasibility.bounded"), "s"),
            "classifier.bijection_s": (
                secs("classifier.bijection_criterion"), "s"),
            "classifier.self_s": (self_ns["classifier"] / 1e9, "s"),
            "classifier.propagated": (
                sum(r.propagated_nonempty for r in reports), "count"),
            "classifier.lp_repeat_frac": (
                repeats / lp_calls if lp_calls else 0.0, "ratio"),
            "exactfield.quad_ops": (
                sum(self.ops[f"QuadExt.{a}"] for a in ARITH), "count"),
            "exactfield.quad_divs": (
                sum(self.ops[f"QuadExt.{a}"] for a in DIVS), "count"),
            "exactfield.sign_calls": (self.ops["QuadExt.sign"], "count"),
            "exactfield.approx_ops": (
                sum(self.ops[f"Approx.{a}"] for a in ARITH + ("sign",)),
                "count"),
            "exactfield.parse_s": (secs("exactfield.scalar_from_json"), "s"),
            "rootsystem.build_calls": (calls["rootsystem.build"], "count"),
            "rootsystem.build_s": (secs("rootsystem.build"), "s"),
            "rootposet.init_s": (secs("rootposet.init"), "s"),
            "rootposet.ideal_calls": (calls["rootposet.ideal"], "count"),
            "rootposet.ideal_s": (secs("rootposet.ideal"), "s"),
            "cli.serialize_s": (secs("cli.serialize"), "s"),
            "cli.report_bytes": (report_bytes, "B"),
            "trace.overhead_frac": (
                (traced_wall_s - untraced_wall_s) / untraced_wall_s, "ratio"),
        }
        print(f"lp repeats {repeats} of {lp_calls}; spans {len(spans)}")
        return out

    def write(self, path):
        """Write every span, then the operation counters, as JSON lines."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                rec = {"id": i, "parent": parent, "name": name,
                       "start_ns": start - origin, "end_ns": end - origin}
                if i in self._purpose:
                    rec["purpose"] = self._purpose[i]
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counters": dict(sorted(self.ops.items()))})
                     + "\n")


def _held_verdicts(report):
    """Antichains whose LP verdict the classifier already held, by purpose.

    A region LP repeats when propagation below a good maximal antichain has
    already shown the region nonempty; a bijection Int_C LP repeats on a
    maximal antichain (solved in the maximal pass) or on a subset of a good
    one (the same point satisfies fewer equalities).
    """
    if report is None:
        return {}
    maximal = [v.antichain for v in report.maximal_verdicts]
    good = [set(v.antichain) for v in report.maximal_verdicts if v.good]
    subsets = {v.antichain for v in report.verdicts
               if v.antichain and any(set(v.antichain) <= g for g in good)}
    return {
        "region": {v.antichain for v in report.verdicts
                   if v.method == "Propagated"},
        "bijection_int_c": set(maximal) | subsets,
    }


def _emitted_scalars(reports, parsed):
    """Every witness and certificate scalar a report carries, plus parsed ones."""
    for report in reports:
        for v in report.verdicts:
            yield from v.witness or ()
            cert = v.certificate
            if isinstance(cert, dict):
                for key in ("ge", "le", "eq"):
                    yield from cert[key]
            elif cert is not None:
                yield from (w for _, w in cert.lower + cert.upper)
    yield from parsed


def _scalar_bits(doc):
    """Largest numerator or denominator bit length of a serialized scalar."""
    bits = 0
    for key in ("a", "b"):
        if key in doc:
            q = Fraction(doc[key])
            bits = max(bits, q.numerator.bit_length(),
                       q.denominator.bit_length())
    return bits


# ---------------------------------------------------------------------------
# kernel timings on tau operands sampled from a traced H4 census
# ---------------------------------------------------------------------------

KERNEL_SAMPLE = 128
KERNEL_REPEATS = 15


def tau_kernels(prog, rng):
    """Median per-operation cost of tau mul, div and sign, in microseconds."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "fixtures", "reference.json")) as fh:
        stored = json.load(fh)["operands"]
    with open(os.path.join(here, "fixtures", stored["file"]), "rb") as fh:
        pool = json.loads(fh.read())
    parse = prog.exactfield.scalar_from_json
    sgn = prog.exactfield.sgn

    def sample(items):
        return rng.sample(items, min(KERNEL_SAMPLE, len(items)))

    muls = [(parse(a), parse(b)) for a, b in sample(pool["mul"])]
    divs = [(parse(a), parse(b)) for a, b in sample(pool["div"])]
    signs = [parse(x) for x in sample(pool["sign"])]

    def per_op_us(kernel, items):
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            kernel(items)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / len(items) * 1e6

    return {
        "exactfield.tau_mul_us": (
            per_op_us(lambda xs: [a * b for a, b in xs], muls), "us"),
        "exactfield.tau_div_us": (
            per_op_us(lambda xs: [a / b for a, b in xs], divs), "us"),
        "exactfield.tau_sign_us": (
            per_op_us(lambda xs: [sgn(x) for x in xs], signs), "us"),
    }
