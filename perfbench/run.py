"""Census benchmark for catalanregions.

Run from the root of a checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload h4_census --seed 1 --seconds 10 --trace 0

Every workload is a closed loop: one caller, one thread, each call finishing
before the next starts.  Passes repeat until ``--seconds`` of measured time
have elapsed, and at least one pass always runs.

* ``h4_census``      ``classify_system(parse_spec("H4"))``, then
                     ``cli.report_to_json`` and the canonical JSON dump, which
                     is what ``catalanregions classify H4`` does
* ``dihedral_sweep`` ``sweep_ratio(6)`` and ``sweep_ratio(12)``
* ``report_check``   re-verify the stored H4 and H3 reports with public
                     functions only, never solving an LP

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1`` one
untraced and one traced pass run and the per-layer metrics of ``spans.py`` are
printed.  The census is deterministic: the seed only permutes independent
items (sweep order, report order and entries) and samples kernel operands.

Each metric is printed as a line ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
OUT = os.path.join(HERE, "out")
LAYERS = ("classifier", "cli", "exactfield", "feasibility", "rootposet",
          "rootsystem")
# set-up is short and noisy, so it is repeated and its median reported
SETUP_REPEATS = 7
ROW_KEYS = ("ratio", "region_count", "bounded_count", "degenerate")


def load_program(root):
    """Import the catalanregions layers from ``<root>/src``, or exit."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "catalanregions", "__init__.py")):
        sys.exit(f"error: no catalanregions sources under {src}")
    sys.path.insert(0, src)
    prog = SimpleNamespace(**{
        name: importlib.import_module(f"catalanregions.{name}")
        for name in LAYERS})
    if not prog.classifier.__file__.startswith(src + os.sep):
        sys.exit(f"error: catalanregions was imported from "
                 f"{prog.classifier.__file__}, not from {src}")
    return prog


def load_reference():
    with open(os.path.join(FIXTURES, "reference.json")) as fh:
        return json.load(fh)


def read_fixture(name, sha256):
    """Bytes of a fixture file; raises if they differ from the recorded hash."""
    with open(os.path.join(FIXTURES, name), "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise ValueError(f"fixture {name} does not match its recorded sha256")
    return raw


def serialize(cli, report):
    """Report text exactly as ``catalanregions classify`` prints it."""
    return json.dumps(cli.report_to_json(report), sort_keys=True, indent=2) + "\n"


def no_span(name):
    return nullcontext()


# ---------------------------------------------------------------------------
# correctness helpers shared by the census and the report re-check
# ---------------------------------------------------------------------------

def parse_certificate(prog, doc):
    """Certificate object from its report JSON (1-based root numbers)."""
    parse = prog.exactfield.scalar_from_json
    if doc["kind"] == "order":
        return prog.feasibility.OrderCertificate(
            [(i - 1, parse(w)) for i, w in doc["lower"]],
            [(i - 1, parse(w)) for i, w in doc["upper"]])
    return {key: [parse(x) for x in doc[key]] for key in ("ge", "le", "eq")}


def certificate_ok(prog, poset, antichain, cert):
    """Re-check the certificate of an empty region."""
    fz = prog.feasibility
    if isinstance(cert, fz.OrderCertificate):
        return fz.check_order_certificate(poset, cert)
    if not isinstance(cert, dict):
        return False
    system, _ = fz.region_system(poset, antichain)
    try:
        return fz.check_farkas(system, cert, poset.system.zero)
    except AssertionError:
        return False


def entry_ok(prog, poset, entry):
    """Re-check one stored report entry from its witness or certificate."""
    antichain = tuple(i - 1 for i in entry["members"])
    if entry["status"] == "NonEmpty":
        if "witness" not in entry:
            return False
        witness = tuple(prog.exactfield.scalar_from_json(x)
                        for x in entry["witness"])
        return (prog.feasibility.witness_sign_type(poset, witness)
                == poset.ideal(antichain))
    if entry["status"] == "Empty" and "certificate" in entry:
        cert = parse_certificate(prog, entry["certificate"])
        return certificate_ok(prog, poset, antichain, cert)
    return False


def counts_ok(doc, expect):
    """Counts recomputed from the entries agree with the catalog and header."""
    entries = doc["antichains"]
    nonempty = [e for e in entries if e["status"] == "NonEmpty"]
    empty = [e for e in entries if e["status"] == "Empty"]
    got = {
        "antichains": len(entries),
        "regions": len(nonempty),
        "bounded": sum(1 for e in nonempty if e.get("bounded")),
        "empty_sizes": dict(Counter(len(e["members"]) for e in empty)),
        "bijection": doc["bijection"]["holds"],
    }
    header = doc["counts"]
    return (all(getattr(expect, key) in (None, value)
                for key, value in got.items())
            and got["bijection"] == (not empty)
            and header["regions"] == got["regions"]
            and header["bounded"] == got["bounded"]
            and header["empty"] == len(empty))


# ---------------------------------------------------------------------------
# workloads: prepare (set-up, untimed) -> run (timed pass) -> check
# ---------------------------------------------------------------------------

class Census:
    """Classify one system and serialize its report (``classify <label>``)."""

    def __init__(self, label):
        self.label = label

    def prepare(self, prog, rng):
        spec = prog.rootsystem.parse_spec(self.label)
        return SimpleNamespace(
            spec=spec,
            expect=prog.cli.expectation_for(spec),
            sha256=load_reference()["reports"][self.label]["sha256"])

    def items(self, inp):
        return inp.expect.antichains

    def run(self, prog, inp, span):
        report = prog.classifier.classify_system(inp.spec)
        with span("cli.serialize"):
            text = serialize(prog.cli, report)
        return report, text

    def check(self, prog, inp, out):
        report, text = out
        poset = prog.rootposet.RootPoset(prog.rootsystem.build(inp.spec))
        checks = [
            ("counts", not prog.cli.verify_report(report, inp.expect)),
            ("sign types",
             prog.classifier.sign_type_consistency(poset, report.verdicts)),
            ("report sha256",
             hashlib.sha256(text.encode()).hexdigest() == inp.sha256),
        ]
        for v in report.verdicts:
            if v.status != "NonEmpty":
                checks.append((f"certificate {list(v.antichain)}",
                               certificate_ok(prog, poset, v.antichain,
                                              v.certificate)))
        return checks


class Sweep:
    """Ratio sweeps of even dihedral systems against a stored table."""

    def __init__(self, ms):
        self.ms = ms

    def prepare(self, prog, rng):
        order = list(self.ms)
        rng.shuffle(order)
        table = load_reference()["sweeps"]
        return SimpleNamespace(
            order=order,
            grids={m: prog.classifier.default_ratio_grid(m) for m in order},
            expected={m: table[str(m)] for m in order})

    def items(self, inp):
        return sum(row["antichains"]
                   for m in inp.order for row in inp.expected[m])

    def run(self, prog, inp, span):
        return {m: prog.classifier.sweep_ratio(m, inp.grids[m])
                for m in inp.order}

    def check(self, prog, inp, out):
        checks = []
        for m in inp.order:
            rows, want = out[m], inp.expected[m]
            checks.append((f"I2({m}) rows", len(rows) == len(want)))
            for got, ref in zip(rows, want):
                checks.append((f"I2({m}) {ref['ratio']}",
                               all(got[k] == ref[k] for k in ROW_KEYS)))
        return checks


class ReportCheck:
    """Re-verify stored reports: every witness, certificate and count."""

    def __init__(self, labels):
        self.labels = labels

    def prepare(self, prog, rng):
        stored = load_reference()["reports"]
        reports = []
        for label in self.labels:
            raw = read_fixture(stored[label]["file"], stored[label]["sha256"])
            doc = json.loads(raw)
            spec = prog.rootsystem.parse_spec(label)
            entries = list(doc["antichains"])
            rng.shuffle(entries)
            reports.append(SimpleNamespace(
                label=label, spec=spec, doc=doc, entries=entries,
                expect=prog.cli.expectation_for(spec)))
        rng.shuffle(reports)
        return SimpleNamespace(reports=reports)

    def items(self, inp):
        return sum(len(r.entries) for r in inp.reports)

    def run(self, prog, inp, span):
        results = []
        for r in inp.reports:
            poset = prog.rootposet.RootPoset(prog.rootsystem.build(r.spec))
            for entry in r.entries:
                results.append((f"{r.label} entry {entry['members']}",
                                entry_ok(prog, poset, entry)))
            results.append((f"{r.label} counts", counts_ok(r.doc, r.expect)))
        return results

    def check(self, prog, inp, out):
        return out


WORKLOADS = {
    "h4_census": Census("H4"),
    "dihedral_sweep": Sweep((6, 12)),
    "report_check": ReportCheck(("H4", "H3")),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def one_pass(prog, workload, inp, span=no_span):
    """Time one pass; returns (wall s, cpu s, output, checks)."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        out = workload.run(prog, inp, span)
    except Exception:
        traceback.print_exc()
        out = None
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if out is None:
        return wall, cpu, None, [("pass raised", False)]
    try:
        checks = workload.check(prog, inp, out)
    except Exception:
        traceback.print_exc()
        checks = [("check raised", False)]
    return wall, cpu, out, checks


def measure_setup(root, prog, workload, seed):
    """Median fresh-process import plus median input preparation."""
    imports = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, 'src'); import catalanregions"],
            cwd=root, check=True)
        imports.append(time.perf_counter() - t0)
    prepares = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = workload.prepare(prog, random.Random(seed))
        prepares.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(prepares), inp


def end_to_end(root, prog, workload, seed, seconds):
    setup_s, inp = measure_setup(root, prog, workload, seed)
    walls, cpus, checks = [], [], []
    while not walls or sum(walls) < seconds:
        wall, cpu, _, pass_checks = one_pass(prog, workload, inp)
        walls.append(wall)
        cpus.append(cpu)
        checks += pass_checks
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "antichains_per_s": (workload.items(inp) / wall_s, "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls))
    return metrics, checks


def traced(prog, workload, seed, label):
    """One untraced and one traced pass; per-layer metrics and span file."""
    import spans

    rng = random.Random(seed)
    inp = workload.prepare(prog, rng)
    plain_wall, _, _, checks = one_pass(prog, workload, inp)
    tracer = spans.Tracer(prog)
    tracer.install()
    try:
        wall, _, out, traced_checks = one_pass(prog, workload, inp, tracer.span)
    finally:
        tracer.uninstall()
    census = isinstance(workload, Census) and out is not None
    report_bytes = len(out[1].encode()) if census else 0
    metrics = tracer.metrics(plain_wall, wall, report_bytes)
    metrics.update(spans.tau_kernels(prog, rng))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{label}-seed{seed}.jsonl"))
    return metrics, checks + traced_checks


def emit(metrics, checks):
    """Print every metric and the closing JSON line; returns the result."""
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} checks failed)")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    prog = load_program(root)
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, checks = traced(prog, workload, args.seed, args.workload)
    else:
        metrics, checks = end_to_end(root, prog, workload, args.seed,
                                     args.seconds)
    emit(metrics, checks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
