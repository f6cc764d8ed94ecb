"""Self-test of the benchmark on tiny configurations (under a minute).

    python3 perfbench/selftest.py      # from the root of a checkout

Runs an H3 census, ``sweep_ratio(4)`` and an H3 report check, untraced and
traced, and fails unless:

* every metric declared in BENCHMARK.json is printed with its unit, both as
  a ``name value unit`` line and in the closing JSON line;
* every correctness check passes and error_rate is 0;
* the census bytes equal what ``catalanregions classify H3`` prints;
* one flipped witness sign in the stored H3 report makes error_rate positive;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import run

TINY = {
    "census": run.Census("H3"),
    "sweep": run.Sweep((4,)),
    "report": run.ReportCheck(("H3",)),
}


def printed(fn):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    return buf.getvalue().splitlines()


def expect(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")


def check_printed(lines, declared, what):
    result = json.loads(lines[-1])
    expect(set(result["metrics"]) == {m["name"] for m in declared},
           f"{what}: metric names differ from BENCHMARK.json")
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        expect(result["metrics"][name]["unit"] == unit, f"{what}: unit of {name}")
        expect(any(line.split()[0] == name and line.split()[-1] == unit
                   for line in lines[:-1]), f"{what}: {name} line missing")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] > 0, f"{what}: checks failed")
    expect(any(line.startswith("error_rate 0 ") for line in lines),
           f"{what}: error_rate line missing or nonzero")
    return result


def flip(scalar):
    return {**scalar, **{k: str(-Fraction(scalar[k])) for k in ("a", "b")}}


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    prog = run.load_program(root)

    for name, workload in TINY.items():
        lines = printed(lambda: run.emit(*run.end_to_end(
            root, prog, workload, 1, 0.0)))
        check_printed(lines, bench["end_to_end"], f"{name} untraced")
        lines = printed(lambda: run.emit(*run.traced(
            prog, workload, 1, f"selftest-{name}")))
        check_printed(lines, bench["per_layer"], f"{name} traced")
        print(f"{name}: ok")

    report = prog.classifier.classify_system(prog.rootsystem.parse_spec("H3"))
    cli_out = printed(lambda: prog.cli.main(["classify", "H3"]))
    expect(run.serialize(prog.cli, report).splitlines() == cli_out,
           "census bytes differ from `classify H3`")
    print("census bytes match classify: ok")

    workload = TINY["report"]
    inp = workload.prepare(prog, random.Random(1))
    entry = next(e for e in inp.reports[0].entries if "witness" in e)
    entry["witness"][0] = flip(entry["witness"][0])
    _, _, _, checks = run.one_pass(prog, workload, inp)
    failed = [name for name, ok in checks if not ok]
    expect(failed == [f"H3 entry {entry['members']}"],
           f"corrupted witness not caught exactly: {failed}")
    lines = printed(lambda: run.emit({}, checks))
    rate = float(next(l for l in lines if l.startswith("error_rate")).split()[1])
    expect(rate > 0 and not json.loads(lines[-1])["correct"],
           "error_rate did not rise on a corrupted fixture")
    print(f"corrupted fixture: error_rate {rate:.4g}: ok")

    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "benchmark did not fail without sources")
    print("no sources: exits", proc.returncode, ": ok")
    print("selftest passed")


if __name__ == "__main__":
    main()
