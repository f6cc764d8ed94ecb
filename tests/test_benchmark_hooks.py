"""The traced benchmark patches the program's functions and scalar methods by
name; a rename or a method moved to a base class must fail here, not only in
a traced benchmark run."""

import sys
from pathlib import Path

from helpers import matches_reference_report

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402


def test_tracer_hooks_h3_census():
    prog = run.load_program(str(ROOT))
    tracer = spans.Tracer(prog)
    tracer.install()
    try:
        report = prog.classifier.classify_system(
            prog.rootsystem.parse_spec("H3"))
        text = run.serialize(prog.cli, report)
    finally:
        tracer.uninstall()
    data = text.encode()
    assert matches_reference_report("H3", data)
    metrics = tracer.metrics(1.0, 1.0, len(data))
    assert metrics["feasibility.lp_calls"][0] > 0
    assert metrics["exactfield.quad_ops"][0] > 0


def test_tracer_hooks_i2_6_sweep():
    """The sweep midpoints run on Approx, so its patched methods are hit."""
    prog = run.load_program(str(ROOT))
    tracer = spans.Tracer(prog)
    tracer.install()
    try:
        rows = prog.classifier.sweep_ratio(6)
    finally:
        tracer.uninstall()
    want = run.load_reference()["sweeps"]["6"]
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert all(got[k] == ref[k] for k in run.ROW_KEYS), ref["ratio"]
    metrics = tracer.metrics(1.0, 1.0, 0)
    assert metrics["exactfield.approx_ops"][0] > 0
