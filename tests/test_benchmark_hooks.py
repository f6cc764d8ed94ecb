"""The traced benchmark patches the program's functions and scalar methods by
name; a rename or a method moved to a base class must fail here, not only in
a traced benchmark run."""

import json
import sys
from fractions import Fraction
from pathlib import Path

from catalanregions.classifier import default_ratio_grid
from catalanregions.exactfield import (
    QuadExt,
    as_mpf,
    scalar_from_json,
    scalar_to_json,
    sqrt2,
    tau,
)
from helpers import QuadExtReference, matches_reference_report

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


def test_tracer_hooks_i2_12_sweep():
    """The I2(12) sweep runs on Approx, so its patched methods are hit."""
    prog = run.load_program(str(ROOT))
    tracer = spans.Tracer(prog)
    tracer.install()
    try:
        rows = prog.classifier.sweep_ratio(12)
    finally:
        tracer.uninstall()
    want = run.load_reference()["sweeps"]["12"]
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert all(got[k] == ref[k] for k in run.ROW_KEYS), ref["ratio"]
    metrics = tracer.metrics(1.0, 1.0, 0)
    assert metrics["exactfield.approx_ops"][0] > 0


def test_kernel_operands_round_trip():
    """The tau operands the kernel timings parse serialize back unchanged."""
    pool = json.loads(
        (ROOT / "perfbench" / "fixtures" / "tau_operands.json").read_text())
    docs = [d for key in ("mul", "div") for pair in pool[key] for d in pair]
    docs += pool["sign"]
    assert len(docs) == 1280
    for doc in docs:
        assert scalar_to_json(scalar_from_json(doc)) == doc
    # zero, negative, integral and large-denominator parts, each written
    # as the str of its Fraction
    big = Fraction(-(3 ** 80), 2 ** 70 * 5 ** 31)
    for a, b in [(0, 0), (0, -1), (-7, 0), (12, -4), (Fraction(-3, 6), 0),
                 (Fraction(5, 9), Fraction(-2, 3)), (big, 1 / big),
                 (Fraction(10 ** 40, 3), -(10 ** 30))]:
        for x in (tau(a, b), sqrt2(a, b)):
            doc = scalar_to_json(x)
            assert doc == {"a": str(Fraction(a)), "b": str(Fraction(b)),
                           "field": x.rel[2]}
            assert scalar_from_json(doc) == x


def test_ratio_grid_values_match_reference_scalar(monkeypatch):
    """The sweep grid's values, midpoints included, do not depend on how a
    quadratic scalar is stored."""
    grid = [(label, as_mpf(r)) for label, r in default_ratio_grid(6)]
    assert any(isinstance(r, QuadExt) for _, r in default_ratio_grid(6))
    monkeypatch.setattr(
        QuadExt, "mpf",
        lambda self: QuadExtReference(self.a, self.b, self.rel).mpf())
    assert [(label, as_mpf(r)) for label, r in default_ratio_grid(6)] == grid

