import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from catalanregions import cli
from catalanregions.classifier import classify_all
from catalanregions.cli import (
    expectation_for,
    main,
    report_schema,
    report_to_json,
    verify_report,
)
from catalanregions.rootposet import RootPoset
from catalanregions.rootsystem import MAX_RATIO_DIGITS, build, parse_spec
from helpers import matches_reference_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "H3")
    assert code == 0
    assert "15 positive roots" in out


def test_roots_largest_dihedral(capsys):
    code, out, _ = run(capsys, "roots", "I2:400")
    assert code == 0
    assert "(approx backend, 400 positive roots)" in out
    assert sum(" orbit a" in line for line in out.splitlines()) == 400


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "I2:4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 4 and doc["field_backend"] == "sqrt2"


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "H3")
    assert code == 0
    assert out.startswith("digraph") and "style=dashed" in out


def test_antichains(capsys):
    code, out, _ = run(capsys, "antichains", "I2:5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 8


def test_classify_text_show_empty(capsys):
    code, out, _ = run(capsys, "classify", "I2:6", "--format", "text",
                       "--show-empty")
    assert code == 0
    assert "regions 10" in out and "bijection holds" in out


@pytest.mark.parametrize("argv", [
    ["classify", "I2:5", "--show-empty"],
    ["classify", "I2:5", "--show-empty", "--format", "json"],
])
def test_classify_json_show_empty_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--show-empty" in err


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "I2:7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, report_schema())
    assert doc["counts"]["regions"] == 11
    assert doc["field_backend"] == "approx"


def test_h4_report_validates(h4_report):
    doc = report_to_json(h4_report)
    jsonschema.validate(doc, report_schema())
    assert doc["counts"]["regions"] == 413
    empties = [a for a in doc["antichains"] if a["status"] == "Empty"]
    assert len(empties) == 16
    # the schema has checked each one's shape: kind, root numbers, weights
    assert all(a["certificate"]["kind"] == "order" for a in empties)
    nonempty = [a for a in doc["antichains"] if a["status"] == "NonEmpty"]
    assert all("witness" in a and "bounded" in a for a in nonempty)
    # the order comparison is the only certificate kind, and a weight pair
    # has both of its entries
    cert = empties[0]["certificate"]
    one = {"a": "1", "field": "rational"}
    for bad in ({"kind": "farkas", "ge": [one], "le": [one], "eq": []},
                {**cert, "kind": "farkas"},
                {**cert, "lower": [[1]]},
                {**cert, "upper": [[0, one]]}):
        empties[0]["certificate"] = bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, report_schema())


# sha256 of `classify` stdout on the Approx backend, pinned like H3 and H4
APPROX_REPORT_SHA256 = {
    "I2:7": "1a28bda4b8dee7ee477be04573dd64045ad37aa8dbe3b5cb4411cb05aef3ee76",
    "I2:8:r=1.3":
        "3f8780e34940b166b3f8b27232a15cf25a40fc831ce38b1edffe59863ebf30c7",
    "I2:12:r=sin(1)/sin(4)":
        "5f5aed68d916a977681a1cc9d6ae23999d363564f1d91d494a2cd5ceaae4ad98",
}


def test_classify_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "I2:7")
    _, out2, _ = run(capsys, "classify", "I2:7")
    assert out1 == out2
    code, out, _ = run(capsys, "classify", "H3")
    assert code == 0 and matches_reference_report("H3", out.encode())
    for spec, want in APPROX_REPORT_SHA256.items():
        code, out, _ = run(capsys, "classify", spec)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, spec


# sha256 of `poset --format {dot,json,text}` and `antichains --format json`
# stdout, captured from the pairwise n x n order before the bitmask rewrite;
# `roots` and `catalan` are those commands' `--format json` stdout, captured
# before the Coxeter table built the Gram matrices (the simple roots' norm2
# is the Gram diagonal)
POSET_OUTPUT_SHA256 = {
    "H3": {
        "roots":
            "91483624d532e2cda0722285db1e8a37be90ac6a104e4014f857fae5d21f0144",
        "catalan":
            "48b17d975f3b943d1e9bba54233572ba67b8af788407749f509cfe382794e6ab",
    },
    "H4": {
        "roots":
            "cfdc59407be16230b4be8ea081d23d7774dfe900898a31422d7ea7803d413f6a",
        "catalan":
            "f8682ce7eb3d94896f1f5d8ff6370c0b0873761e34828fa037358f6a04f2a14c",
        "dot": "5aa0676366b8c515aa88897b5db2bc1a31389660353f56110a90ce060c4ad096",
        "json": "5f9a23eb87bfd84dac0db3faeaaac2fa218d91677c25d9d36bf0ea7f521e6bb3",
        "text": "7f6ba54745deba7ba51491702967efb1dd88669cc00a41367c6ce549d92c452b",
        "antichains":
            "06acc8b2b63b783fd1ea4c7af328c424c432e2fbac381c908811d3c0d7f849ae",
    },
    "I2:12": {
        "dot": "4c29be2a9d5921752a316465697c511f1f83fa34f5f001b0e9d87ec8140ff678",
        "json": "c7df8b348a8cb38e56a0f73ef866549899b196a4341684da3ff12226e850c4d6",
        "text": "9ba62af3225f01d02cb5136ddfc3422777ce7202817285085d42c5a2eeee7619",
        "antichains":
            "4dcd35d7cecc523f2c7de1fe0d773c554c54d08bd255891b18d775649919eaeb",
    },
    "I2:100": {
        "dot": "19b6f891c504d584e66f67cb1f6ef690c548b355cfa45b8bbb3b44b25ce58162",
        "json": "8ba71a72baa6190483f9c4a8e7f77bcda2bc4ea9ddd0be71eef323f6147cd410",
        "text": "0e4939b6a3bf075dd8206a5d2ce60c7312477a2bef010dd80a4828be0df6919c",
        "antichains":
            "fc05948d8d682fb1e8820ad366fe9d04ae70feb3e173bf82515da41064d0bd11",
    },
    "I2:400": {
        "dot": "025ab58b7cbc43387a199db951951ecc405358ffa6ba96c7b7280e51a9f7ff7f",
        "json": "f8a3c5e2cd61693945823cd59bab262ac12d1eccd8cd327ed7aeb8e01ee79586",
        "text": "b84ffae1fb6eac93a564f5e660ea6400c866b746ede7a271bdc46c21d27db106",
        "antichains":
            "a0a7ee0a0d69399a4ec7ec8a7e4680ca47e8c6e6f79d08ee4cc8fb3e23c8541b",
    },
    "I2:5": {
        "roots":
            "2e2c0ee274188e34f9fad874695581b7724a326d324d626db4abf963bc7efd2d",
        "catalan":
            "8679c32d6a30391692b6adc3bde3c04b9edea05dc5d902eed1953fc7f567ac30",
    },
    "I2:8:r=1.3": {
        "roots":
            "01de8847f85a67bb1fb181eadd071abf46444baa4f1cc459b8174cfe7eba6586",
        "catalan":
            "97d38e0fef22404f4cd3a7624003ca1635ff827e0b7f576573bc4bd28c4ca467",
    },
    "I2:4:r=sin(1)/sin(3)": {
        "roots":
            "de8aaabf155b9dc9f15585f0eec98bda5c9264d545e7d05e0f30dc9bb5b46556",
        "catalan":
            "812e41f39cc2f12aec7c23cf76532380104ad3bf534158c319c52444c33e7f2d",
    },
}


@pytest.mark.parametrize("spec", POSET_OUTPUT_SHA256)
def test_poset_outputs_pinned(capsys, spec):
    for fmt, want in POSET_OUTPUT_SHA256[spec].items():
        argv = ([fmt, spec, "--format", "json"]
                if fmt in ("antichains", "roots", "catalan")
                else ["poset", spec, "--format", fmt])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, (spec, fmt)


def test_verify_ok(capsys):
    # the last two ratios resolve to exactly 1: sin(5) = sin(1) for m = 6
    # and sin(5) = sin(3) for m = 8
    for spec in ("H3", "I2:3", "I2:4", "I2:9", "I2:10",
                 "I2:6:r=sin(1)/sin(5)", "I2:8:r=sin(3)/sin(5)"):
        code, out, _ = run(capsys, "verify", spec)
        assert code == 0, out
        assert "ok" in out


def test_verify_detects_mismatch(h3_report):
    expect = expectation_for(parse_spec("H3"))
    expect.regions = 40
    diffs = verify_report(h3_report, expect)
    assert diffs and "regions" in diffs[0]


def test_verify_unknown_catalog(capsys):
    code, _, err = run(capsys, "verify", "I2:6:r=0.37")
    assert code == 2


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "NOPE")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "roots", "I2:6:r=sin(1)/sin(6)")
    assert code == 2 and "error" in err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_classify_bounds_the_ratio_before_the_census(capsys, monkeypatch):
    code, out, _ = run(capsys, "classify", f"I2:4:r=1e{MAX_RATIO_DIGITS}",
                       "--format", "text")
    assert code == 0 and "bijection holds" in out
    # the label of 10**5000 would not print; the spec fails before any work
    monkeypatch.setattr(cli, "classify_system",
                        lambda spec: pytest.fail("the census ran"))
    code, out, err = run(capsys, "classify", "I2:4:r=1e5000")
    assert code == 2 and out == "" and str(MAX_RATIO_DIGITS) in err


def test_catalan_command(capsys):
    code, out, _ = run(capsys, "catalan", "H4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cat"] == 280 and doc["cat_positive"] == 232


@pytest.mark.parametrize("spec", [
    "I2:5:r=2", "I2:7:r=sin(1)/sin(2)", "I2:6:r=-1", "I2:6:r=0"])
def test_catalan_rejects_bad_ratio(capsys, spec):
    # the ratio checks every other subcommand applies at build time
    for command in ("catalan", "roots"):
        code, out, err = run(capsys, command, spec)
        assert code == 2 and out == "" and "ratio" in err


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 4 and len(doc["rows"]) >= 5


def test_figure_svg_region_count(capsys, tmp_path):
    for spec in ("I2:4", "I2:5", "I2:6", "I2:7"):
        out_path = tmp_path / f"{spec.replace(':', '_')}.svg"
        code, _, _ = run(capsys, "figure", spec, "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        poset = RootPoset(build(parse_spec(spec)))
        report = classify_all(poset)
        assert svg.count('class="region"') == report.region_count
        assert (tmp_path / f"{spec.replace(':', '_')}.dot").exists()


def test_figure_rank_mismatch(capsys, monkeypatch):
    def no_census(poset):
        raise AssertionError("figure ran the census before the rank check")

    monkeypatch.setattr(cli, "classify_all", no_census)
    for spec in ("H3", "H4"):
        code, _, err = run(capsys, "figure", spec)
        assert code == 2 and "rank-2" in err


def test_out_file(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, "classify", "I2:3", "--out", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["counts"]["regions"] == 5


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "no_such_dir" / "r.json"
    code, out, err = run(capsys, "classify", "I2:5", "--out", str(missing))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not missing.exists()
    # a directory stands where the .dot sidecar goes: no SVG is left either
    (tmp_path / "fig.dot").mkdir()
    code, out, err = run(capsys, "figure", "I2:6", "--out",
                         str(tmp_path / "fig.svg"))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not (tmp_path / "fig.svg").exists()
    # a directory stands where the SVG goes: no empty .dot is left either
    (tmp_path / "d" / "fig.svg").mkdir(parents=True)
    code, out, err = run(capsys, "figure", "I2:6", "--out",
                         str(tmp_path / "d" / "fig.svg"))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not (tmp_path / "d" / "fig.dot").exists()


@pytest.mark.parametrize("argv", [
    ["classify", "H3", "--format", "dot"],
    ["classify", "H3", "--format", "svg"],
    ["roots", "H3", "--format", "dot"],
    ["antichains", "H3", "--format", "svg"],
    ["poset", "H3", "--format", "svg"],
    ["figure", "I2:4", "--format", "json"],
    ["verify", "H3", "--format", "json"],
    ["verify", "H3", "--out", "report.json"],
    ["catalan", "H4", "--field", "exact"],
    ["catalan", "H4", "--epsilon", "1e-20"],
    ["sweep", "6", "--field", "exact"],
    ["classify", "I2:5", "--threads", "2"],
    # the spec alone picks the scalar backend
    ["classify", "H3", "--field", "approx"],
    ["classify", "I2:7", "--epsilon", "1e-25"],
    ["verify", "H4", "--field", "exact"],
    ["roots", "I2:5", "--field", "approx"],
    ["poset", "H3", "--epsilon", "1e-20"],
    ["antichains", "H3", "--field", "auto"],
    ["figure", "I2:4", "--field", "exact"],
])
def test_unused_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_format_choices_per_subcommand(capsys):
    code, out, _ = run(capsys, "poset", "I2:3", "--format", "text")
    assert code == 0 and "<" in out
    code, out, _ = run(capsys, "figure", "I2:3", "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run(capsys, "catalan", "I2:5")
    assert code == 0 and "cat = 7" in out


@pytest.mark.parametrize("m", ["0", "-4", "7", "100000"])
def test_sweep_bad_m(capsys, m):
    code, out, err = run(capsys, "sweep", m)
    assert code == 2 and out == "" and err.startswith("error:")


def test_python_dash_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "catalanregions", "verify", "H3"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert "H3: ok" in done.stdout

