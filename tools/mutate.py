"""Mutation testing for one module: flip one operator at a time and run the
module's tests against each mutant.

    python tools/mutate.py src/catalanregions/rootposet.py [TEST_FILE ...]

The tests default to tests/test_<module>.py.  The repository, without .git,
is copied once into a temporary directory (set TMPDIR to choose where), and
each mutant replaces the module there and runs ``pytest -x`` in one
subprocess.  A mutant is killed when the tests fail, survives when they
pass, and hangs when one test outlives five times the slowest test of the
unmutated run (at least 30 s): this module, loaded into pytest as a plugin,
stamps each test's start and finish in a clock file.  The flips are
comparisons, ``& |``, ``+ -`` and ``and or``, outside annotations.  A
survivor listed in EQUIVALENT is counted apart, so that a new survivor
stands out; each entry names one site by its line and the flipped
sub-expression, so two flips of one kind on a line stay apart, and an
entry of the module that names no site is printed as stale.
See DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11 (1978).
"""

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLOCK = "mutate.clock"  # beside this file: one line per test start and finish
PAIRS = [(ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq),
         (ast.Is, ast.IsNot), (ast.In, ast.NotIn), (ast.Add, ast.Sub),
         (ast.BitAnd, ast.BitOr), (ast.And, ast.Or)]
FLIPS = {**dict(PAIRS), **{b: a for a, b in PAIRS}}
# (module, stripped source line, flip, flipped sub-expression) -> why no
# test can tell the mutant
EQUIVALENT = {
    ("classifier.py", "if num % den or pnum % den:", "Or -> And",
     "num % den or pnum % den"):
        "every row's Catalan products are integral, so neither test fires",
    ("classifier.py", 'if v.status != "NonEmpty" or v.witness is None:',
     "Or -> And", "v.status != 'NonEmpty' or v.witness is None"):
        "a verdict has a witness exactly when it is NonEmpty",
    ("feasibility.py",
     "return frozenset(i for i, s in enumerate(signs) if s > 0)",
     "Gt -> GtE", "s > 0"):
        "a zero sign has returned None on the line before",
    ("feasibility.py", "row[j] = one if u > 0 else -one", "Gt -> GtE",
     "u > 0"): "every assembly passes unit entries 1 or -1, never 0",
    ("feasibility.py", "if px < 0:", "Lt -> LtE", "px < 0"):
        "a pivot entry is never zero",
    ("feasibility.py", "if d < 0:", "Lt -> LtE", "d < 0"):
        "the norm of a nonzero x + y*rho with y != 0 is never zero",
    ("feasibility.py", "combo if sg > 0 else [zero - x for x in combo])",
     "Gt -> GtE", "sg > 0"): "the line before has tested sg nonzero",
    ("feasibility.py", "if sp >= 0:", "GtE -> Gt", "sp >= 0"):
        "a row with a zero s_t coefficient pairs into a positive multiple of "
        "itself, after the row itself, so no bound or refutation changes",
    ("feasibility.py", "if sq <= 0:", "LtE -> Lt", "sq <= 0"):
        "a row with a zero s_t coefficient pairs into a positive multiple of "
        "itself, after the row itself, so no bound or refutation changes",
    ("feasibility.py", "if sg < 0 and (lo is None or sgn(bound - lo) > 0):",
     "Lt -> LtE", "sg < 0"): "a zero sign has continued above",
    ("feasibility.py", "if sg < 0 and (lo is None or sgn(bound - lo) > 0):",
     "Gt -> GtE", "sgn(bound - lo) > 0"): "an equal bound leaves lo as it is",
    ("feasibility.py",
     "elif sg > 0 and (hi is None or sgn(bound - hi) < 0):", "Gt -> GtE",
     "sg > 0"): "a zero sign has continued above",
    ("feasibility.py",
     "elif sg > 0 and (hi is None or sgn(bound - hi) < 0):", "Lt -> LtE",
     "sgn(bound - hi) < 0"): "an equal bound leaves hi as it is",
    ("feasibility.py",
     "if s > 0 or (s == 0 and basis[i] > basis[leave]):", "Gt -> GtE",
     "basis[i] > basis[leave]"): "two rows never share a basic column",
    ("exactfield.py", "if mpmath.mp.dps < DECIMAL_DPS:", "Lt -> LtE",
     "mpmath.mp.dps < DECIMAL_DPS"):
        "at exactly DECIMAL_DPS digits the assignment sets what is there",
    ("exactfield.py", "if x < 0:", "Lt -> LtE", "x < 0"):
        "x == 0 has raised DivByZero on the line before",
    ("exactfield.py", "if n < 0:", "Lt -> LtE", "n < 0"):
        "the norm of x + y*rho with y != 0 is never 0, since rho is irrational",
    ("exactfield.py",
     "if other.rel is not self.rel and other.rel != self.rel:", "And -> Or",
     "other.rel is not self.rel and other.rel != self.rel"):
        "relations are module singletons, so 'is not' and '!=' agree",
}


def sites(tree):
    """The flippable operator nodes as (node, index into ops or None)."""
    skip = {id(n) for a in ast.walk(tree)
            for ann in (getattr(a, "annotation", None),
                        getattr(a, "returns", None))
            if ann is not None for n in ast.walk(ann)}
    out = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            out += [(node, i) for i, op in enumerate(node.ops)
                    if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) \
                and type(node.op) in FLIPS:
            out.append((node, None))
    return out


def mutant(source, k):
    """The source with the k-th site flipped, and its (line, flip, expr)
    label: expr is the flipped sub-expression as it reads unmutated, with
    the operator's position in a chained comparison."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    expr = ast.unparse(node)
    if i is not None and len(node.ops) > 1:
        expr += f" [{i}]"
    old = node.ops[i] if i is not None else node.op
    new = FLIPS[type(old)]()
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
    flip = f"{type(old).__name__} -> {type(new).__name__}"
    return ast.unparse(tree), (node.lineno, flip, expr)


def _stamp():
    with open(Path(__file__).with_name(CLOCK), "a") as clock:
        clock.write(f"{time.time()}\n")


def pytest_runtest_logstart(nodeid, location):
    """Plugin hook: a test starts."""
    _stamp()


def pytest_runtest_logfinish(nodeid, location):
    """Plugin hook: a test, its setup and teardown included, has finished."""
    _stamp()


def run_tests(work, tests, limit):
    """Run the tests in the copy at ``work``: "survived", "killed", or
    "hung" when ``limit`` seconds pass with no test starting or finishing.
    The run's clock file holds its stamps afterwards."""
    clock = work / "tools" / CLOCK
    clock.write_text("")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(work / "src"),
                                           str(work / "tools")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-p", "mutate", *tests],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    while True:
        try:
            return "survived" if proc.wait(1) == 0 else "killed"
        except subprocess.TimeoutExpired:
            if limit and time.time() - clock.stat().st_mtime > limit:
                os.killpg(proc.pid, signal.SIGKILL)  # pytest's own children too
                proc.wait()
                return "hung"


def slowest_test(work):
    """The longest start-to-finish span of one test in the last run."""
    stamps = [float(x) for x in (work / "tools" / CLOCK).read_text().split()]
    return max(b - a for a, b in zip(stamps[::2], stamps[1::2]))


def main(argv):
    module, tests = Path(argv[0]).resolve().relative_to(ROOT), argv[1:]
    tests = tests or [f"tests/test_{module.stem}.py"]
    source = (ROOT / module).read_text()
    lines = source.splitlines()
    mutants = [mutant(source, k) for k in range(len(sites(ast.parse(source))))]
    keys = [(module.name, lines[line - 1].strip(), flip, expr)
            for _, (line, flip, expr) in mutants]
    for key in sorted(EQUIVALENT.keys() - set(keys)):
        if key[0] == module.name:
            print(f"stale EQUIVALENT key, no such site: {key}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        (work / module).write_text(ast.unparse(ast.parse(source)))
        if run_tests(work, tests, None) != "survived":
            sys.exit(f"the tests fail on the unmutated {module}")
        slowest = slowest_test(work)
        limit = max(30.0, 5 * slowest)
        print(f"slowest unmutated test {slowest:.1f} s, "
              f"so a mutant hangs after {limit:.0f} s in one test", flush=True)
        counts = {"killed": 0, "survived": 0, "hung": 0, "equivalent": 0}
        for (text, (line, flip, expr)), key in zip(mutants, keys):
            (work / module).write_text(text)
            outcome = run_tests(work, tests, limit)
            why = EQUIVALENT.get(key)
            if outcome == "survived" and why:
                outcome = "equivalent"
            counts[outcome] += 1
            if outcome != "killed":
                note = f"  ({why})" if outcome == "equivalent" else ""
                print(f"{outcome}: {module}:{line}: {flip} in {expr}: "
                      f"{lines[line - 1].strip()}{note}", flush=True)
    print(f"{module}: {sum(counts.values())} mutants, "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
