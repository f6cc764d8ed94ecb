"""Cross-checks too long for the tier-1 suite, one line per system.

    python tools/oracles.py

It runs, in turn,

- zaslavsky: ``check_census`` of tests/test_zaslavsky.py, the flats of the
  arrangement against the census, on A6 and E6 and on every system of the
  I2:2-40 and I2:100 groups of tests/helpers.py;
- dihedral: the three closed-form checks of tests/test_dihedral.py (root
  order, Int_C on pairs, census counts) for every m from 2 to
  MAX_DIHEDRAL_M.

The checks are imported from the test modules, not copied; the exit
status is 1 when one fails.
"""

import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from catalanregions import rootsystem  # noqa: E402
from catalanregions.rootsystem import MAX_DIHEDRAL_M, build  # noqa: E402
from catalanregions.rootsystem import parse_spec  # noqa: E402
import test_dihedral  # noqa: E402
from helpers import REGION_SPECS  # noqa: E402
from test_weyl import WEYL_TYPES  # noqa: E402
from test_zaslavsky import check_census  # noqa: E402


def run(label, check):
    """Run one system's check and print its line; True when it passes."""
    start = time.perf_counter()
    try:
        result = check()
    except AssertionError:
        print(f"{label}: FAIL\n{traceback.format_exc()}", flush=True)
        return False
    note = "" if result is None else f" {result}"
    print(f"{label}: ok{note} {time.perf_counter() - start:.2f} s",
          flush=True)
    return True


def zaslavsky():
    ok = True
    for name in ("A6", "E6"):
        rootsystem.COXETER_TYPES[name] = WEYL_TYPES[name]
        try:
            ok &= run(f"zaslavsky {name} (regions, bounded)",
                      lambda: check_census(build(parse_spec(name))))
        finally:
            del rootsystem.COXETER_TYPES[name]
    for group in ("I2:2-40", "I2:100"):
        for spec in REGION_SPECS[group]:
            ok &= run(f"zaslavsky {spec.label()} (regions, bounded)",
                      lambda: check_census(build(spec)))
    return ok


def dihedral():
    ok = True
    for m in range(2, MAX_DIHEDRAL_M + 1):
        def check():
            test_dihedral.test_dihedral_root_order_matches_closed_form(m)
            test_dihedral.test_dihedral_int_c_matches_closed_form(m)
            test_dihedral.test_dihedral_census_matches_closed_form(m)
            test_dihedral._system.cache_clear()
        ok &= run(f"dihedral I2:{m} closed forms", check)
    return ok


def main():
    start = time.perf_counter()
    ok = all([zaslavsky(), dihedral()])
    print(f"{'all passed' if ok else 'FAILED'} in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
