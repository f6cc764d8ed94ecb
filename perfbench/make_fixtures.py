"""Regenerate the benchmark's fixtures from the sources in ``src/``.

    python3 perfbench/make_fixtures.py      # from the root of a checkout

Writes into ``perfbench/fixtures/``:

* ``H3.json`` and ``H4.json``: the bytes ``catalanregions classify`` prints,
  re-checked by the ``report_check`` workload and hashed for the census gate;
* ``tau_operands.json``: tau mul and div operand pairs and sign operands,
  reservoir-sampled from every such operation of the H4 census above;
* ``reference.json``: the sha256 of those files and the sweep reference rows
  for I2(4), I2(6) and I2(12).

The benchmark only reads these files.  Regenerate them only when a change to
the program is meant to change its output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from run import FIXTURES, ROW_KEYS, load_program

POOL = 256
SWEEP_MS = (4, 6, 12)


class Reservoir:
    """Uniform sample of POOL items from a stream of unknown length."""

    def __init__(self, rng):
        self.rng = rng
        self.items = []
        self.seen = 0

    def offer(self, item):
        self.seen += 1
        if len(self.items) < POOL:
            self.items.append(item)
        else:
            k = self.rng.randrange(self.seen)
            if k < POOL:
                self.items[k] = item


def sampling(prog, pools):
    """Patch QuadExt mul, div and sign to offer their operands to pools."""
    ef = prog.exactfield
    cls = ef.QuadExt
    saved = {name: vars(cls)[name] for name in ("__mul__", "__truediv__", "sign")}

    def binary(name):
        fn = saved[name]

        def op(self, other):
            if isinstance(other, cls):
                pools[name].offer([ef.scalar_to_json(self), ef.scalar_to_json(other)])
            return fn(self, other)
        return op

    def sign(self):
        pools["sign"].offer(ef.scalar_to_json(self))
        return saved["sign"](self)

    cls.__mul__ = binary("__mul__")
    cls.__truediv__ = binary("__truediv__")
    cls.sign = sign
    return saved


def write(name, data):
    with open(os.path.join(FIXTURES, name), "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def main():
    prog = load_program(os.getcwd())
    os.makedirs(FIXTURES, exist_ok=True)
    reference = {"reports": {}, "sweeps": {}}
    rng = random.Random(0)
    pools = {name: Reservoir(rng) for name in ("__mul__", "__truediv__", "sign")}
    for label in ("H3", "H4"):
        path = os.path.join(FIXTURES, f"{label}.json")
        saved = sampling(prog, pools) if label == "H4" else {}
        try:
            if prog.cli.main(["classify", label, "--out", path]) != 0:
                sys.exit(f"classify {label} failed")
        finally:
            for name, fn in saved.items():
                setattr(prog.exactfield.QuadExt, name, fn)
        with open(path, "rb") as fh:
            raw = fh.read()
        reference["reports"][label] = {
            "file": f"{label}.json", "bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest()}
        print(f"{label}: {len(raw)} bytes", flush=True)
    operands = {"mul": pools["__mul__"].items, "div": pools["__truediv__"].items,
                "sign": pools["sign"].items}
    reference["operands"] = {
        "file": "tau_operands.json",
        "sha256": write("tau_operands.json",
                        (json.dumps(operands, indent=1) + "\n").encode()),
        "seen": {name: pool.seen for name, pool in pools.items()}}
    for m in SWEEP_MS:
        grid = prog.classifier.default_ratio_grid(m)
        rows = prog.classifier.sweep_ratio(m, grid)
        table = []
        for row, (_, ratio) in zip(rows, grid):
            rs = prog.rootsystem.build(prog.rootsystem.SystemSpec("I2", m, ratio))
            size = len(prog.rootposet.RootPoset(rs).antichains())
            table.append({**{k: row[k] for k in ROW_KEYS}, "antichains": size})
        reference["sweeps"][str(m)] = table
        print(f"I2({m}): {len(table)} rows", flush=True)
    write("reference.json",
          (json.dumps(reference, indent=1, sort_keys=True) + "\n").encode())


if __name__ == "__main__":
    main()
