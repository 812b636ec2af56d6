"""Record the pinned outputs in ``pins.json``.

Run once, from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/pin.py

Every pinned op of every workload is computed at both sizes.  The seed only
orders the checks, so one seed pins everything.  Lattice ops are checked by
identities, not pins.  The benchmark itself never writes this file.
"""

from __future__ import annotations

import json

import workloads
from worker import PINS


def main() -> None:
    pins = {}
    for size in workloads.SIZES:
        for make in workloads.WORKLOADS.values():
            for op in make(0, size):
                if op.pinned:
                    pins[op.name] = op.judge(op.compute())
                    print(op.name, flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
