"""Write reference_seed0.json: the nominal-seed reference values.

    python3 perfbench/store_reference.py

For every row of the nominal (seed 0) grids this stores the value of the
same library call at rel_tol = 1e-13, the T = 0 companion of force and
gradient rows, and the oracles' own values.  run.py compares seed-0 tables
against them, which catches changes to the T = 0 grid, the kernels and the
oracles that a live rel_tol = 1e-13 reference would share.  Regenerate only
when such a change is meant to move the numbers, and say so.
"""

import json
import sys

from run import NAMES, STORED, import_package


def main() -> int:
    import_package()
    import workloads

    doc = {name: workloads.make(name, workloads.NOMINAL_SEED)
           .references(companions=True) for name in NAMES}
    with open(STORED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {STORED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
