"""Rewrite ``reference/``: the digests of every operation of every variant.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the
reference.  Every workload runs one untimed pass per variant, and
``reference/<workload>/<variant>.json`` gets its digests and pass facts;
the whole directory is written afresh.  The invariant checks are run too
and must pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS thread count before NumPy loads

from checks import TOLERANCE


def main() -> int:
    run.load_library()
    from workloads import BUILDERS, VARIANTS

    shutil.rmtree(run.REFERENCE, ignore_errors=True)
    status = 0
    base = os.path.join(run.HERE, "_work")
    os.makedirs(base, exist_ok=True)
    for name in sorted(BUILDERS):
        os.makedirs(os.path.join(run.REFERENCE, name))
        workdir = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=base)
        try:
            for v in range(VARIANTS):
                p = BUILDERS[name](v, workdir)
                tally = run.measure(None, p, v, 0.0, check=False, whole_pass_only=True)
                for msg in tally.problems:
                    print(f"{name}[{v}]: {msg}", file=sys.stderr)
                if tally.failed or len(tally.digests) != len(p.ops):
                    status = 1
                print(f"{name}[{v}]: {len(tally.digests)} ops, {tally.busy_s:.1f} s, "
                      f"{tally.failed} failed", flush=True)
                doc = {"tolerance": TOLERANCE, "digests": tally.digests, "pass_facts": tally.facts}
                with open(run.reference_path(name, v), "w") as fh:
                    json.dump(doc, fh, sort_keys=True)
                    fh.write("\n")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
