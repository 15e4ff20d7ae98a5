"""Write perfbench/reference.json: the digests every benchmark run checks.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right (the
digests were taken on the commit that introduced the benchmark).  It refuses
to write if any case fails.  Digests:

  main-grid, registry  sha256(f"{lhs}|{rhs}")[:16] per case id, and sha256
                       of the "id<TAB>lhs|rhs" lines in case-id order
  table-cache          sha256 of each htilde-<n>.json written by build-cache
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GRIDS = {"main-grid": ("main-theorem", (3, 6)), "registry": ("operators", (3, 5))}
TABLE_N_MAX = 6


def grid_reference(suite: str, sizes) -> dict:
    import qtshuffle.cli as cli

    out = {"count": {}, "grid_sha256": {}, "cases": {}}
    for n_max in sizes:
        lines = []
        for case in sorted(cli.build_cases(suite, n_max), key=lambda c: c.case_id):
            ok, lhs, rhs = case.run()
            if not ok or (suite == "main-theorem" and lhs != rhs):
                sys.exit(f"refusing to write: {case.case_id} fails")
            digest = hashlib.sha256(f"{lhs}|{rhs}".encode()).hexdigest()[:16]
            if out["cases"].setdefault(case.case_id, digest) != digest:
                sys.exit(f"refusing to write: {case.case_id} differs between grid sizes")
            lines.append(f"{case.case_id}\t{lhs}|{rhs}")
        out["count"][str(n_max)] = len(lines)
        out["grid_sha256"][str(n_max)] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return out


def main() -> int:
    ref = {name: grid_reference(suite, sizes) for name, (suite, sizes) in GRIDS.items()}
    with tempfile.TemporaryDirectory() as cache:
        subprocess.run([sys.executable, "-m", "qtshuffle.cli", "build-cache", "--n-max",
                        str(TABLE_N_MAX), "--cache", cache], check=True, stdout=subprocess.DEVNULL)
        files = {}
        for n in range(TABLE_N_MAX + 1):
            with open(os.path.join(cache, f"htilde-{n}.json"), "rb") as fh:
                files[str(n)] = hashlib.sha256(fh.read()).hexdigest()
        ref["table-cache"] = {"files": files}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
