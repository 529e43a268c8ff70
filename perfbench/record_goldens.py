"""Record the values the benchmark checks against, one set per beta.

    python3 perfbench/record_goldens.py BETA [BETA ...]

Run from the root of a source checkout.  Runs every workload once per
beta, untraced, and writes ``perfbench/goldens.json``; the first beta is
the one seed 0 selects.  Recording is done once, at the commit whose
numbers later commits must reproduce.
"""

import json
import sys
import tempfile
from pathlib import Path

from checks import read_study_csv
from run import GOLDENS, RUNS_DIR, WORKLOADS, environment_record, remove_run_dir, render, spawn


def record(workload, beta, run_dir):
    spec = WORKLOADS[workload]
    out = Path(tempfile.mkdtemp(prefix="out-", dir=run_dir))
    if spec["setup"] is not None:
        spawn(run_dir, render(spec["setup"], out, beta), "record")
    result = spawn(run_dir, render(spec["command"], out, beta), "record")
    if result["exit_code"] != 0:
        raise SystemExit(f"{workload} at beta={beta:g} exited {result['exit_code']}")
    if workload != "study-harmonic":
        res = json.loads((out / "solve_manifest.json").read_text())["results"]
        if not res["converged"]:
            raise SystemExit(f"{workload} at beta={beta:g} did not converge")
        return {k: res[k] for k in ("energy", "eigenvalue", "iterations")}
    manifest = json.loads((out / "study_manifest.json").read_text())
    ref = manifest["reference"]
    rows, rates, failed = read_study_csv(out / "study.csv")
    if failed or manifest["invalid"]:
        raise SystemExit(f"{workload} at beta={beta:g} has failed rows or an invalid reference")
    return {
        "reference": {k: ref[k] for k in ("energy", "eigenvalue", "steps")},
        "rows": [
            {
                "H": row["H"],
                "energy": ref["energy"] * (1.0 + row["err_energy"]),
                "err_eigenvalue": row["err_eigenvalue"],
                "iterations": int(row["iters"]),
            }
            for row in rows
        ],
        "rates": rates,
    }


def main():
    betas = [float(b) for b in sys.argv[1:]]
    if not betas:
        raise SystemExit(__doc__)
    Path(RUNS_DIR).mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="record-", dir=RUNS_DIR))
    try:
        workloads = {
            name: {f"{beta:g}": record(name, beta, run_dir) for beta in betas}
            for name in WORKLOADS
        }
    finally:
        remove_run_dir(run_dir)
    data = {
        "betas": [int(b) if b.is_integer() else b for b in betas],
        "environment": environment_record(),
        "workloads": workloads,
    }
    GOLDENS.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
