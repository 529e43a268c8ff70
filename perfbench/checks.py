"""Output checks of the benchmark's operations, read from what the CLI wrote.

An operation is one solve (including a study's fine reference), one study
row, or one study's rate fit.  Each check returns a list of
``(operation, ok, reason)``.

Tolerances, relative to the values recorded in ``goldens.json``:

* energy: 1e-10;
* eigenvalue: sqrt(tau * tol), with tau and tol the pseudo-time step and
  the |dE|/tau stopping tolerance of the flow that produced the state.
  The flow stops once one step lowers the energy by less than tau * tol.
  The energy is quadratic in the distance to the discrete minimizer, so
  at that point the state is known only to about sqrt(tau * tol); the
  eigenvalue 2E + (beta/2)||u||^4 depends on the state to first order,
  so it is pinned no more tightly than that (7.1e-6 for the presets'
  tau = 0.5, tol = 1e-10; 7.1e-7 for a study's reference, tol = 1e-12).

Every state must be converged, and the study's fitted rates must lie in
the criterion-1 windows (the acceptance suite checks them at beta = 100;
the rates recorded for every beta in ``goldens.json`` lie inside them too).
The windows are read from ``tests/test_acceptance.py`` so that the two
cannot drift apart.
"""

import ast
import csv
import json
import math
from pathlib import Path

ENERGY_RTOL = 1e-10
RATE_COLUMNS = ("h1", "l2", "energy", "eigenvalue")


def eigenvalue_rtol(tau, tol_energy):
    return math.sqrt(tau * tol_energy)


def _rel(value, expected):
    return abs(value - expected) / abs(expected)


def criterion_1_windows(root):
    """RATE_WINDOWS_LOD of the acceptance suite, without importing it."""
    tree = ast.parse((Path(root) / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "RATE_WINDOWS_LOD" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("RATE_WINDOWS_LOD not found in tests/test_acceptance.py")


def _flow(resolved):
    flow = resolved.get("flow", {})
    return float(flow.get("tau", 0.5)), float(flow.get("tol_energy", 1e-10))


def _state_problems(energy, eigenvalue, golden, eig_rtol):
    problems = []
    if not _rel(energy, golden["energy"]) <= ENERGY_RTOL:
        problems.append(f"energy {energy!r} != golden {golden['energy']!r}")
    if not _rel(eigenvalue, golden["eigenvalue"]) <= eig_rtol:
        problems.append(f"eigenvalue {eigenvalue!r} != golden {golden['eigenvalue']!r}")
    return problems


def check_solve(out_dir, exit_code, golden, expect_cache_hit=False):
    """One operation: the solve's exit code, convergence and numbers."""
    path = Path(out_dir) / "solve_manifest.json"
    if exit_code != 0 or not path.exists():
        return [("solve", False, f"exit code {exit_code}, manifest present: {path.exists()}")]
    manifest = json.loads(path.read_text())
    res = manifest["results"]
    problems = []
    if not res["converged"]:
        problems.append("not converged")
    tau, tol = _flow(manifest["resolved_config"])
    problems += _state_problems(res["energy"], res["eigenvalue"], golden, eigenvalue_rtol(tau, tol))
    if expect_cache_hit and manifest["cache"]["hits"] != 1:
        problems.append(f"correctors not loaded from the cache: {manifest['cache']}")
    return [("solve", not problems, "; ".join(problems))]


def read_study_csv(path):
    rows, rates, failed = [], {}, set()
    with open(path) as fh:
        for line in fh:
            if line.startswith("# rate_"):
                for item in line[2:].split(","):
                    key, value = item.strip().split("=")
                    rates[key[len("rate_"):]] = float(value)
            elif line.startswith("# failed H="):
                failed.add(float(line[len("# failed H="):].split(":")[0]))
    with open(path) as fh:
        for rec in csv.DictReader(line for line in fh if not line.startswith("#")):
            rows.append({k: float(v) for k, v in rec.items()})
    return rows, rates, failed


def check_study(out_dir, exit_code, golden, windows):
    """Operations: the reference solve, each row, and the rate fit."""
    out_dir = Path(out_dir)
    names = ["reference"] + [f"row H={r['H']:g}" for r in golden["rows"]] + ["fit"]
    manifest_path, csv_path = out_dir / "study_manifest.json", out_dir / "study.csv"
    if exit_code != 0 or not manifest_path.exists() or not csv_path.exists():
        reason = f"exit code {exit_code}, outputs present: {manifest_path.exists() and csv_path.exists()}"
        return [(name, False, reason) for name in names]
    manifest = json.loads(manifest_path.read_text())
    resolved = manifest["resolved_config"]
    tau, tol = _flow(resolved)
    max_steps = int(resolved["flow"].get("max_steps", 10000))
    ref_tol = float(resolved["study"].get("reference_tol_energy") or min(tol, 1e-12))
    ref = manifest["reference"]
    results = []

    problems = _state_problems(
        ref["energy"], ref["eigenvalue"], golden["reference"], eigenvalue_rtol(tau, ref_tol)
    )
    if manifest["invalid"]:
        problems.append("reference stationarity residual above tolerance")
    if ref["steps"] >= max_steps:
        problems.append("reference not converged")
    results.append(("reference", not problems, "; ".join(problems)))

    rows, rates, failed = read_study_csv(csv_path)
    by_h = {row["H"]: row for row in rows}
    for name, expected in zip(names[1:-1], golden["rows"]):
        row = by_h.get(expected["H"])
        if row is None:
            results.append((name, False, "row missing from study.csv"))
            continue
        problems = []
        if expected["H"] in failed or row["iters"] >= max_steps:
            problems.append("not converged")
        energy = ref["energy"] * (1.0 + row["err_energy"])
        if not _rel(energy, expected["energy"]) <= ENERGY_RTOL:
            problems.append(f"energy {energy!r} != golden {expected['energy']!r}")
        # err_eigenvalue is relative to the reference eigenvalue, so the
        # relative tolerance applies to it directly
        if not abs(row["err_eigenvalue"] - expected["err_eigenvalue"]) <= eigenvalue_rtol(tau, tol):
            problems.append(
                f"eigenvalue error {row['err_eigenvalue']!r} != golden {expected['err_eigenvalue']!r}"
            )
        results.append((name, not problems, "; ".join(problems)))

    problems = [f"rate_{c} missing" for c in RATE_COLUMNS if not math.isfinite(rates.get(c, math.nan))]
    if not problems:
        for col, (lo, hi) in windows.items():
            if not lo <= rates[col] <= hi:
                problems.append(f"rate_{col}={rates[col]:.3f} outside [{lo}, {hi}]")
    results.append(("fit", not problems, "; ".join(problems)))
    return results
