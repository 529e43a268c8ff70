"""Convergence-rate studies against a fine-mesh reference ground state.

A study minimizes once on the fine reference mesh, then for each coarse
resolution H builds the (ideal) LOD space over the same fine mesh,
minimizes there from the projected reference, and tabulates H1, L2,
energy, and eigenvalue errors relative to the reference with
least-squares convergence rates.  An optional plain-P1 baseline runs the
same pipeline on the coarse P1 spaces, Galerkin restrictions of the
reference operators; only the reference mesh is assembled.  Once the
reference exists the rows are independent, and ``run_study`` runs them,
and the reference itself, on one thread per CPU.
"""

import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .fem_core import assemble_operators, norms
from .gpe_minimizer import (
    FlowParams,
    coarse_fem_space,
    fine_space,
    lod_discrete_space,
    minimize,
    sign_align,
)
from .lod_space import lod_space_cached
from .mesh import build_hierarchy, refinement_count, uniform_mesh

__all__ = [
    "StudyConfig",
    "StudyRow",
    "StudyResult",
    "hierarchy_space",
    "run_study",
    "fit_rate",
    "write_csv",
    "write_gnuplot",
]

ERROR_COLUMNS = ("h1", "l2", "energy", "eigenvalue")

# a converged reference must satisfy the discrete eigenproblem this tightly
_REFERENCE_RESIDUAL_RTOL = 1e-6
# rows whose error is within this factor of the reference's own estimated
# discretization error get a saturation warning
_SATURATION_FACTOR = 10.0


@dataclass
class StudyConfig:
    """Everything needed to reproduce one study run."""

    domain: object
    potential: object
    beta: float
    reference_cells: int
    H_sequence: list
    flow: FlowParams = field(default_factory=FlowParams)
    baseline_coarse_fem: bool = False
    cache_dir: object = None  # None: build every LOD space afresh, never cache
    saturation_check: bool = True

    def coarse_cells(self, H):
        cells = self.domain.width / H
        if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
            raise ValueError(f"H={H} does not divide the domain width {self.domain.width}")
        return int(round(cells))

    def refinements(self, H):
        return refinement_count(self.coarse_cells(H), self.reference_cells)

    def validate(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not self.H_sequence:
            raise ValueError("H_sequence is empty")
        for H in self.H_sequence:
            self.refinements(H)
        self.potential.check_alignment(uniform_mesh(self.domain, self.reference_cells))


@dataclass
class StudyRow:
    H: float
    err_h1: float = np.nan
    err_l2: float = np.nan
    err_energy: float = np.nan
    err_eigenvalue: float = np.nan
    iterations: int = 0
    newton_steps: int = 0
    residual: float = np.nan
    residual_scale: float = np.nan
    wall_time_s: float = 0.0
    energy: float = np.nan
    eigenvalue: float = np.nan
    cache_hit: bool = False
    warnings: list = field(default_factory=list)
    failed: bool = False
    message: str = ""

    def errors(self):
        return {
            "h1": self.err_h1,
            "l2": self.err_l2,
            "energy": self.err_energy,
            "eigenvalue": self.err_eigenvalue,
        }


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list
    fitted_rates: dict
    reference: dict
    baseline_rows: list = field(default_factory=list)
    baseline_rates: dict = field(default_factory=dict)
    invalid: bool = False
    message: str = ""
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1  # threads the study ran on


def fit_rate(hs, errs):
    """Least-squares slope of log(err) against log(h).

    Nonpositive errors are excluded with a warning; fewer than two valid
    pairs is an error.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    valid = np.isfinite(errs) & (errs > 0) & (hs > 0)
    if np.count_nonzero(~valid & np.isfinite(errs)):
        warnings.warn("nonpositive error values excluded from the rate fit")
    if np.count_nonzero(valid) < 2:
        raise ValueError("rate fit needs at least 2 positive (h, err) pairs")
    return float(np.polyfit(np.log(hs[valid]), np.log(errs[valid]), 1)[0])


def _fit_all(rows):
    rates = {}
    ok = [r for r in rows if not r.failed]
    for col in ERROR_COLUMNS:
        try:
            rates[col] = fit_rate([r.H for r in ok], [r.errors()[col] for r in ok])
        except ValueError:
            rates[col] = None
    return rates


def _error_row(row, state, u_ref, ref, ops_fine):
    """Fill the row's errors relative to the reference's norms, energy and
    eigenvalue."""
    e = u_ref - state.fine_coeffs
    err_l2, err_h1 = norms(ops_fine, e)
    err_energy = state.energy - ref["energy"]
    if err_energy < -1e-12:
        row.warnings.append(
            f"subspace energy {state.energy!r} below reference {ref['energy']!r}"
        )
    err_energy = max(err_energy, 0.0)
    err_eig = abs(state.eigenvalue - ref["eigenvalue"])
    row.err_h1 = err_h1 / ref["h1_norm"]
    row.err_l2 = err_l2 / ref["l2_norm"]
    row.err_energy = err_energy / abs(ref["energy"])
    row.err_eigenvalue = err_eig / abs(ref["eigenvalue"])
    row.energy, row.eigenvalue = state.energy, state.eigenvalue
    row.iterations, row.newton_steps = state.steps_taken, state.newton_steps
    row.residual, row.residual_scale = state.residual, state.residual_scale
    if not state.converged:
        # a relative stationarity residual above the solve's target, or a
        # failed inner solve: errors stay available for inspection, but the
        # row is untrusted
        row.failed = True
        row.message = state.message


def _compute_reference(config, ops, log):
    """Minimize in the fine space of the reference operators ``ops``; returns
    the state and the reference dict the rows are measured against."""
    t0 = time.perf_counter()
    state = minimize(fine_space(ops), config.potential, config.beta, config.flow)
    wall = time.perf_counter() - t0
    l2, h1 = norms(ops, state.fine_coeffs)
    log(
        f"reference: {ops.n_dofs} dofs, E={state.energy:.12g}, "
        f"lambda={state.eigenvalue:.12g}, {state.steps_taken} steps, {wall:.1f}s, "
        f"residual {state.residual / state.residual_scale:.2e}"
    )
    ref = {
        "energy": state.energy,
        "eigenvalue": state.eigenvalue,
        "n_dofs": ops.n_dofs,
        "steps": state.steps_taken,
        "newton_steps": state.newton_steps,
        "inner_iterations": int(state.inner_iterations.sum()),
        "residual": state.residual,
        "residual_scale": state.residual_scale,
        "l2_norm": l2,
        "h1_norm": h1,
        "wall_time_s": wall,
        "converged": state.converged,
    }
    return state, ref


def _saturation_estimate(config, ops_fine, ref_state, ref, log):
    """Crude reference-discretization-error estimate from a half-resolution
    solve (rate-1 H1 difference; rate-2 Richardson for L2, energy, lambda)."""
    half_cells = config.reference_cells // 2
    if config.reference_cells % 2 or half_cells < 2:
        return None
    try:
        # its fine mesh is the reference mesh, node for node
        hierarchy = build_hierarchy(config.domain, half_cells, 1)
        state = minimize(
            coarse_fem_space(hierarchy, ops_fine),
            config.potential,
            config.beta,
            config.flow,
        )
        diff = ref_state.fine_coeffs - state.fine_coeffs
        l2, h1 = norms(ops_fine, diff)
        return {
            "h1": h1 / ref["h1_norm"],
            "l2": l2 / 3.0 / ref["l2_norm"],
            "energy": abs(state.energy - ref["energy"]) / 3.0 / abs(ref["energy"]),
            "eigenvalue": abs(state.eigenvalue - ref["eigenvalue"]) / 3.0 / abs(ref["eigenvalue"]),
        }
    except Exception as exc:  # estimation is advisory, never fatal
        log(f"saturation estimate skipped: {exc}")
        return None


def _apply_saturation_warnings(rows, estimate):
    if estimate is None:
        return
    for row in rows:
        if row.failed:
            continue
        for col in ERROR_COLUMNS:
            if row.errors()[col] < _SATURATION_FACTOR * estimate[col]:
                row.warnings.append(
                    f"{col} error within {_SATURATION_FACTOR:g}x of the estimated "
                    f"reference discretization error {estimate[col]:.3e}"
                )


def hierarchy_space(kind, hierarchy, ops_fine, cache_dir):
    """The ``"lod"`` or ``"coarse_fem"`` space of a hierarchy whose fine-mesh
    operators are ``ops_fine``, and its corrector-cache lookup: True (hit)
    or False (miss) for LOD correctors, which come from
    ``lod_space_cached(..., cache_dir)``, None for a coarse P1 space.
    """
    if kind == "lod":
        lod, hit = lod_space_cached(hierarchy, ops_fine, cache_dir=cache_dir)
        return lod_discrete_space(lod, ops_fine), hit
    if kind == "coarse_fem":
        return coarse_fem_space(hierarchy, ops_fine), None
    raise ValueError(f"unknown space {kind!r}")


def _worker_count():
    """Threads a study runs on: one per CPU the process may run on, or per
    CPU of the machine where the platform has no affinity call."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class _Stopwatch:
    """Context manager that sums the seconds spent inside it."""

    def __init__(self):
        self.elapsed = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc_info):
        self.elapsed += time.perf_counter() - self._t0


def _space_row(config, kind, H, ops_fine, reference, build_lock):
    """One row: minimize in the ``kind`` space (``hierarchy_space``) of H,
    warm started from the projected reference, and tabulate its errors
    against the reference.

    The space is built first, an LOD one under ``build_lock`` (one corrector
    build at a time); then the row waits for the future ``reference``
    (``(state, ref)`` of ``_compute_reference``).  ``wall_time_s`` counts the
    row's own work, not these two waits.  Returns the row and its cache
    lookup (None if none completed).  A failure is recorded in the row, not
    raised.
    """
    row = StudyRow(H=H)
    lookup = None
    clock = _Stopwatch()
    try:
        with clock:
            hierarchy = build_hierarchy(
                config.domain, config.coarse_cells(H), config.refinements(H)
            )
        with build_lock if kind == "lod" else nullcontext(), clock:
            space, lookup = hierarchy_space(kind, hierarchy, ops_fine, config.cache_dir)
        row.cache_hit = bool(lookup)
        ref_state, ref = reference.result()
        with clock:
            c0 = space.project_fine(ref_state.fine_coeffs, ops_fine.M)
            state = minimize(space, config.potential, config.beta, config.flow, start=c0)
            state = sign_align(state, ref_state.fine_coeffs, ops_fine.M)
            _error_row(row, state, ref_state.fine_coeffs, ref, ops_fine)
    except Exception as exc:
        row.failed = True
        row.message = f"{type(exc).__name__}: {exc}"
    row.wall_time_s = clock.elapsed
    return row, lookup


def _row_line(row, label):
    if row.failed:
        return f"{label}H={row.H}: FAILED ({row.message})"
    return (
        f"{label}H={row.H}: err_h1={row.err_h1:.3e} err_l2={row.err_l2:.3e} "
        f"err_E={row.err_energy:.3e} err_lam={row.err_eigenvalue:.3e} "
        f"({row.iterations} steps, {row.wall_time_s:.1f}s"
        + (", cached correctors)" if row.cache_hit else ")")
    )


def run_study(config, log=None):
    """Run the full study: reference, per-H LOD rows, rate fits, baseline.

    Once the reference operators are assembled, the work runs on one thread
    per CPU (``_worker_count``), submitted in the order of a sequential run:
    the reference flow, one task per LOD row, the saturation estimate and
    one task per baseline row.  A row task builds its space and waits for
    the reference; LOD rows take one lock for their corrector builds and
    are submitted finest H first, so at most one build is in memory.
    ``log`` is called from this thread only, in the order of a sequential
    run, and the result does not depend on the number of threads.
    """
    log = log or (lambda msg: None)
    config.validate()
    ops_fine = assemble_operators(
        uniform_mesh(config.domain, config.reference_cells), config.potential
    )
    workers = _worker_count()
    build_lock = threading.Lock()
    reference_lines, saturation_lines = [], []
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        reference = pool.submit(_compute_reference, config, ops_fine, reference_lines.append)

        def submit(kind, H):
            return pool.submit(_space_row, config, kind, H, ops_fine, reference, build_lock)

        Hs = config.H_sequence
        lod_futures = [None] * len(Hs)  # in the order of Hs, submitted finest first
        for i in sorted(range(len(Hs)), key=lambda i: Hs[i]):
            lod_futures[i] = submit("lod", Hs[i])
        saturation = None
        if config.saturation_check:
            saturation = pool.submit(
                lambda: _saturation_estimate(
                    config, ops_fine, *reference.result(), saturation_lines.append
                )
            )
        baseline = config.baseline_coarse_fem
        baseline_futures = [submit("coarse_fem", H) for H in Hs] if baseline else []

        _, ref = reference.result()
        for line in reference_lines:
            log(line)
        invalid = False
        message = ""
        if ref["residual"] > _REFERENCE_RESIDUAL_RTOL * ref["residual_scale"]:
            invalid = True
            message = (
                f"reference stationarity residual {ref['residual'] / ref['residual_scale']:.3e} "
                f"exceeds {_REFERENCE_RESIDUAL_RTOL:g}"
            )
            log(f"WARNING: {message}")

        lookups = []

        def collect(futures, label=""):
            rows = []
            for future in futures:
                row, lookup = future.result()
                log(_row_line(row, label))
                rows.append(row)
                lookups.append(lookup)
            return rows

        rows = collect(lod_futures)
        if saturation is not None:
            estimate = saturation.result()
            for line in saturation_lines:
                log(line)
            _apply_saturation_warnings(rows, estimate)
        rates = _fit_all(rows)
        baseline_rows = collect(baseline_futures, label="baseline ")
        baseline_rates = _fit_all(baseline_rows) if baseline else {}
    finally:
        pool.shutdown(cancel_futures=True)

    return StudyResult(
        config=config,
        rows=rows,
        fitted_rates=rates,
        reference=ref,
        baseline_rows=baseline_rows,
        baseline_rates=baseline_rates,
        invalid=invalid,
        message=message,
        cache_hits=lookups.count(True),
        cache_misses=lookups.count(False),
        workers=workers,
    )


def _fmt(value):
    return f"{value:.11e}"


def write_csv(rows, rates, path):
    """CSV with one row per H and trailing comment lines with fitted rates."""
    lines = ["H,err_h1,err_l2,err_energy,err_eigenvalue,iters,wall_time_s"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.H),
                    _fmt(r.err_h1),
                    _fmt(r.err_l2),
                    _fmt(r.err_energy),
                    _fmt(r.err_eigenvalue),
                    str(r.iterations),
                    f"{r.wall_time_s:.3f}",
                ]
            )
        )
    rate_text = ", ".join(
        f"rate_{col}=" + ("nan" if rates.get(col) is None else _fmt(rates[col]))
        for col in ERROR_COLUMNS
    )
    lines.append(f"# {rate_text}")
    for r in rows:
        for w in r.warnings:
            lines.append(f"# warning H={r.H:g}: {w}")
        if r.failed:
            lines.append(f"# failed H={r.H:g}: {r.message}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_gnuplot(csv_path, path, title="convergence"):
    """Gnuplot script drawing the log-log error curves with order guide lines
    of slopes 3, 4, and 6 anchored at the coarsest H."""
    c = str(csv_path)
    script = f"""# log-log convergence curves with order guide lines
set datafile separator ','
set logscale xy
set key bottom right
set xlabel 'H'
set ylabel 'error'
set title '{title}'
set style data linespoints
stats '{c}' using 1:2 nooutput
H0 = STATS_max_x
E0 = STATS_max_y
plot '{c}' using 1:2 title 'H1 error', \\
     '{c}' using 1:3 title 'L2 error', \\
     '{c}' using 1:4 title 'energy error', \\
     '{c}' using 1:5 title 'eigenvalue error', \\
     E0*(x/H0)**3 title 'order 3' dashtype 2, \\
     E0*(x/H0)**4 title 'order 4' dashtype 3, \\
     E0*(x/H0)**6 title 'order 6' dashtype 4
"""
    with open(path, "w") as fh:
        fh.write(script)
