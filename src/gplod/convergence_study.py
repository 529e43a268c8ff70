"""Convergence-rate studies against a fine-mesh reference ground state.

A study minimizes once on the fine reference mesh, then for each coarse
resolution H builds the (ideal) LOD space over the same fine mesh,
minimizes there from the projected reference, and tabulates H1, L2,
energy, and eigenvalue errors relative to the reference with
least-squares convergence rates.  The coarse meshes of a study coarsen
one another, so its LOD spaces are nested: only the finest H's correctors
are built, and the coarser spaces are derived from them.  An optional
plain-P1 baseline runs the same pipeline on the coarse P1 spaces, Galerkin
restrictions of the reference operators; only the reference mesh is
assembled.  ``run_study`` runs the work on one thread per CPU.
"""

import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
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
from .lod_space import lod_space_cached, nested_lod_space
from .mesh import build_hierarchy, refinement_count, uniform_mesh

__all__ = [
    "StudyConfig",
    "StudyRow",
    "StudyResult",
    "run_study",
    "fit_rate",
    "write_csv",
    "write_gnuplot",
]

ERROR_COLUMNS = ("h1", "l2", "energy", "eigenvalue")

# a row whose error against the reference is within this factor of the
# reference's estimated continuum error does not resolve its continuum error
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

    def hierarchy(self, H):
        """The coarse mesh of H over the reference mesh."""
        return build_hierarchy(self.domain, self.coarse_cells(H), self.refinements(H))

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
                    f"{col} error against the reference within {_SATURATION_FACTOR:g}x of the "
                    f"reference's estimated error against the continuum ground state "
                    f"({estimate[col]:.3e}), so this row does not resolve its error against "
                    f"the continuum solution"
                )


def _worker_count():
    """Threads a study runs on: one per CPU the process may run on, or per
    CPU of the machine where the platform has no affinity call."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _finest_lod_space(config, ops_fine):
    """The study's one corrector build: the LOD space of its finest H from
    ``lod_space_cached``, the cache lookup, and the build's seconds."""
    t0 = time.perf_counter()
    hierarchy = config.hierarchy(min(config.H_sequence))
    lod, hit = lod_space_cached(hierarchy, ops_fine, cache_dir=config.cache_dir)
    return lod, hit, time.perf_counter() - t0


def _space_row(config, kind, H, ops_fine, reference, finest):
    """One row: minimize in the ``"lod"`` or ``"coarse_fem"`` space of H,
    warm started from the projected reference, and tabulate its errors.

    The row waits for the future ``reference`` (``_compute_reference``) and,
    an LOD row, for ``finest`` (``_finest_lod_space``): it takes that space at
    the finest H and derives its own from it elsewhere (``nested_lod_space``).
    ``wall_time_s`` is the row's work after these waits, the finest row's
    build included.  A failure, the build's too, is recorded, not raised.
    """
    row = StudyRow(H=H)
    start = None
    try:
        ref_state, ref = reference.result()
        if kind == "lod":
            lod, row.cache_hit, build_s = finest.result()
        start = time.perf_counter()
        if kind == "coarse_fem":
            space = coarse_fem_space(config.hierarchy(H), ops_fine)
        else:
            if lod.hierarchy.coarse.cells_per_side == config.coarse_cells(H):
                start -= build_s  # the finest row's work includes the build
            else:
                lod = nested_lod_space(lod, config.hierarchy(H), ops_fine.M)
            space = lod_discrete_space(lod, ops_fine)
        c0 = space.project_fine(ref_state.fine_coeffs, ops_fine.M)
        state = minimize(space, config.potential, config.beta, config.flow, start=c0)
        state = sign_align(state, ref_state.fine_coeffs, ops_fine.M)
        _error_row(row, state, ref_state.fine_coeffs, ref, ops_fine)
    except Exception as exc:
        row.failed = True
        row.message = f"{type(exc).__name__}: {exc}"
    row.wall_time_s = 0.0 if start is None else time.perf_counter() - start
    return row


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
    the reference flow, the corrector build of the finest H (shared by every
    LOD row), one task per LOD row, the saturation estimate and one task per
    baseline row.  A task waits only for tasks submitted before it.  ``log``
    is called from this thread only, in the order of a sequential run, and
    the result does not depend on the number of threads.
    """
    log = log or (lambda msg: None)
    config.validate()
    ops_fine = assemble_operators(
        uniform_mesh(config.domain, config.reference_cells), config.potential
    )
    workers = _worker_count()
    reference_lines, saturation_lines = [], []
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        reference = pool.submit(_compute_reference, config, ops_fine, reference_lines.append)
        finest = pool.submit(_finest_lod_space, config, ops_fine)

        def submit(kind, H):
            return pool.submit(_space_row, config, kind, H, ops_fine, reference, finest)

        Hs = config.H_sequence
        lod_futures = [submit("lod", H) for H in Hs]
        saturation = None
        if config.saturation_check:
            saturation = pool.submit(
                lambda: _saturation_estimate(
                    config, ops_fine, *reference.result(), saturation_lines.append
                )
            )
        baseline = config.baseline_coarse_fem
        baseline_futures = [submit("coarse_fem", H) for H in Hs] if baseline else []

        ref_state, ref = reference.result()
        for line in reference_lines:
            log(line)
        invalid = not ref_state.converged
        message = f"reference: {ref_state.message}" if invalid else ""
        if invalid:
            log(f"WARNING: {message}")

        def collect(futures, label=""):
            rows = []
            for future in futures:
                rows.append(future.result())
                log(_row_line(rows[-1], label))
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
        hit = None if finest.exception() else finest.result()[1]  # the one cache lookup
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
        cache_hits=int(hit is True),
        cache_misses=int(hit is False),
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
