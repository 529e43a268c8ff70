import dataclasses
import re
import sys
import threading

import numpy as np
import pytest

from gplod.convergence_study import (
    StudyConfig,
    StudyRow,
    _apply_saturation_warnings,
    fit_rate,
    run_study,
    write_csv,
    write_gnuplot,
)
from gplod.fem_core import Potential
from gplod.gpe_minimizer import FlowParams
from gplod.mesh import Rect


def _smoke_config(**kwargs):
    defaults = dict(
        domain=Rect(0, 1, 0, 1),
        potential=Potential.constant(1.0),
        beta=5.0,
        reference_cells=32,
        H_sequence=[0.25, 0.125],
        flow=FlowParams(),
        saturation_check=False,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def test_fit_rate_exact_powers():
    hs = np.array([1.0, 0.5, 0.25, 0.125])
    assert fit_rate(hs, 7.0 * hs**3) == pytest.approx(3.0, abs=1e-12)
    assert fit_rate(hs, 0.2 * hs**6) == pytest.approx(6.0, abs=1e-12)


def test_fit_rate_two_points():
    assert fit_rate([1.0, 0.5], [8.0, 1.0]) == pytest.approx(3.0, abs=1e-12)


def test_fit_rate_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_rate([1.0], [1.0])
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.5], [0.0, -1.0])


def test_fit_rate_excludes_nonpositive():
    with pytest.warns(UserWarning):
        rate = fit_rate([1.0, 0.5, 0.25], [8.0, 1.0, 0.0])
    assert rate == pytest.approx(3.0, abs=1e-12)


def test_config_validation():
    cfg = _smoke_config(H_sequence=[0.3])
    with pytest.raises(ValueError):
        cfg.validate()  # 1/0.3 cells is not an integer
    cfg = _smoke_config(H_sequence=[1.0 / 32.0])
    with pytest.raises(ValueError):
        cfg.validate()  # H = h leaves no refinement
    _smoke_config().validate()


def test_single_h_study_reports_absent_rates():
    cfg = _smoke_config(H_sequence=[0.25])
    result = run_study(cfg)
    assert len(result.rows) == 1
    assert not result.rows[0].failed
    assert all(rate is None for rate in result.fitted_rates.values())


def test_study_rows_and_monotonicity():
    result = run_study(_smoke_config())
    assert not result.invalid
    assert all(not r.failed for r in result.rows)
    # all errors nonnegative
    for r in result.rows:
        for value in r.errors().values():
            assert value >= 0.0
    # nested spaces: energy does not increase as H decreases
    energies = [r.energy for r in result.rows]
    assert energies[1] <= energies[0] + 1e-10
    assert all(e >= result.reference["energy"] - 1e-12 for e in energies)


def test_study_determinism_with_cache(tmp_path):
    cfg1 = _smoke_config(cache_dir=tmp_path / "c")
    first = run_study(cfg1)
    cfg2 = _smoke_config(cache_dir=tmp_path / "c")
    second = run_study(cfg2)
    # a study looks up only its finest H's correctors
    assert (first.cache_hits, first.cache_misses) == (0, 1)
    assert (second.cache_hits, second.cache_misses) == (1, 0)
    assert len(list((tmp_path / "c").glob("correctors_*.npz"))) == 1
    for a, b in zip(first.rows, second.rows):
        for col, value in a.errors().items():
            assert abs(value - b.errors()[col]) <= 1e-12


def test_study_without_cache_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_study(_smoke_config(cache_dir=None))
    assert (result.cache_hits, result.cache_misses) == (0, 1)
    assert not list(tmp_path.rglob("correctors_*.npz"))


def test_csv_format(tmp_path):
    result = run_study(_smoke_config())
    path = tmp_path / "study.csv"
    write_csv(result.rows, result.fitted_rates, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "H,err_h1,err_l2,err_energy,err_eigenvalue,iters,wall_time_s"
    data_lines = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data_lines) == len(result.rows)
    # 12 significant digits on every error column
    for ln in data_lines:
        for tok in ln.split(",")[:5]:
            assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2}", tok)
    rate_lines = [ln for ln in lines if ln.startswith("# rate_")]
    assert len(rate_lines) == 1
    assert all(f"rate_{c}=" in rate_lines[0] for c in ("h1", "l2", "energy", "eigenvalue"))


def test_csv_reproducible(tmp_path):
    # same config, cached correctors: identical CSV modulo the wall_time column
    cfg = _smoke_config(cache_dir=tmp_path / "c")
    a = run_study(cfg)
    write_csv(a.rows, a.fitted_rates, tmp_path / "a.csv")
    b = run_study(_smoke_config(cache_dir=tmp_path / "c"))
    write_csv(b.rows, b.fitted_rates, tmp_path / "b.csv")

    def strip_wall(text):
        return [
            ",".join(ln.split(",")[:-1]) if not ln.startswith("#") and "," in ln else ln
            for ln in text.strip().splitlines()
        ]

    assert strip_wall((tmp_path / "a.csv").read_text()) == strip_wall(
        (tmp_path / "b.csv").read_text()
    )


def test_gnuplot_script(tmp_path):
    result = run_study(_smoke_config())
    csv_path = tmp_path / "study.csv"
    write_csv(result.rows, result.fitted_rates, csv_path)
    gp_path = tmp_path / "study.gp"
    write_gnuplot(csv_path, gp_path)
    text = gp_path.read_text()
    assert "logscale" in text
    for order in ("**3", "**4", "**6"):
        assert order in text


def test_saturation_warning_logic():
    rows = [StudyRow(H=1.0, err_h1=1.0, err_l2=1.0, err_energy=1.0, err_eigenvalue=1.0)]
    estimate = {"h1": 0.5, "l2": 0.01, "energy": 0.2, "eigenvalue": 1e-6}
    _apply_saturation_warnings(rows, estimate)
    text = " ".join(rows[0].warnings)
    assert "h1" in text and "energy" in text
    assert "l2" not in text and "eigenvalue" not in text


def test_saturation_estimate_live():
    # at this tiny scale the LOD error sits below the reference's own error
    result = run_study(_smoke_config(saturation_check=True))
    assert any(r.warnings for r in result.rows)


def test_row_failure_isolated(monkeypatch):
    # a failing row is reported but does not abort the remaining rows: the
    # fault is in deriving the coarser row's space from the finest one
    import gplod.convergence_study as study_mod

    original = study_mod.nested_lod_space

    def flaky(space, hierarchy, M):
        if hierarchy.coarse.cells_per_side == 4:
            raise RuntimeError("synthetic corrector failure")
        return original(space, hierarchy, M)

    monkeypatch.setattr(study_mod, "nested_lod_space", flaky)
    result = run_study(_smoke_config())
    assert result.rows[0].failed and "synthetic" in result.rows[0].message
    assert not result.rows[1].failed
    assert all(rate is None for rate in result.fitted_rates.values())


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_build_fails_every_lod_row_alone(monkeypatch, workers):
    # the one corrector build of a study raises: every LOD row is failed
    # with its message, the baseline rows still run, and the study returns
    import gplod.convergence_study as study_mod

    def failing(hierarchy, ops, **kwargs):
        raise RuntimeError("synthetic build failure")

    monkeypatch.setattr(study_mod, "_worker_count", lambda: workers)
    monkeypatch.setattr(study_mod, "lod_space_cached", failing)
    result = run_study(_smoke_config(baseline_coarse_fem=True))
    assert not result.invalid
    assert [r.message for r in result.rows] == ["RuntimeError: synthetic build failure"] * 2
    assert all(r.failed for r in result.rows)
    assert all(not r.failed for r in result.baseline_rows)
    assert all(rate is not None for rate in result.baseline_rates.values())
    assert (result.cache_hits, result.cache_misses) == (0, 0)


def test_one_corrector_build_and_factorization_for_every_lod_row(monkeypatch):
    # three H: the finest is built, the two coarser spaces are derived from
    # it, and every row's basis applies B through the same factor of A
    import gplod.convergence_study as study_mod
    import gplod.lod_space as lod_mod

    builds, factors, bases = [], [], []
    compute_correctors = lod_mod.compute_correctors
    factorization = lod_mod.Factorization

    def counted_build(hierarchy, ops, constraint):
        builds.append(hierarchy.coarse.cells_per_side)
        return compute_correctors(hierarchy, ops, constraint)

    def counted_factor(A, ordering):
        factors.append(A.shape)
        return factorization(A, ordering)

    lod_discrete_space = study_mod.lod_discrete_space

    def recorded(lod, ops):
        bases.append((lod.hierarchy.coarse.cells_per_side, lod.basis))
        return lod_discrete_space(lod, ops)

    monkeypatch.setattr(lod_mod, "compute_correctors", counted_build)
    monkeypatch.setattr(lod_mod, "Factorization", counted_factor)
    monkeypatch.setattr(study_mod, "lod_discrete_space", recorded)
    result = run_study(_smoke_config(H_sequence=[0.5, 0.25, 0.125]))
    assert all(not r.failed for r in result.rows)
    assert builds == [8] and len(factors) == 1
    assert sorted(cells for cells, _ in bases) == [2, 4, 8]
    assert len({id(basis.factor) for _, basis in bases}) == 1
    assert [basis.shape[1] for _, basis in sorted(bases, key=lambda b: b[0])] == [1, 9, 49]


def test_finest_row_wall_time_includes_the_build(monkeypatch):
    # the finest row pays for the one corrector build; the coarser rows,
    # which wait for it, do not
    import time

    import gplod.lod_space as lod_mod

    compute_correctors = lod_mod.compute_correctors

    def slow_build(hierarchy, ops, constraint):
        time.sleep(1.5)
        return compute_correctors(hierarchy, ops, constraint)

    monkeypatch.setattr(lod_mod, "compute_correctors", slow_build)
    result = run_study(_smoke_config())
    coarse, finest = result.rows
    assert finest.wall_time_s >= 1.5 and coarse.wall_time_s < 1.5


def test_rows_above_the_residual_target_fail():
    # two steps leave every row above the relative stationarity residual
    # 1e-10: each is flagged failed, and its message names the residual
    result = run_study(_smoke_config(flow=FlowParams(max_steps=2), baseline_coarse_fem=True))
    for row in result.rows + result.baseline_rows:
        assert row.failed and row.iterations == 2
        assert row.residual > 1e-10 * row.residual_scale
        assert "relative stationarity residual" in row.message


def test_baseline_rows():
    result = run_study(_smoke_config(baseline_coarse_fem=True))
    assert len(result.baseline_rows) == 2
    assert all(not r.failed for r in result.baseline_rows)
    # the LOD rows dominate the plain-P1 rows at every H here
    for lod_row, fem_row in zip(result.rows, result.baseline_rows):
        for col in ("h1", "l2", "energy", "eigenvalue"):
            assert lod_row.errors()[col] < fem_row.errors()[col]


def test_baseline_runs_where_coarse_cells_are_wider_than_the_squares():
    # squares of side 1/2 align with the reference mesh only; the baseline's
    # coarse spaces are Galerkin restrictions of its operators, so the row
    # H=1 runs too
    cfg = _smoke_config(
        domain=Rect(0, 2, 0, 2),
        potential=Potential.checkerboard(0.5),
        beta=10.0,
        reference_cells=16,
        H_sequence=[1.0, 0.5],
        baseline_coarse_fem=True,
    )
    result = run_study(cfg)
    assert [r.H for r in result.baseline_rows] == [1.0, 0.5]
    assert all(not r.failed for r in result.baseline_rows), [
        r.message for r in result.baseline_rows
    ]
    assert all(rate is not None for rate in result.baseline_rates.values())


def test_study_result_does_not_depend_on_the_worker_count(monkeypatch):
    # one worker runs the study's tasks one at a time; two, and four (more
    # than a two-core machine has cores), run them at once with frequent
    # thread switches: every output but the wall times is the same, log
    # lines included
    import gplod.convergence_study as study_mod

    def run(workers):
        monkeypatch.setattr(study_mod, "_worker_count", lambda: workers)
        lines, results = [], []
        cfg = _smoke_config(saturation_check=True, baseline_coarse_fem=True)
        thread = threading.Thread(
            target=lambda: results.append(run_study(cfg, log=lines.append)), daemon=True
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and len(results) == 1
        result = results[0]
        assert result.workers == workers
        rows = []
        for row in result.rows + result.baseline_rows:
            fields = dataclasses.asdict(row)
            del fields["wall_time_s"]
            rows.append(fields)
        reference = dict(result.reference)
        del reference["wall_time_s"]
        return (
            rows,
            result.fitted_rates,
            result.baseline_rates,
            reference,
            (result.invalid, result.message, result.cache_hits, result.cache_misses),
            [re.sub(r"\d+\.\ds\b", "<seconds>", line) for line in lines],
        )

    sequential = run(1)
    assert any(row["warnings"] for row in sequential[0])  # saturation warnings compared
    assert sequential[4][2:] == (0, 1)
    assert run(2) == sequential
    assert run(4) == sequential


def test_reference_above_the_residual_target_makes_the_study_invalid(monkeypatch):
    # a reference that stops at relative residual 1e-8 has not converged
    # (the solve's target is 1e-10): the study is invalid, with its message
    import gplod.convergence_study as study_mod

    compute_reference = study_mod._compute_reference
    message = "no convergence: relative stationarity residual 1.00e-08 above 1e-10"

    def stopped_early(config, ops, log):
        state, ref = compute_reference(config, ops, log)
        residual = 1e-8 * state.residual_scale
        state = dataclasses.replace(state, residual=residual, converged=False, message=message)
        return state, {**ref, "residual": residual, "converged": False}

    monkeypatch.setattr(study_mod, "_compute_reference", stopped_early)
    lines = []
    result = run_study(_smoke_config(), log=lines.append)
    assert result.invalid and result.message == f"reference: {message}"
    assert f"WARNING: {result.message}" in lines


def test_reference_failure_raises(monkeypatch):
    # a reference that cannot be computed still fails the whole study
    import gplod.convergence_study as study_mod

    def failing(config, ops, log):
        raise ArithmeticError("synthetic reference failure")

    monkeypatch.setattr(study_mod, "_compute_reference", failing)
    with pytest.raises(ArithmeticError, match="synthetic"):
        run_study(_smoke_config())


def test_worker_count_without_an_affinity_call(monkeypatch):
    # platforms such as macOS and Windows have no os.sched_getaffinity; the
    # study then runs one thread per CPU of the machine, and one if that
    # count is unknown
    import os

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    result = run_study(_smoke_config())
    assert result.workers == 2
    assert all(not row.failed for row in result.rows)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_study(_smoke_config()).workers == 1


def test_row_wall_time_excludes_the_wait_for_the_reference(monkeypatch):
    # with two workers the rows are built while the reference runs; a row's
    # wall_time_s is its own work, not the time it waited for the reference
    import time

    import gplod.convergence_study as study_mod

    compute_reference = study_mod._compute_reference

    def slow_reference(config, ops, log):
        time.sleep(2.0)
        return compute_reference(config, ops, log)

    monkeypatch.setattr(study_mod, "_worker_count", lambda: 2)
    monkeypatch.setattr(study_mod, "_compute_reference", slow_reference)
    t0 = time.perf_counter()
    result = run_study(_smoke_config())
    assert time.perf_counter() - t0 > 2.0
    assert all(not row.failed and row.wall_time_s < 1.5 for row in result.rows)
