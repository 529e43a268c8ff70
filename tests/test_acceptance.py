"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 1-3 reproduce the two study configurations at full (criterion 1)
and reduced (criterion 2) scale and take a few minutes each; criteria 4-6
run in seconds.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import numpy as np
import pytest

from gplod.convergence_study import StudyConfig, run_study
from gplod.fem_core import (
    Potential,
    assemble_operators,
    eigenvalue_from_state,
    l4_norm4,
)
from gplod.gpe_minimizer import (
    FlowParams,
    fine_space,
    lod_discrete_space,
    minimize,
    sign_align,
)
from gplod.lod_space import build_constraint, compute_correctors
from gplod.mesh import Rect, build_hierarchy, same_mesh_hierarchy, uniform_mesh

from helpers import basis_columns, constrained_random, mass_matrix, projection_rate_study

RATE_WINDOWS_LOD = {
    "h1": (2.6, 3.6),
    "l2": (3.5, 4.7),
    "energy": (5.2, 7.0),
    "eigenvalue": (5.2, 7.0),
}
# reduced checkerboard run: same windows widened by 0.4 on both sides
RATE_WINDOWS_LOD_REDUCED = {
    col: (round(lo - 0.4, 12), round(hi + 0.4, 12))
    for col, (lo, hi) in RATE_WINDOWS_LOD.items()
}
RATE_WINDOWS_BASELINE = {
    "h1": (0.8, 1.3),
    "l2": (1.6, 2.5),
    "energy": (1.6, 2.5),
    "eigenvalue": (1.6, 2.5),
}


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def _check_windows(rates, windows):
    lines = []
    ok = True
    for col, (lo, hi) in windows.items():
        rate = rates.get(col)
        inside = rate is not None and lo <= rate <= hi
        ok = ok and inside
        lines.append(f"{col}={'n/a' if rate is None else f'{rate:.3f}'} in [{lo},{hi}]")
    return ok, ", ".join(lines)


@pytest.fixture(scope="module")
def harmonic_study():
    config = StudyConfig(
        domain=Rect(-6.0, 6.0, -6.0, 6.0),
        potential=Potential.harmonic(),
        beta=100.0,
        reference_cells=192,  # h = 2^-4
        H_sequence=[2.0, 1.0, 0.5, 0.25],
        flow=FlowParams(),
        baseline_coarse_fem=True,
    )
    return run_study(config, log=print)


@pytest.mark.slow
def test_criterion_1_harmonic_rates(harmonic_study):
    assert not harmonic_study.invalid, harmonic_study.message
    assert all(not row.failed for row in harmonic_study.rows)
    ok, detail = _check_windows(harmonic_study.fitted_rates, RATE_WINDOWS_LOD)
    _report(1, "harmonic potential, ideal LOD", ok, detail)


@pytest.mark.slow
def test_criterion_2_checkerboard_rates():
    # reduced run sanctioned for workstation scale: h = 2^-4, H = 1, 1/2, 1/4
    config = StudyConfig(
        domain=Rect(-6.0, 6.0, -6.0, 6.0),
        potential=Potential.checkerboard(0.5, low=0.0, high=1.0),
        beta=100.0,
        reference_cells=192,
        H_sequence=[1.0, 0.5, 0.25],
        flow=FlowParams(),
    )
    result = run_study(config, log=print)
    assert not result.invalid, result.message
    assert all(not row.failed for row in result.rows)
    ok, detail = _check_windows(result.fitted_rates, RATE_WINDOWS_LOD_REDUCED)
    _report(2, "checkerboard potential, reduced scale", ok, detail)


@pytest.mark.slow
def test_criterion_3_classical_fem_baseline(harmonic_study):
    assert all(not row.failed for row in harmonic_study.baseline_rows)
    ok, detail = _check_windows(harmonic_study.baseline_rates, RATE_WINDOWS_BASELINE)
    # the LOD rows beat the baseline rows (the coarsest eigenvalue error can
    # fall victim to sign cancellation in the baseline, so it is exempt)
    for lod_row, fem_row in zip(harmonic_study.rows, harmonic_study.baseline_rows):
        for col in ("h1", "l2", "energy"):
            dominated = lod_row.errors()[col] < fem_row.errors()[col]
            ok = ok and dominated
            if not dominated:
                detail += f"; LOD {col} not below baseline at H={lod_row.H:g}"
    _report(3, "classical P1 baseline order gain", ok, detail)


def test_criterion_4_projection_rates():
    smooth = projection_rate_study(smooth=True)
    rough = projection_rate_study(smooth=False)
    ok = (
        2.6 <= smooth["h1"] <= 3.4
        and 3.5 <= smooth["l2"] <= 4.5
        and 0.8 <= rough["h1"] <= 1.3
    )
    detail = (
        f"smooth h1={smooth['h1']:.3f} in [2.6,3.4], "
        f"smooth l2={smooth['l2']:.3f} in [3.5,4.5], "
        f"rough h1={rough['h1']:.3f} in [0.8,1.3]"
    )
    _report(4, "a-orthogonal projection rates", ok, detail)


def test_criterion_5_linear_oracle():
    domain = Rect(0.0, 1.0, 0.0, 1.0)
    V = Potential.constant(0.0)
    errs, hs = [], []
    for cells in (16, 32, 64):
        ops = assemble_operators(uniform_mesh(domain, cells), V)
        state = minimize(fine_space(ops), V, 0.0)
        assert state.converged
        errs.append(abs(state.eigenvalue - 2.0 * np.pi**2))
        hs.append(1.0 / cells)
    rate = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    mesh = uniform_mesh(domain, 16)
    ops = assemble_operators(mesh, V)
    fine_state = minimize(fine_space(ops), V, 0.0)
    hierarchy = same_mesh_hierarchy(mesh)
    lod = compute_correctors(hierarchy, ops, build_constraint(hierarchy, ops.M))
    lod_state = minimize(lod_discrete_space(lod, ops), V, 0.0)
    gap = abs(fine_state.energy - lod_state.energy)

    ok = abs(rate - 2.0) <= 0.15 and gap <= 1e-10
    detail = f"lambda rate {rate:.3f} in 2.0+-0.15, H=h energy gap {gap:.2e} <= 1e-10"
    _report(5, "linear Laplace oracle", ok, detail)


def test_criterion_6_invariant_suite():
    checks = []

    # mass-matrix partition of unity
    mesh = uniform_mesh(Rect(-6, 6, -6, 6), 12)
    M = mass_matrix(mesh)
    hat = np.zeros(mesh.n_nodes)
    np.add.at(hat, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    checks.append(
        ("partition of unity", np.abs(np.asarray(M.sum(axis=1)).ravel() - hat).max() <= 1e-12)
    )

    # symmetry and definiteness of all assembled operators
    domain = Rect(0.0, 1.0, 0.0, 1.0)
    hierarchy = build_hierarchy(domain, 4, 2)
    V = Potential.harmonic()
    ops = assemble_operators(hierarchy.fine, V)
    sym_ok = all(
        abs(A - A.T).max() <= 1e-12 * abs(A).max() for A in (ops.K, ops.M, ops.MV)
    )
    spd_ok = (
        np.linalg.eigvalsh(ops.K.toarray()).min() > 0
        and np.linalg.eigvalsh(ops.M.toarray()).min() > 0
        and np.linalg.eigvalsh(ops.MV.toarray()).min() >= -1e-12
    )
    checks.append(("operator symmetry/SPD", sym_ok and spd_ok))

    # orthogonal splittings and the constraint identity
    constraint = build_constraint(hierarchy, ops.M)
    space = compute_correctors(hierarchy, ops, constraint)
    rng = np.random.default_rng(5)
    P = hierarchy.prolongation_interior()
    split_ok = True
    for _ in range(5):
        w = constrained_random(constraint, rng)
        v = P @ rng.standard_normal(hierarchy.coarse.n_interior)
        wn_l2 = np.sqrt(w @ (ops.M @ w))
        vn_l2 = np.sqrt(v @ (ops.M @ v))
        split_ok = split_ok and abs(v @ (ops.M @ w)) <= 1e-9 * vn_l2 * wn_l2
        wa = np.sqrt(w @ (ops.A @ w))
        for j in (0, space.basis.shape[1] - 1):
            b = basis_columns(space.basis, j)
            ba = np.sqrt(b @ (ops.A @ b))
            split_ok = split_ok and abs(w @ (ops.A @ b)) <= 1e-8 * wa * ba
    checks.append(("L2/a-orthogonal splittings", split_ok))
    cb = np.abs(constraint.C @ basis_columns(space.basis) - constraint.C @ P.toarray()).max()
    checks.append(("C*B constraint identity", cb <= 1e-9))
    checks.append(
        (
            "projected operators symmetric/SPD",
            np.abs(space.A_lod - space.A_lod.T).max() == 0.0
            and np.linalg.eigvalsh(space.A_lod).min() > 0
            and np.linalg.eigvalsh(space.M_lod).min() > 0,
        )
    )

    # gradient flow invariants at beta > 0
    beta = 5.0
    dspace = fine_space(ops)
    state = minimize(dspace, V, beta)
    checks.append(("unit-norm preservation", abs(state.coeffs @ (ops.M @ state.coeffs) - 1) <= 1e-12))
    checks.append(("monotone energy history", (np.diff(state.energy_history) <= 1e-12).all()))
    l4 = l4_norm4(ops.mesh, ops.expand(state.coeffs), ops.quad)
    lam = eigenvalue_from_state(state.energy, l4, beta)
    checks.append(("eigenvalue identity", abs(lam - state.eigenvalue) <= 1e-12 * max(1, abs(lam))))
    minus = sign_align(state, -state.fine_coeffs, ops.M)
    checks.append(
        ("sign-flip invariance", minus.energy == state.energy and minus.eigenvalue == state.eigenvalue)
    )

    # nested-space energy monotonicity (larger nested spaces cannot raise the minimum)
    energies = []
    for coarse in (4, 8):
        hier = build_hierarchy(domain, coarse, int(np.log2(16 // coarse)))
        lod = compute_correctors(hier, ops, build_constraint(hier, ops.M))
        st = minimize(lod_discrete_space(lod, ops), V, beta)
        energies.append(st.energy)
    nested_ok = energies[1] <= energies[0] + 1e-10 and all(
        e >= state.energy - 1e-12 for e in energies
    )
    checks.append(("nested-space energy monotonicity", nested_ok))

    failed = [name for name, ok in checks if not ok]
    detail = f"{len(checks) - len(failed)}/{len(checks)} checks"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    _report(6, "invariant suite", not failed, detail)
