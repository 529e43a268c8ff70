import math
import sys
import weakref

import numpy as np
import pytest
from scipy import linalg as dense_linalg
from scipy.sparse.linalg import eigsh

from gplod import fem_core, gpe_minimizer, sparse_linalg
from gplod.fem_core import (
    Potential,
    assemble_density_mass,
    assemble_operators,
    eigenvalue_from_state,
    energy,
    l4_norm4,
)
from gplod.gpe_minimizer import (
    FlowParams,
    _evaluate,
    _thomas_fermi_start,
    coarse_fem_space,
    fine_space,
    lod_discrete_space,
    minimize,
    sign_align,
    thomas_fermi_values,
)
from gplod.lod_space import build_constraint, compute_correctors
from gplod.mesh import Rect, build_hierarchy, same_mesh_hierarchy, uniform_mesh
from gplod.sparse_linalg import Factorization, SingularMatrixError, spd_solver

from helpers import (
    direct_minimize,
    direct_shifted_matrix,
    direct_solve,
    thomas_fermi_values_200,
)


def _laplace_setup(cells):
    mesh = uniform_mesh(Rect(0, 1, 0, 1), cells)
    V = Potential.constant(0.0)
    ops = assemble_operators(mesh, V)
    return mesh, V, ops


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(tau=0.0)
    for steps in (0, -5):
        with pytest.raises(ValueError, match="max_steps"):
            FlowParams(max_steps=steps)


def test_laplace_ground_state_matches_eigensolver():
    # the flow is an inverse-power-type iteration; eigsh is the independent oracle
    _, V, ops = _laplace_setup(32)
    state = minimize(fine_space(ops), V, 0.0)
    lam = eigsh(ops.K.tocsc(), k=1, M=ops.M.tocsc(), sigma=0, which="LM")[0][0]
    assert state.converged
    assert state.eigenvalue == pytest.approx(lam, abs=1e-10)


def test_laplace_eigenvalue_rate():
    # lambda_h -> 2 pi^2 at rate 2 over h = 1/16, 1/32, 1/64
    errs, hs = [], []
    for cells in (16, 32, 64):
        _, V, ops = _laplace_setup(cells)
        state = minimize(fine_space(ops), V, 0.0)
        errs.append(abs(state.eigenvalue - 2 * np.pi**2))
        hs.append(1.0 / cells)
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(rate - 2.0) <= 0.1


def test_invariants_along_flow(unit_domain):
    mesh = uniform_mesh(unit_domain, 16)
    V = Potential.harmonic()
    ops = assemble_operators(mesh, V)
    space = fine_space(ops)
    state = minimize(space, V, 10.0)
    assert state.converged
    # unit L2 norm after every normalization (final iterate checked here)
    assert abs(state.coeffs @ (space.M @ state.coeffs) - 1.0) <= 1e-12
    # monotone energy history after the first step
    assert (np.diff(state.energy_history) <= 1e-12).all()
    # eigenvalue identity, recomputed from the stored state
    l4 = l4_norm4(mesh, ops.expand(state.coeffs), ops.quad)
    lam = eigenvalue_from_state(state.energy, l4, 10.0)
    assert abs(lam - state.eigenvalue) <= 1e-12 * max(1.0, abs(lam))


def test_stationarity_residual(unit_domain):
    mesh = uniform_mesh(unit_domain, 32)
    V = Potential.constant(1.0)
    ops = assemble_operators(mesh, V)
    space = fine_space(ops)
    state = minimize(space, V, 100.0)
    assert state.residual <= 1e-6 * state.residual_scale


def test_positivity_after_alignment(unit_domain):
    mesh = uniform_mesh(unit_domain, 16)
    V = Potential.constant(1.0)
    ops = assemble_operators(mesh, V)
    state = minimize(fine_space(ops), V, 50.0)
    aligned = sign_align(state, np.abs(state.fine_coeffs), ops.M)
    assert aligned.fine_coeffs.min() >= -1e-8 * np.abs(aligned.fine_coeffs).max()


def test_sign_align(unit_domain, rng):
    mesh = uniform_mesh(unit_domain, 8)
    V = Potential.constant(0.0)
    ops = assemble_operators(mesh, V)
    state = minimize(fine_space(ops), V, 0.0)
    ref = rng.standard_normal(ops.n_dofs)
    aligned = sign_align(state, ref, ops.M)
    inner = state.fine_coeffs @ (ops.M @ ref)
    if inner >= 0:
        assert aligned is state
    else:
        assert np.array_equal(aligned.fine_coeffs, -state.fine_coeffs)
    # candidate = -reference flips back to +reference
    flipped = sign_align(
        sign_align(state, -state.fine_coeffs, ops.M), state.fine_coeffs, ops.M
    )
    assert flipped.fine_coeffs @ (ops.M @ state.fine_coeffs) >= 0
    # energy and eigenvalue are invariant under the flip
    minus = sign_align(state, -state.fine_coeffs, ops.M)
    assert minus.energy == state.energy
    assert minus.eigenvalue == state.eigenvalue


def test_space_consistency_lod_equals_fine(unit_domain):
    # H = h: the LOD space coincides with the fine space, energies match
    mesh = uniform_mesh(unit_domain, 16)
    V = Potential.constant(0.0)
    ops = assemble_operators(mesh, V)
    fine_state = minimize(fine_space(ops), V, 0.0)
    hierarchy = same_mesh_hierarchy(mesh)
    constraint = build_constraint(hierarchy, ops.M)
    lod = compute_correctors(hierarchy, ops, constraint)
    lod_state = minimize(lod_discrete_space(lod, ops), V, 0.0)
    assert abs(fine_state.energy - lod_state.energy) <= 1e-10


def test_nonconvergence_flagged(unit_domain):
    mesh = uniform_mesh(unit_domain, 16)
    V = Potential.harmonic()
    ops = assemble_operators(mesh, V)
    state = minimize(fine_space(ops), V, 100.0, FlowParams(max_steps=2))
    assert not state.converged
    assert state.steps_taken == 2
    assert "convergence" in state.message
    # diagnostics still satisfy the state invariants
    assert abs(state.coeffs @ (ops.M @ state.coeffs) - 1.0) <= 1e-12


def test_initial_guess_variants(unit_domain):
    mesh = uniform_mesh(unit_domain, 16)
    V = Potential.harmonic()
    ops = assemble_operators(mesh, V)
    space = fine_space(ops)
    by_tf = minimize(space, V, 10.0)
    by_vec = minimize(space, V, 10.0, start=by_tf.coeffs.copy())
    assert by_tf.converged and by_vec.converged
    assert by_vec.energy == pytest.approx(by_tf.energy, abs=1e-10)
    with pytest.raises(ValueError):
        minimize(space, V, 10.0, start=np.ones(3))


def test_thomas_fermi_profile(trap_domain):
    # unit-mass truncated parabola for the harmonic trap at beta = 100
    mesh = uniform_mesh(trap_domain, 48)
    V = Potential.harmonic()
    profile = thomas_fermi_values(mesh, V, 100.0, assemble_operators(mesh, V).quad)
    assert profile.min() >= 0.0
    assert profile[mesh.boundary_mask].max() == 0.0
    # unit mass of max(0, mu - r^2/2)/beta gives pi mu^2 = beta exactly
    mu = np.sqrt(100.0 / np.pi)
    r2 = (mesh.nodes**2).sum(axis=1)
    inside = r2 < 2 * mu * 0.9
    expected = np.sqrt(np.maximum(0.0, (mu - 0.5 * r2[inside]) / 100.0))
    assert np.abs(profile[inside] - expected).max() <= 1e-3


def test_thomas_fermi_closed_form_matches_bisection(trap_domain):
    # mu from one sort of the quadrature values equals 200 bisection steps,
    # and the P0/P2 profile at that mu has unit mass, for a smooth
    # potential, a two-valued one with ties, and a constant one whose
    # support covers every point
    potentials = [
        Potential.harmonic(),
        Potential.checkerboard(1.5, low=0.0, high=1.0),
        Potential.constant(1.0),
    ]
    for cells in (48, 96):
        mesh = uniform_mesh(trap_domain, cells)
        c = np.multiply.outer(mesh.areas, fem_core.DEFAULT_QUAD.weights)
        for V in potentials:
            vq = fem_core.potential_at_quadrature(mesh, V, fem_core.DEFAULT_QUAD)
            vn = V.values(mesh.nodes[:, 0], mesh.nodes[:, 1], mesh.domain)
            for beta in (1.0, 100.0, 102.5, 1e4):
                profile = thomas_fermi_values(mesh, V, beta, fem_core.DEFAULT_QUAD)
                expected = thomas_fermi_values_200(mesh, V, beta, fem_core.DEFAULT_QUAD)
                assert np.abs(profile - expected).max() <= 1e-13 * expected.max()
                peak = np.argmax(profile)
                mu = vn[peak] + beta * profile[peak] ** 2
                mass = math.fsum((c * np.maximum(0.0, mu - vq)).ravel()) / beta
                assert abs(mass - 1.0) <= 1e-13


def test_warm_started_pcg_takes_fewer_iterations(trap_domain):
    # each step's PCG starts from the previous u~: fewer inner iterations in
    # total than from zero, the same steps and the same energy
    mesh = uniform_mesh(trap_domain, 24)
    V = Potential.harmonic()
    space = fine_space(assemble_operators(mesh, V))
    warm = minimize(space, V, 100.0)
    cold_solve = space.solve_shifted
    space.solve_shifted = lambda H, pc, N, beta, rhs, x0=None, **kw: cold_solve(
        H, pc, N, beta, rhs, **kw
    )
    cold = minimize(space, V, 100.0)
    assert warm.converged and cold.converged
    assert warm.steps_taken == cold.steps_taken > 2
    assert warm.inner_iterations.sum() < cold.inner_iterations.sum()
    assert warm.inner_iterations[0] == cold.inner_iterations[0]
    assert abs(warm.energy - cold.energy) <= 1e-12 * abs(cold.energy)


def test_coarse_fem_space_minimization(unit_domain):
    # coarse P1 minimizer: its fine representation feeds the error pipeline
    hierarchy = build_hierarchy(unit_domain, 8, 2)
    V = Potential.constant(1.0)
    ops_fine = assemble_operators(hierarchy.fine, V)
    space = coarse_fem_space(hierarchy, ops_fine)
    state = minimize(space, V, 5.0)
    assert state.converged
    assert state.fine_coeffs.shape == (hierarchy.fine.n_interior,)
    fine_state = minimize(fine_space(ops_fine), V, 5.0)
    # minimum over the subspace cannot beat the fine minimum
    assert state.energy >= fine_state.energy - 1e-12


@pytest.mark.parametrize("coarse_cells, refinements", [(48, 1), (6, 4), (24, 3)])
def test_coarse_fem_operators_match_coarse_assembly(trap_domain, coarse_cells, refinements):
    # for a potential the coarse mesh integrates exactly, the Galerkin
    # restrictions P^T A P and P^T M P are the coarse-mesh operators
    hierarchy = build_hierarchy(trap_domain, coarse_cells, refinements)
    V = Potential.harmonic()
    space = coarse_fem_space(hierarchy, assemble_operators(hierarchy.fine, V))
    ops_coarse = assemble_operators(hierarchy.coarse, V)
    for got, expected in ((space.A, ops_coarse.A), (space.M, ops_coarse.M)):
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert abs(got - expected).max() <= 1e-14 * abs(expected).max()


@pytest.mark.parametrize("beta", [0.0, 50.0])
def test_energy_of_matches_fem_core_energy(unit_domain, rng, beta):
    # P1 spaces: 1/2 c^T (K + MV) c + beta/4 w.(N w), the energy of a flow
    # state, is fem_core.energy up to rounding
    hierarchy = build_hierarchy(unit_domain, 8, 1)
    V = Potential.harmonic()
    ops_fine = assemble_operators(hierarchy.fine, V)
    ops_coarse = assemble_operators(hierarchy.coarse, V)
    for ops, space in (
        (ops_fine, fine_space(ops_fine)),
        (ops_coarse, coarse_fem_space(hierarchy, ops_fine)),
    ):
        c = rng.random(ops.n_dofs)
        expected = energy(ops, c, beta)
        assert abs(_evaluate(space, c, beta).energy - expected) <= 1e-13 * abs(expected)


def test_project_fine_matches_direct_formulas(
    small_hierarchy, small_ops, small_lod, rng
):
    v = rng.standard_normal(small_ops.n_dofs)
    M = small_ops.M
    # LOD: Cholesky solve with M_lod against B^T M v
    B = small_lod.basis
    expected = dense_linalg.cho_solve(dense_linalg.cho_factor(small_lod.M_lod), B.T @ (M @ v))
    got = lod_discrete_space(small_lod, small_ops).project_fine(v, M)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    # coarse P1: sparse solve with M_H against P^T M v
    ops_coarse = assemble_operators(small_hierarchy.coarse, small_ops.potential)
    P = small_hierarchy.prolongation_interior()
    expected = Factorization(ops_coarse.M, ops_coarse.ordering).solve(P.T @ (M @ v))
    got = coarse_fem_space(small_hierarchy, small_ops).project_fine(v, M)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    # fine P1: the identity
    assert fine_space(small_ops).project_fine(v, M) is v


@pytest.fixture(scope="module")
def trap_spaces(trap_domain):
    # harmonic trap on [-6,6]^2: 12 coarse cells, 2 refinements (n=2209, m=121)
    V = Potential.harmonic()
    hierarchy = build_hierarchy(trap_domain, 12, 2)
    ops = assemble_operators(hierarchy.fine, V)
    lod = compute_correctors(hierarchy, ops, build_constraint(hierarchy, ops.M))
    coarse = coarse_fem_space(hierarchy, ops)
    return V, {"lod": lod_discrete_space(lod, ops), "fine": fine_space(ops), "coarse": coarse}


@pytest.mark.parametrize("kind", ["lod", "fine"])
def test_solve_shifted_matches_direct_solve(trap_spaces, kind, rng):
    V, spaces = trap_spaces
    space = spaces[kind]
    beta, tau = 100.0, 0.5
    c = rng.random(space.n_dofs)
    rhs = rng.standard_normal(space.n_dofs)
    H = space.M / tau + space.A
    N = space.nonlinear_matrix(space.to_assembly(c))
    x, iterations, info = space.solve_shifted(H, spd_solver(H, space.ops.ordering), N, beta, rhs)
    expected = direct_solve(direct_shifted_matrix(space, c, beta, tau), rhs)
    assert info == 0 and 0 < iterations < gpe_minimizer._PCG_MAX_ITERATIONS
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", ["lod", "fine"])
def test_minimize_matches_direct_flow(trap_spaces, kind):
    # a vector start: the projected Thomas-Fermi profile, exact flow only;
    # after four steps the residual is still above the switch to Newton steps
    V, spaces = trap_spaces
    space = spaces[kind]
    start = _thomas_fermi_start(space, V, 100.0)
    state = minimize(space, V, 100.0, FlowParams(max_steps=4), start=start)
    _, E, lam, steps = direct_minimize(space, 100.0, FlowParams(), start, steps=4)
    assert not state.converged and state.newton_steps == 0
    assert state.residual > gpe_minimizer._NEWTON_SWITCH_RTOL * state.residual_scale
    assert state.steps_taken == steps == 4
    assert abs(state.energy - E) <= 1e-12 * abs(E)
    assert abs(state.eigenvalue - lam) <= 1e-12 * abs(lam)
    assert len(state.inner_iterations) == steps
    assert state.inner_iterations.min() >= 1


@pytest.mark.parametrize("kind", ["lod", "fine"])
def test_newton_finish_matches_a_long_flow(trap_spaces, kind):
    # the state Newton steps end at is the one the flow tends to: 200
    # direct flow steps contract its residual by about 0.6^200
    V, spaces = trap_spaces
    space = spaces[kind]
    start = _thomas_fermi_start(space, V, 100.0)
    state = minimize(space, V, 100.0, start=start)
    _, E, lam, _ = direct_minimize(space, 100.0, FlowParams(), start, steps=200)
    assert state.converged and state.newton_steps > 0
    assert state.residual <= gpe_minimizer._RESIDUAL_RTOL * state.residual_scale
    assert len(state.inner_iterations) == state.steps_taken > state.newton_steps
    assert abs(state.energy - E) <= 1e-10 * abs(E)
    assert abs(state.eigenvalue - lam) <= 1e-11 * abs(lam)


def test_exact_flow_takes_each_state_to_the_fine_mesh_once(trap_spaces, monkeypatch):
    # B c is a sparse solve: each state's N, energy and, for the last one,
    # the eigenvalue share one application of B
    V, spaces = trap_spaces
    space = spaces["lod"]
    start = _thomas_fermi_start(space, V, 100.0)
    calls = []
    to_assembly = space.to_assembly

    def counting(c):
        calls.append(1)
        return to_assembly(c)

    monkeypatch.setattr(space, "to_assembly", counting)
    state = minimize(space, V, 100.0, start=start)
    assert state.converged and state.steps_taken > 1
    assert len(calls) == state.steps_taken + 1


def test_lod_nonlinear_matrix_is_the_projected_product(trap_spaces, rng):
    _, spaces = trap_spaces
    space = spaces["lod"]
    c, v = rng.random(space.n_dofs), rng.standard_normal(space.n_dofs)
    B = space.rep_assembly
    N = assemble_density_mass(space.ops, B @ c)
    expected = B.T @ (N @ (B @ v))
    got = space.density_product(space.nonlinear_matrix(space.to_assembly(c)), v)
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def test_preconditioner_factored_once_per_flow(trap_spaces, monkeypatch):
    # one factorization for the flow, one for the Newton steps, and the
    # flow's is freed before the Newton matrix is factored
    V, spaces = trap_spaces
    ops = spaces["fine"].ops
    factors = []

    def counting(A, ordering):
        assert all(alive() is None for alive in factors)
        factor = Factorization(A, ordering)
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(sparse_linalg, "Factorization", counting)
    state = minimize(fine_space(ops), V, 100.0)
    assert state.converged and state.steps_taken > state.newton_steps > 0
    assert len(factors) == 2


@pytest.mark.parametrize("kind", ["fine", "coarse"])
def test_p1_flow_first_step_takes_one_pcg_iteration(trap_spaces, kind):
    # the preconditioner factors M/tau + A + beta N(u_0), the first step's
    # matrix itself
    V, spaces = trap_spaces
    state = minimize(spaces[kind], V, 100.0)
    assert state.converged and state.steps_taken > 1
    assert state.inner_iterations[0] == 1


def test_coarse_density_preconditioner_cuts_exact_lod_iterations(trap_spaces):
    # one exact LOD step from the projected profile: the factor of
    # M/tau + A_lod + beta N(P_H u) beats that of M/tau + A_lod
    V, spaces = trap_spaces
    space = spaces["lod"]
    beta, tau = 100.0, 0.5
    u = _thomas_fermi_start(space, V, beta)
    u = u / space.mass_norm(u)
    H = space.M / tau + space.A
    N = space.nonlinear_matrix(space.to_assembly(u))
    rhs = (space.M @ u) / tau
    shifted = spd_solver(gpe_minimizer._preconditioner_matrix(space, H, N, u, beta))
    x, iterations, info = space.solve_shifted(H, shifted, N, beta, rhs)
    x_plain, iterations_plain, info_plain = space.solve_shifted(H, spd_solver(H), N, beta, rhs)
    assert info == info_plain == 0
    assert iterations < iterations_plain
    assert np.linalg.norm(x - x_plain) <= 1e-10 * np.linalg.norm(x_plain)


@pytest.mark.parametrize("kind", ["fine", "lod"])
def test_residual_comes_from_the_last_evaluation(trap_spaces, kind, monkeypatch):
    # one density assembly per state (plus, in LOD, the coarse density of
    # each of the two preconditioners), and each state's residual makes no
    # assembly of its own; in LOD its only solve with A is B^T (N w)
    V, spaces = trap_spaces
    space = spaces[kind]
    start = _thomas_fermi_start(space, V, 100.0)
    meshes, solves, residual_solves = [], [], []
    monkeypatch.setattr(
        gpe_minimizer,
        "assemble_density_mass",
        lambda ops, w: meshes.append(ops.mesh) or assemble_density_mass(ops, w),
    )
    if kind == "lod":
        factor = space.rep_assembly.factor
        solve = factor.solve
        monkeypatch.setattr(factor, "solve", lambda b: solves.append(1) or solve(b))
    residual = gpe_minimizer.stationarity_residual

    def counting(*args):
        before = len(solves), len(meshes)
        out = residual(*args)
        residual_solves.append((len(solves) - before[0], len(meshes) - before[1]))
        return out

    monkeypatch.setattr(gpe_minimizer, "stationarity_residual", counting)
    state = minimize(space, V, 100.0, start=start)
    assert state.converged and state.steps_taken > state.newton_steps > 0
    states = state.steps_taken + 1
    assert sum(m is space.ops.mesh for m in meshes) == states
    assert len(meshes) == states + 2 * (kind == "lod")
    assert residual_solves == [(1 if kind == "lod" else 0, 0)] * states
    # the same residual as one formed from scratch
    u = state.coeffs
    lhs = space.A @ u + 100.0 * space.density_product(
        space.nonlinear_matrix(space.to_assembly(u)), u
    )
    expected = np.linalg.norm(lhs - state.eigenvalue * (space.M @ u))
    scale = np.linalg.norm(lhs)
    assert abs(state.residual_scale - scale) <= 1e-13 * scale
    assert abs(state.residual - expected) <= 1e-13 * scale
    assert state.residual <= gpe_minimizer._RESIDUAL_RTOL * scale


def test_inner_solve_failure_reported(trap_domain, trap_spaces, monkeypatch):
    # LOD, exact phase: the coarse-density phase runs, the first exact step fails
    V, spaces = trap_spaces
    lod = spaces["lod"]
    with monkeypatch.context() as patch:
        patch.setattr(lod, "solve_shifted", lambda H, pc, N, beta, rhs, **kw: (rhs, 1, 1))
        state = minimize(lod, V, 100.0)
    assert not state.converged
    assert state.message.startswith("exact phase: inner PCG solve failed at step 1 after 1")
    assert state.steps_taken == 0 and state.pre_steps > 0
    assert abs(lod.mass_norm(state.coeffs) - 1.0) <= 1e-12

    mesh = uniform_mesh(trap_domain, 16)
    V = Potential.harmonic()
    ops = assemble_operators(mesh, V)
    monkeypatch.setattr(gpe_minimizer, "_PCG_MAX_ITERATIONS", 1)
    state = minimize(fine_space(ops), V, 100.0)
    assert not state.converged
    assert "step 1 after 1 iterations" in state.message
    assert state.steps_taken == 0
    assert len(state.inner_iterations) == 0

    # LOD, coarse-density phase: its first step fails, the exact flow never runs
    state = minimize(lod, V, 100.0)
    assert not state.converged
    assert state.message.startswith("coarse-density phase: inner PCG solve failed at step 1")
    assert state.steps_taken == 0 and state.pre_steps == 0
    assert len(state.inner_iterations) == 0 and state.energy_history.size == 1


@pytest.mark.parametrize("kind", ["fine", "lod"])
@pytest.mark.parametrize("fault", ["factorization", "pcg", "step"])
def test_newton_falls_back_to_flow_steps(trap_spaces, kind, fault, monkeypatch):
    # Newton's factorization rejected, a failed Newton PCG solve, or a
    # Newton step that raises the residual: flow steps finish the solve
    V, spaces = trap_spaces
    space = spaces[kind]
    beta = 100.0
    expected = minimize(space, V, beta)
    if fault == "factorization":
        def rejecting(H, ordering=None):
            if sys._getframe(1).f_code.co_name == "_newton":
                raise SingularMatrixError("rejected by the test")
            return spd_solver(H, ordering)

        monkeypatch.setattr(gpe_minimizer, "spd_solver", rejecting)
    else:
        solve = space.solve_shifted

        def faulty(H, pc, N, b, rhs, x0=None, **kw):
            if b != 3.0 * beta:
                return solve(H, pc, N, b, rhs, x0, **kw)
            return (rhs, 1, 1) if fault == "pcg" else (100.0 * rhs, 1, 0)

        monkeypatch.setattr(space, "solve_shifted", faulty)
    state = minimize(space, V, beta)
    assert expected.newton_steps > 0
    assert state.converged and state.newton_steps == 0
    assert state.steps_taken > expected.steps_taken
    assert state.residual <= gpe_minimizer._RESIDUAL_RTOL * state.residual_scale
    assert abs(state.energy - expected.energy) <= 1e-12 * abs(expected.energy)
    assert abs(state.eigenvalue - expected.eigenvalue) <= 1e-9 * abs(expected.eigenvalue)


@pytest.mark.parametrize("kind", ["fine", "lod"])
def test_beta_zero_solve_reaches_the_target_without_newton(trap_spaces, kind):
    # J0 = A - lambda M is singular at a linear ground state: the flow alone
    # runs to the residual target.  With no density term the coarse-density
    # problem is the exact problem, so in LOD its phase does the whole solve
    V, spaces = trap_spaces
    state = minimize(spaces[kind], V, 0.0)
    assert state.converged and state.newton_steps == 0 == state.pre_newton_steps
    if kind == "lod":
        assert state.pre_steps > 1 and state.steps_taken == 0
    else:
        assert state.pre_steps == 0 and state.steps_taken > 1
    assert state.residual <= gpe_minimizer._RESIDUAL_RTOL * state.residual_scale


def _two_level_matches_exact_flow(space, V, beta):
    """The two-level solve against the exact phase alone from the same
    projected profile: both end at the relative residual 1e-10, so their
    energies agree to 1e-10 and their eigenvalues to 1e-9 relative."""
    params = FlowParams()
    two_level = minimize(space, V, beta, params)
    exact = minimize(space, V, beta, params, start=_thomas_fermi_start(space, V, beta))
    assert two_level.converged and exact.converged
    assert two_level.pre_steps > 0 and exact.pre_steps == 0
    assert len(two_level.pre_inner_iterations) == two_level.pre_steps
    assert len(two_level.inner_iterations) == two_level.steps_taken
    assert abs(two_level.energy - exact.energy) <= 1e-10 * abs(exact.energy)
    assert abs(two_level.eigenvalue - exact.eigenvalue) <= 1e-9 * abs(exact.eigenvalue)


def test_two_level_flow_matches_exact_flow_harmonic(trap_spaces):
    V, spaces = trap_spaces
    _two_level_matches_exact_flow(spaces["lod"], V, 100.0)


def test_two_level_flow_matches_exact_flow_fine_checkerboard(trap_domain):
    # squares of side 1/2 under coarse cells of side H = 1: the potential
    # cannot be assembled on the coarse mesh, and the coarse-density space
    # must not need it
    V = Potential.checkerboard(0.5)
    hierarchy = build_hierarchy(trap_domain, 12, 2)
    ops = assemble_operators(hierarchy.fine, V)
    lod = compute_correctors(hierarchy, ops, build_constraint(hierarchy, ops.M))
    _two_level_matches_exact_flow(lod_discrete_space(lod, ops), V, 100.0)


def test_coarse_density_space_sees_the_coarse_projection(
    small_hierarchy, small_ops, small_constraint, small_lod, rng
):
    # C B = M_H: the coarse P1 L2 projection of B c has the coefficients c
    space = lod_discrete_space(small_lod, small_ops)
    coarse = space.pre_space
    c = rng.standard_normal(space.n_dofs)
    M_H = small_constraint.coarse_mass.toarray()
    d = np.linalg.solve(M_H, small_constraint.C @ (small_lod.basis @ c))
    assert np.linalg.norm(d - c) <= 1e-12 * np.linalg.norm(c)
    assert coarse.ops.mesh is small_hierarchy.coarse
    assert coarse.A is space.A and coarse.M is space.M
    expected = l4_norm4(coarse.ops.mesh, coarse.ops.expand(d), coarse.ops.quad)
    assert abs(_evaluate(coarse, c, 1.0).l4 - expected) <= 1e-12 * expected


@pytest.mark.parametrize("kind", ["fine", "coarse", "lod"])
def test_l4_of_a_state_is_its_density_mass_product(trap_spaces, kind, rng):
    # the degree-4 rule integrates |u|^4 exactly, so w.(N(w) w) is ||u||_L4^4
    _, spaces = trap_spaces
    space = spaces[kind]
    c = rng.random(space.n_dofs)
    w = space.to_assembly(c)
    expected = l4_norm4(space.ops.mesh, space.ops.expand(w), space.ops.quad)
    assert abs(_evaluate(space, c, 1.0).l4 - expected) <= 1e-14 * expected


def test_flow_makes_no_l4_norm4_call(trap_spaces, monkeypatch):
    # each state's ||u||^4 comes from the N(u) that the flow assembles anyway
    V, spaces = trap_spaces
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return l4_norm4(*args, **kwargs)

    for module in (fem_core, gpe_minimizer):
        monkeypatch.setattr(module, "l4_norm4", counting, raising=False)
    for kind in ("fine", "lod"):
        state = minimize(spaces[kind], V, 100.0)
        assert state.converged and state.steps_taken > 1
    assert calls == []


def test_beta_zero_flow_does_no_density_work(trap_spaces, monkeypatch):
    # no density mass is assembled or applied, and the only solve with A is
    # the final state's B c; the eigenvalue is the smallest one of (A, M)
    V, spaces = trap_spaces
    space = spaces["lod"]
    start = _thomas_fermi_start(space, V, 0.0)
    assemblies, solves = [], []
    monkeypatch.setattr(
        gpe_minimizer,
        "assemble_density_mass",
        lambda *args: assemblies.append(1) or assemble_density_mass(*args),
    )
    factor = space.rep_assembly.factor
    solve = factor.solve
    monkeypatch.setattr(factor, "solve", lambda b: solves.append(1) or solve(b))
    state = minimize(space, V, 0.0, start=start)
    assert state.converged and state.steps_taken > 1
    assert assemblies == [] and len(solves) == 1
    lam = dense_linalg.eigh(space.A, space.M, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert abs(state.eigenvalue - lam) <= 1e-10 * lam
    fine = minimize(spaces["fine"], V, 0.0)
    assert fine.converged and assemblies == []
