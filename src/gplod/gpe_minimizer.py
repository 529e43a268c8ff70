"""Constrained energy minimization: normalized gradient flow steps,
finished by Newton steps.

One flow step is the semi-implicit backward Euler solve

    (M / tau + A + beta N(u^n)) u~ = (1/tau) M u^n,   u^{n+1} = u~ / ||u~||_L2

where N(u) is the density-weighted mass matrix, reassembled every step on
the space's nonlinear-assembly mesh (the fine mesh for LOD states).  It is
applied matrix-free: in an LOD space with basis B, as v -> B^T N (B v), so
the dense matrix B^T N B is never formed.  B itself is an operator
(``lod_space.CorrectorBasis``), so that product costs two sparse solves
with the fine matrix A.  Every step is solved by PCG, started from the
previous step's unnormalized solution u~ (from zero at the first step)
and preconditioned by one factorization per flow of

    M / tau + A + beta N~(u_0),

the step matrix with the density of the flow's start u_0.  In a P1 space
N~ is that start's N itself, so the first step's PCG takes one iteration;
the matrix fills the pattern of M, and its factor costs what that of
M / tau + A does.  In an LOD space N~ is the sparse coarse density mass
of P_H u_0 (the density of the coarse-density phase below), added to the
dense m x m matrix M / tau + A before its Cholesky factorization, so B is
not applied to form it.

The flow converges linearly.  Once the relative stationarity residual
||(A + beta N(u)) u - lambda M u|| / ||(A + beta N(u)) u|| is at most
``_NEWTON_SWITCH_RTOL``, Newton steps on the eigenproblem take over until
it is at most ``_RESIDUAL_RTOL`` (``_newton``).  Each solves twice with
J0 = A + 3 beta N(u) - lambda M, which is positive definite at the ground
state for beta > 0 (Cances, Chakir and Maday, J. Sci. Comput. 2010), by
the same PCG: the density term is 3 beta N(u), and the preconditioner is
one factorization of the flow's matrix with A - lambda M in place of
M / tau + A and 3 beta for beta.  Only as many PCG iterations are made as
keep the solve's own error below the target.  The flow's factor is freed
before that one is made.  At beta = 0, where J0 is singular at the ground
state, and whenever Newton fails (its factorization rejected, a PCG solve
failed, or a step that does not lower the residual), flow steps run to the
target.

Each state u is evaluated once: its assembly-mesh coefficients w and N(w)
give the next step's density term, ||u||_L4^4 = w . (N w) for its energy
(exact: the degree-4 rule integrates |u|^4), its eigenvalue, and its
stationarity residual.  At beta = 0 no N is assembled or applied, and no
state is taken to the assembly mesh.

In an LOD space, a flow from the Thomas-Fermi profile (no ``start``)
runs the two-level discretization of Henning, Malqvist and Peterseim
(SIAM J. Numer. Anal. 2014) first.  Since C B = M_H,
the L2 projection P_H of the LOD function B c onto coarse P1 is the coarse
P1 function with the same coefficients c.  The coarse-density problem
replaces |u|^2 in the density term by |P_H u|^2: its N is the sparse coarse
density mass, so each of its steps uses only m x m matrices and never B.
It is solved like the exact problem, flow steps then Newton steps to the
relative residual ``_RESIDUAL_RTOL``, and the exact phase continues from
its coefficients.  A start given as a coefficient vector (a warm start)
runs the exact phase alone.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from .fem_core import (
    Potential,
    assemble_density_mass,
    assemble_operators,
    eigenvalue_from_state,
    potential_at_quadrature,
)
from .sparse_linalg import SingularMatrixError, spd_solver

__all__ = [
    "FlowParams",
    "GroundState",
    "DiscreteSpace",
    "fine_space",
    "coarse_fem_space",
    "lod_discrete_space",
    "minimize",
    "sign_align",
    "thomas_fermi_values",
]

# PCG on the shifted system: relative residual target and iteration cap
_PCG_RTOL = 1e-13
_PCG_MAX_ITERATIONS = 500
# relative stationarity residual at which the flow hands over to Newton
# steps, and at which a solve has converged
_NEWTON_SWITCH_RTOL = 1e-2
_RESIDUAL_RTOL = 1e-10


@dataclass
class FlowParams:
    """Pseudo-time step and the step limit of each phase of a solve."""

    tau: float = 0.5
    max_steps: int = 10000

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class GroundState:
    """Converged (or diagnosed) state of one minimization.

    ``coeffs`` lives in the space's own coordinates, ``fine_coeffs`` is its
    fine-mesh interior representation.  ``steps_taken`` counts the flow
    and Newton steps of the exact phase, ``newton_steps`` the latter;
    ``energy_history`` starts with the energy of the exact phase's start
    and adds one per step; ``inner_iterations`` holds the PCG iteration
    count of each completed step (for a Newton step, of its two solves
    together).  The ``pre_`` fields record the solve in the space's
    ``pre_space`` that ran before it (the coarse-density phase of an LOD
    space from the Thomas-Fermi profile): its flow and Newton steps, the
    Newton steps among them, their PCG counts and its seconds.
    ``residual`` and ``residual_scale`` are the Euclidean norms of
    (A + beta N(u)) u - lambda M u and of (A + beta N(u)) u; ``converged``
    means that their ratio is at most ``_RESIDUAL_RTOL``.
    """

    coeffs: np.ndarray
    fine_coeffs: np.ndarray
    energy: float
    eigenvalue: float
    steps_taken: int
    newton_steps: int
    energy_history: np.ndarray
    inner_iterations: np.ndarray
    converged: bool
    residual: float
    residual_scale: float
    message: str = ""
    pre_steps: int = 0
    pre_newton_steps: int = 0
    pre_inner_iterations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    pre_seconds: float = 0.0


class DiscreteSpace:
    """A trial space for the minimization: coarse P1, LOD, or fine P1.

    Carries the space-coordinate operators A (stiffness plus potential
    mass) and M, the map onto the nonlinear-assembly mesh (identity for
    both P1 spaces, the basis operator for LOD), and the map onto the fine
    mesh (the prolongation for coarse P1).  Every space runs the same
    formulas; SPD solves come from ``spd_solver``, which follows the
    operator's storage (sparse, in the nested-dissection order of
    ``ops.mesh``, for the P1 matrices; dense Cholesky for the LOD ones).
    ``pre_space``, if given, has the same coordinates, A and M, and a
    cheaper density term whose matrix is in those coordinates; ``minimize``
    runs its flow first when it is given no start, and a flow in a space
    whose density lives on another mesh takes its preconditioner's density
    term from it.
    """

    def __init__(self, ops, A, M, rep_assembly=None, rep_fine=None, pre_space=None):
        self.ops = ops  # operators of the nonlinear-assembly mesh
        self.A = A
        self.M = M
        self.rep_assembly = rep_assembly
        self.rep_fine = rep_fine
        self.pre_space = pre_space

    @property
    def n_dofs(self):
        return self.A.shape[0]

    def to_assembly(self, c):
        """Coefficients on the nonlinear-assembly mesh (interior dofs)."""
        return c if self.rep_assembly is None else self.rep_assembly @ c

    def to_fine(self, c):
        """Fine-mesh interior representation (prolongation for coarse P1)."""
        return c if self.rep_fine is None else self.rep_fine @ c

    def project_fine(self, v, M_fine):
        """L2 projection of a fine interior function into the space."""
        if self.rep_fine is None:
            return v
        return spd_solver(self.M, self.ops.ordering)(self.rep_fine.T @ (M_fine @ v))

    def nonlinear_matrix(self, w):
        """Density mass N(u) on the nonlinear-assembly mesh of the state
        with assembly-mesh coefficients w = ``to_assembly(c)``."""
        return assemble_density_mass(self.ops, w)

    def density_product(self, N, v):
        """R^T N R v: the assembly-mesh density mass N applied in space
        coordinates, with R = ``rep_assembly``.  P1 spaces apply the sparse
        N; an LOD space makes two solves with A, and B^T N B is never
        formed."""
        R = self.rep_assembly
        if R is None:
            return N @ v
        return R.T @ (N @ (R @ v))

    def mass_norm(self, c):
        return float(np.sqrt(c @ (self.M @ c)))

    def energy_of(self, c, l4, beta):
        """1/2 c^T A c + beta/4 ||u||_L4^4, with l4 = ||u||_L4^4."""
        return 0.5 * float(c @ (self.A @ c)) + 0.25 * beta * l4

    def solve_shifted(self, H, precondition, N, beta, rhs, x0=None, rtol=_PCG_RTOL):
        """Solve (H + beta R^T N R) x = rhs in space coordinates by PCG.

        H is the linear part of the matrix (M/tau + A in a flow step, the
        operator A - lambda M in a Newton step) and ``precondition`` an
        approximate solve with H + beta R^T N R (a factor of
        H + beta N~(u_0)).  N is what ``nonlinear_matrix`` returns, applied
        through ``density_product``; None (at beta = 0) drops the density
        term.  PCG starts from ``x0`` (zero if None) and stops at the
        relative residual ``rtol``, measured against ``rhs``, whatever the
        start.  Returns ``(x, iterations, info)`` with ``info`` from
        ``scipy.sparse.linalg.cg`` (0 when the relative residual reached
        the target).
        """
        shape = H.shape

        def product(v):
            if N is None:
                return H @ v
            return H @ v + beta * self.density_product(N, v)

        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        x, info = cg(
            LinearOperator(shape, matvec=product, dtype=float),
            rhs,
            x0=x0,
            rtol=rtol,
            atol=0.0,
            maxiter=_PCG_MAX_ITERATIONS,
            M=LinearOperator(shape, matvec=precondition, dtype=float),
            callback=count,
        )
        return x, iterations, info


def fine_space(ops_fine):
    """Fine-mesh P1 space (the reference space of a study)."""
    return DiscreteSpace(ops_fine, ops_fine.A, ops_fine.M)


def _coarse_density_ops(hierarchy, ops_fine):
    """Coarse-mesh operators for a coarse space's density mass: only their
    mesh, quadrature, interior dofs and density pattern are read, so they
    carry no potential (the problem's may not be assemblable there)."""
    return assemble_operators(hierarchy.coarse, Potential.constant(0.0), ops_fine.quad)


def coarse_fem_space(hierarchy, ops_fine):
    """Plain coarse P1 space: A and M are the Galerkin restrictions P^T A P
    and P^T M P of the fine operators, with P the interior prolongation,
    which is also the fine representation."""
    P = hierarchy.prolongation_interior()
    A, M = ((P.T @ X @ P).tocsr() for X in (ops_fine.A, ops_fine.M))
    return DiscreteSpace(_coarse_density_ops(hierarchy, ops_fine), A, M, rep_fine=P)


def lod_discrete_space(lod, ops_fine):
    """LOD space; space coordinates are coefficients of the LOD basis.

    Its ``pre_space`` is the coarse-density space: the same A_lod and M_lod,
    with the density of the coarse P1 function that has the same
    coefficients (P_H of the LOD function), assembled on the coarse mesh.
    """
    coarse_density = DiscreteSpace(
        _coarse_density_ops(lod.hierarchy, ops_fine), lod.A_lod, lod.M_lod
    )
    return DiscreteSpace(
        ops_fine,
        lod.A_lod,
        lod.M_lod,
        rep_assembly=lod.basis,
        rep_fine=lod.basis,
        pre_space=coarse_density,
    )


def thomas_fermi_values(mesh, potential, beta, quad):
    """Nodal Thomas-Fermi profile sqrt(max(0, (mu - V)/beta)), unit-mass mu.

    For beta = 0 the profile degenerates to the constant-interior vector.
    mu solves sum_i c_i max(0, mu - v_i) = beta over the quadrature values
    v_i with weights c_i = |T| w_q: the exact mass of the P0/P2 profile.
    That sum is piecewise linear in mu.  One sort of the v_i and a cumulative
    sum find the active points, the k smallest (ties enter together); then
    mu = v_0 + (beta + sum c_i (v_i - v_0)) / sum c_i over them.
    """
    out = np.zeros(mesh.n_nodes)
    interior = ~mesh.boundary_mask
    if beta <= 0.0:
        out[interior] = 1.0
        return out
    v = potential_at_quadrature(mesh, potential, quad).ravel()
    order = np.argsort(v)
    v = v[order]
    c = np.multiply.outer(mesh.areas, quad.weights).ravel()[order]
    del order
    v0 = v[0]
    v -= v0  # now v_i - v_0
    # scaled_mass[j - 1] = beta * mass at mu = v_j = sum_{i<j} c_i (v_j - v_i),
    # the cumulative sum of the nonnegative (v_i - v_{i-1}) sum_{l<i} c_l
    scaled_mass = np.cumsum(c)[:-1]
    scaled_mass *= np.diff(v)
    np.cumsum(scaled_mass, out=scaled_mass)
    k = 1 + int(np.searchsorted(scaled_mass, beta))
    del scaled_mass
    mu = v0 + (beta + c[:k] @ v[:k]) / c[:k].sum()
    vn = potential.values(mesh.nodes[:, 0], mesh.nodes[:, 1], mesh.domain)
    out[interior] = np.sqrt(np.maximum(0.0, (mu - vn[interior]) / beta))
    return out


def _thomas_fermi_start(space, potential, beta):
    """Space coefficients of the Thomas-Fermi profile on the assembly mesh
    (``thomas_fermi_values``), L2-projected into the space."""
    nodal = thomas_fermi_values(space.ops.mesh, potential, beta, space.ops.quad)
    u = space.ops.restrict(nodal)
    if space.rep_assembly is None:
        return u
    return space.project_fine(u, space.ops.M)


def _preconditioner_matrix(space, H, N, u, beta):
    """H + beta N~(u), the matrix a flow from u factors once (H = M/tau + A),
    and so do Newton steps from u (H = A - lambda M, 3 beta for beta).  N~ is
    the start's density mass N when it is in space coordinates (P1 spaces);
    an LOD N lives on the fine mesh, so N~ is the coarse density mass of
    ``pre_space``.  At beta = 0 it is H itself."""
    if beta == 0.0:
        return H
    if space.rep_assembly is not None:
        N = space.pre_space.nonlinear_matrix(u)
    if not sparse.issparse(H):
        return H + beta * N.toarray()
    # in CSC, the format the factorization takes, the CSR sum is freed before
    # SuperLU allocates; passed as CSR, it lived through the factorization and
    # the fine harmonic solve peaked at 170 MB in 3 of 5 runs (167 MB in CSC)
    return (H + beta * N).tocsc()


@dataclass
class _State:
    """A state u and what its evaluation (``_evaluate``) formed; r is its
    stationarity residual, of norm ``residual`` (``stationarity_residual``)."""

    u: np.ndarray
    w: object
    N: object
    l4: float
    energy: float
    eigenvalue: float
    r: np.ndarray
    residual: float
    scale: float

    @property
    def relative(self):
        return self.residual / self.scale


def _evaluate(space, u, beta):
    """The one evaluation of the state u: w = ``to_assembly(u)``, its
    density mass N = N(w) on the assembly mesh, l4 = ||u||_L4^4 = w . (N w),
    the energy, the eigenvalue and the stationarity residual.  At
    beta = 0, N and w are None and no w is formed."""
    w = N = None
    l4 = 0.0
    if beta != 0.0:
        w = space.to_assembly(u)
        N = space.nonlinear_matrix(w)
        l4 = float(w @ (N @ w))
    energy = space.energy_of(u, l4, beta)
    eigenvalue = eigenvalue_from_state(energy, l4, beta)
    residual = stationarity_residual(space, u, eigenvalue, beta, w, N)
    return _State(u, w, N, l4, energy, eigenvalue, *residual)


@dataclass
class _Run:
    """The last accepted state of a minimization in one space and its
    record: the energy of every state, the PCG iterations of every step
    (for a Newton step, those of its two solves together), the Newton
    steps among them, and the failure of an inner PCG solve."""

    state: _State
    history: list = field(init=False)
    inner: list = field(default_factory=list)
    newton_steps: int = 0
    failure: str = ""

    def __post_init__(self):
        self.history = [self.state.energy]

    def accept(self, state, iterations):
        self.state = state
        self.history.append(state.energy)
        self.inner.append(iterations)


def _flow(space, run, beta, params, rtol):
    """Flow steps in ``space`` from the run's state until its relative
    stationarity residual is at most ``rtol`` (checked before the first
    step too), the run holds max_steps steps, or an inner PCG solve fails.
    The preconditioner, a factorization of M/tau + A + beta N~(u)
    (``_preconditioner_matrix``), is made once here from the start u, and
    freed on return; the shifted matrix is dropped as soon as it is
    factored.  Each step's PCG starts from the previous step's u~."""
    tau = params.tau
    state = run.state
    if state.relative <= rtol or len(run.inner) >= params.max_steps:
        return
    H = space.M / tau + space.A
    precondition = spd_solver(
        _preconditioner_matrix(space, H, state.N, state.u, beta), space.ops.ordering
    )
    u_tilde = None
    while len(run.inner) < params.max_steps:
        rhs = (space.M @ state.u) / tau
        u_tilde, iterations, info = space.solve_shifted(
            H, precondition, state.N, beta, rhs, x0=u_tilde
        )
        if info != 0:
            run.failure = (
                f"inner PCG solve failed at step {len(run.inner) + 1} after {iterations} "
                f"iterations (cg info {info})"
            )
            return
        state = _evaluate(space, u_tilde / space.mass_norm(u_tilde), beta)
        run.accept(state, iterations)
        if state.relative <= rtol:
            return


def _newton(space, run, beta, params):
    """Newton steps on F(u, lambda) = [(A + beta N(u)) u - lambda M u;
    (1 - u^T M u) / 2] from the run's state, until its relative
    stationarity residual is at most ``_RESIDUAL_RTOL`` or the run holds
    max_steps steps.

    A step eliminates the bordered Jacobian's block
    J0 = A + 3 beta N(u) - lambda M: x = J0^{-1} F_1, y = J0^{-1} (M u),
    d_lambda = (F_2 + (M u)^T x) / ((M u)^T y), and u becomes the
    normalized u - x + d_lambda y; lambda is the new state's own
    eigenvalue.  Both solves are ``solve_shifted`` with H = A - lambda M
    (``_shifted``) and the density term 3 beta N(u), preconditioned by one
    factorization of ``_preconditioner_matrix(space, A - lambda M, N, u,
    3 beta)`` at the first state: the exact J0 in a P1 space.  Each PCG stops as soon as
    its error cannot spoil the target (never tighter than ``_PCG_RTOL``),
    the forcing term of an inexact Newton method.  Returns False, for flow
    steps to take over, when that factorization is rejected, a PCG solve
    fails, or a step does not lower the residual (the step is dropped).
    """
    state = run.state
    if state.relative <= _RESIDUAL_RTOL or len(run.inner) >= params.max_steps:
        return True
    try:
        precondition = spd_solver(
            _preconditioner_matrix(
                space, space.A - state.eigenvalue * space.M, state.N, state.u, 3.0 * beta
            ),
            space.ops.ordering,
        )
    except SingularMatrixError:
        return False
    while state.relative > _RESIDUAL_RTOL and len(run.inner) < params.max_steps:
        H = _shifted(space, state.eigenvalue)
        Mu = space.M @ state.u
        # a solve's error, at most rtol times its rhs, adds about rtol times
        # this residual to the next one: keep that a tenth of the target
        rtol = max(_PCG_RTOL, 0.1 * _RESIDUAL_RTOL / state.relative)
        x, iterations_x, info_x = space.solve_shifted(
            H, precondition, state.N, 3.0 * beta, state.r, rtol=rtol
        )
        y, iterations_y, info_y = space.solve_shifted(
            H, precondition, state.N, 3.0 * beta, Mu, rtol=rtol
        )
        if info_x != 0 or info_y != 0:
            return False
        d_lambda = (0.5 * (1.0 - state.u @ Mu) + Mu @ x) / (Mu @ y)
        u = state.u - x + d_lambda * y
        new = _evaluate(space, u / space.mass_norm(u), beta)
        if not new.relative < state.relative:
            return False
        state = new
        run.accept(state, iterations_x + iterations_y)
        run.newton_steps += 1
    return True


def _shifted(space, eigenvalue):
    """A - lambda M as an operator, applied as A v - lambda (M v).  Each
    Newton step has a new lambda, and forming the matrix at every step
    raised the fine harmonic solve's peak memory by a few MB (glibc
    placement of the freed and new matrices)."""
    A, M = space.A, space.M
    return LinearOperator(A.shape, matvec=lambda v: A @ v - eigenvalue * (M @ v), dtype=float)


def _solve(space, run, beta, params):
    """A solve in ``space`` (the exact phase, or the coarse-density phase
    in a ``pre_space``): flow steps to the relative residual
    ``_NEWTON_SWITCH_RTOL``, then Newton steps to ``_RESIDUAL_RTOL``, and
    flow steps to that target if Newton falls back.  At beta = 0, J0 =
    A - lambda M is singular at the ground state, so the flow runs to the
    target alone."""
    if beta == 0.0:
        _flow(space, run, beta, params, _RESIDUAL_RTOL)
        return
    _flow(space, run, beta, params, _NEWTON_SWITCH_RTOL)
    if not run.failure and not _newton(space, run, beta, params):
        _flow(space, run, beta, params, _RESIDUAL_RTOL)


def minimize(space, potential, beta, params=None, start=None):
    """Ground state on the unit L2 sphere of the space: normalized gradient
    flow steps, finished by Newton steps.

    With no ``start``, the flow begins from the Thomas-Fermi profile; if
    the space has a ``pre_space`` (an LOD space), the solve in
    ``pre_space`` (the coarse-density phase) runs first, and the exact
    phase continues from its coefficients.  A ``start`` given as a
    coefficient vector in space coordinates runs the exact phase alone.
    Each phase (``_solve``) stops when its relative stationarity residual
    ||(A + beta N(u)) u - lambda M u|| / ||(A + beta N(u)) u|| is at most
    ``_RESIDUAL_RTOL``; the exact phase's reaching it is ``converged``.

    Not reaching it within max_steps steps, or an inner PCG solve that
    misses its residual target within its iteration cap, is reported via
    ``converged=False`` and ``message`` rather than an exception.  On a PCG
    failure the state is the last completed step's, and in a two-phase flow
    the message names the phase.
    """
    if params is None:
        params = FlowParams()
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if start is None:
        u = _thomas_fermi_start(space, potential, beta)
    else:
        u = np.array(start, dtype=float)
        if u.shape != (space.n_dofs,):
            raise ValueError(f"start shape {u.shape} != ({space.n_dofs},)")
    nrm = space.mass_norm(u)
    if nrm == 0.0:
        raise ValueError("start is zero")
    u = u / nrm
    pre, pre_seconds = None, 0.0
    if space.pre_space is not None and start is None:
        t0 = time.perf_counter()
        pre = _Run(_evaluate(space.pre_space, u, beta))
        _solve(space.pre_space, pre, beta, params)
        pre_seconds = time.perf_counter() - t0
        u = pre.state.u
    # only the run refers to its state, so each N is freed once it moves on
    run = _Run(_evaluate(space, u, beta))
    if pre is not None and pre.failure:
        run.failure = f"coarse-density phase: {pre.failure}"
    else:
        _solve(space, run, beta, params)
        if pre is not None and run.failure:
            run.failure = f"exact phase: {run.failure}"
    state = run.state
    converged = not run.failure and state.relative <= _RESIDUAL_RTOL
    message = run.failure
    if not converged and not message:
        message = (
            f"no convergence in {params.max_steps} steps: relative stationarity "
            f"residual {state.relative:.2e} above {_RESIDUAL_RTOL:g}"
        )
    pre_inner = [] if pre is None else pre.inner
    return GroundState(
        coeffs=state.u,
        fine_coeffs=space.to_fine(state.u),
        energy=state.energy,
        eigenvalue=state.eigenvalue,
        steps_taken=len(run.inner),
        newton_steps=run.newton_steps,
        energy_history=np.asarray(run.history),
        inner_iterations=np.asarray(run.inner, dtype=int),
        converged=converged,
        residual=state.residual,
        residual_scale=state.scale,
        message=message,
        pre_steps=len(pre_inner),
        pre_newton_steps=0 if pre is None else pre.newton_steps,
        pre_inner_iterations=np.asarray(pre_inner, dtype=int),
        pre_seconds=pre_seconds,
    )


def sign_align(state, reference_fine, M_fine):
    """Flip the state's sign if its fine M-inner product with the reference
    is negative; energy and eigenvalue are unchanged."""
    inner = state.fine_coeffs @ (M_fine @ np.asarray(reference_fine))
    if inner >= 0:
        return state
    return replace(state, coeffs=-state.coeffs, fine_coeffs=-state.fine_coeffs)


def stationarity_residual(space, u, eigenvalue, beta, w, N):
    """The residual r = (A + beta N(u)) u - lambda M u, its Euclidean norm,
    and the norm of (A + beta N(u)) u, its scale, from the assembly-mesh
    coefficients w and density mass N that the state's evaluation formed
    (``_evaluate``; None at beta = 0).  The density term is R^T (N w), one
    solve with A in an LOD space."""
    lhs = space.A @ u
    if beta != 0.0:
        Nw = N @ w
        lhs = lhs + beta * (Nw if space.rep_assembly is None else space.rep_assembly.T @ Nw)
    r = lhs - eigenvalue * (space.M @ u)
    return r, float(np.linalg.norm(r)), float(np.linalg.norm(lhs))
