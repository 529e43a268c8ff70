import dataclasses

import numpy as np
import pytest
from math import factorial

from gplod.fem_core import (
    AssemblyError,
    _stiffness_local,
    Potential,
    assemble_density_mass,
    assemble_operators,
    eigenvalue_from_state,
    energy,
    l4_norm4,
    norms,
    quad_degree4,
    quad_points_xy,
)
from gplod.mesh import Rect, build_hierarchy, nested_dissection, uniform_mesh
from gplod.sparse_linalg import Factorization

from helpers import (
    density_mass_matrix,
    mass_matrix,
    potential_mass_matrix,
    quad_degree2,
    quad_degree8,
    quad_points_xy_einsum,
    sliced_operators,
    stiffness_local_einsum,
    stiffness_matrix,
)


@pytest.mark.parametrize("rule", [quad_degree2(), quad_degree4(), quad_degree8()])
def test_quadrature_exactness(rule):
    # closed form on the reference triangle: int x^p y^q = p! q! / (p+q+2)!
    assert abs(rule.weights.sum() - 1.0) <= 1e-13
    xy = rule.points[:, 1:]
    for p in range(rule.degree + 1):
        for q in range(rule.degree + 1 - p):
            exact = factorial(p) * factorial(q) / factorial(p + q + 2)
            approx = 0.5 * np.sum(rule.weights * xy[:, 0] ** p * xy[:, 1] ** q)
            assert abs(approx - exact) <= 1e-13


@pytest.mark.parametrize("rule", [quad_degree4(), quad_degree8()])
def test_quad_points_match_barycentric_sum(trap_domain, rule):
    # the (q, 3) @ (t, 3, 2) product is the barycentric einsum up to rounding
    mesh = uniform_mesh(trap_domain, 48)
    xy = quad_points_xy(mesh, rule)
    expected = quad_points_xy_einsum(mesh, rule)
    assert xy.shape == expected.shape == (mesh.n_triangles, rule.weights.size, 2)
    assert np.abs(xy - expected).max() <= 1e-14 * np.abs(mesh.nodes).max()


def test_stiffness_local_matches_einsum_bitwise(trap_domain):
    # the batched (t, 3, 2) @ (t, 2, 3) product sums the same two terms in
    # the same order as the einsum
    mesh = uniform_mesh(trap_domain, 48)
    assert np.array_equal(_stiffness_local(mesh), stiffness_local_einsum(mesh))


def test_stiffness_kernel_contains_constants(unit_domain):
    K = stiffness_matrix(uniform_mesh(unit_domain, 2))
    assert np.abs(K @ np.ones(K.shape[0])).max() <= 1e-13


def test_mass_partition_of_unity(trap_domain):
    mesh = uniform_mesh(trap_domain, 6)
    M = mass_matrix(mesh)
    area = mesh.domain.width * mesh.domain.height
    assert abs(M.sum() - area) <= 1e-12 * area
    # row sums equal the hat-function integrals: one third of incident area
    areas = mesh.areas
    hat_integrals = np.zeros(mesh.n_nodes)
    np.add.at(hat_integrals, mesh.triangles.ravel(), np.repeat(areas / 3.0, 3))
    assert np.abs(np.asarray(M.sum(axis=1)).ravel() - hat_integrals).max() <= 1e-12


def test_constant_potential_is_scaled_mass(unit_domain):
    # the quadrature of a constant times P1 x P1 against the closed-form mass
    ops = assemble_operators(uniform_mesh(unit_domain, 3), Potential.constant(3.0))
    assert abs(ops.MV - 3.0 * ops.M).max() <= 1e-14


def test_harmonic_potential_exactness(unit_domain):
    # degree-4 rule integrates the quadratic potential times P1 x P1 exactly
    mesh = uniform_mesh(unit_domain, 3)
    MV4 = assemble_operators(mesh, Potential.harmonic(), quad_degree4()).MV
    MV8 = assemble_operators(mesh, Potential.harmonic(), quad_degree8()).MV
    assert abs(MV4 - MV8).max() <= 1e-14


def test_negative_potential_rejected(unit_domain):
    # the constructors reject a negative value; assembly checks again
    mesh = uniform_mesh(unit_domain, 2)
    with pytest.raises(AssemblyError):
        Potential.constant(-1.0)
    with pytest.raises(AssemblyError, match="negative potential"):
        assemble_operators(mesh, Potential("constant", value=-1.0))


def test_checkerboard_alignment(trap_domain):
    V = Potential.checkerboard(0.5)
    assemble_operators(uniform_mesh(trap_domain, 48), V)  # cell 1/4: aligned
    with pytest.raises(AssemblyError):
        assemble_operators(uniform_mesh(trap_domain, 9), V)  # cell 4/3


@pytest.mark.parametrize(
    "domain, cells",
    [
        (Rect(0.0, 1.0, 0.0, 1.5), 2),  # cells 0.5 x 0.75: squares cut in y
        (Rect(0.0, 2.5, 0.0, 1.25), 5),  # cells 0.5 x 0.25: 2.5 squares in y
    ],
)
def test_checkerboard_alignment_in_y(domain, cells):
    with pytest.raises(AssemblyError, match="height"):
        assemble_operators(uniform_mesh(domain, cells), Potential.checkerboard(0.5))


@pytest.mark.parametrize(
    "potential",
    [Potential.constant(1.0), Potential.harmonic(), Potential.checkerboard(1.5)],
    ids=["constant", "harmonic", "checkerboard"],
)
def test_operators_match_sliced_full_node(trap_domain, potential):
    # one interior pattern against full-node assembly sliced to the interior
    ops = assemble_operators(uniform_mesh(trap_domain, 24), potential)
    K, M, MV = sliced_operators(ops.mesh, potential)
    for got, expected in ((ops.K, K), (ops.M, M)):
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.data, expected.data)
    assert np.array_equal(ops.MV.indices, MV.indices)
    assert abs(ops.MV - MV).max() <= 1e-15 * abs(MV).max()
    # K, M and MV share the pattern's index arrays
    assert np.shares_memory(ops.K.indices, ops.MV.indices)


def test_operators_are_complete_and_frozen_after_assembly(trap_domain):
    # study threads share one FeOperators: assembly forms A and the ordering,
    # and no field can be set afterwards
    mesh = uniform_mesh(trap_domain, 24)
    ops = assemble_operators(mesh, Potential.harmonic())
    assert (ops.A != (ops.K + ops.MV)).nnz == 0
    assert np.array_equal(ops.ordering, nested_dissection(mesh))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ops.A = ops.K


def test_checkerboard_exact_average(trap_domain):
    # 24x24 alternating 0/1 squares average to one half over the domain
    mesh = uniform_mesh(trap_domain, 48)
    MV = potential_mass_matrix(mesh, Potential.checkerboard(0.5))
    assert abs(MV.sum() - 0.5 * mesh.domain.width * mesh.domain.height) <= 1e-10


def test_density_mass_zero_and_constant(unit_domain):
    mesh = uniform_mesh(unit_domain, 2)
    Z = density_mass_matrix(mesh, np.zeros(mesh.n_nodes))
    assert Z.nnz == 0 or abs(Z).max() == 0.0
    N = density_mass_matrix(mesh, np.ones(mesh.n_nodes))
    assert abs(N - mass_matrix(mesh)).max() <= 1e-14


def test_density_mass_over_integration_oracle(unit_domain, rng):
    mesh = uniform_mesh(unit_domain, 2)
    u = rng.standard_normal(mesh.n_nodes)
    N4 = density_mass_matrix(mesh, u, quad_degree4())
    N8 = density_mass_matrix(mesh, u, quad_degree8())
    assert abs(N4 - N8).max() <= 1e-13


def test_density_mass_dimension_check(unit_domain):
    mesh = uniform_mesh(unit_domain, 2)
    with pytest.raises(AssemblyError):
        density_mass_matrix(mesh, np.zeros(4))


def test_interior_density_mass_matches_sliced_full(trap_domain, rng):
    ops = assemble_operators(uniform_mesh(trap_domain, 24), Potential.harmonic())
    dof = ops.dof_map
    built = []
    for _ in range(2):
        u = rng.standard_normal(ops.n_dofs)
        N = assemble_density_mass(ops, u)
        expected = density_mass_matrix(ops.mesh, ops.expand(u))[dof][:, dof].tocsr()
        assert np.array_equal(N.indptr, expected.indptr)
        assert np.array_equal(N.indices, expected.indices)
        assert abs(N - expected).max() <= 1e-15 * abs(expected).max()
        built.append(N)
    # every call fills the pattern that assembly built
    assert np.shares_memory(built[0].indices, built[1].indices)
    assert np.shares_memory(built[0].indptr, ops.M.indptr)


def test_interior_density_mass_dimension_check(unit_domain):
    ops = assemble_operators(uniform_mesh(unit_domain, 4), Potential.constant(1.0))
    for u in (np.zeros(ops.n_dofs + 1), np.zeros(ops.mesh.n_nodes), np.zeros((ops.n_dofs, 2))):
        with pytest.raises(AssemblyError):
            assemble_density_mass(ops, u)


def test_energy_zero_state(unit_domain):
    mesh = uniform_mesh(unit_domain, 4)
    ops = assemble_operators(mesh, Potential.constant(0.0))
    assert energy(ops, np.zeros(ops.n_dofs), 7.0) == 0.0


def test_energy_quadratic_scaling(unit_domain, rng):
    mesh = uniform_mesh(unit_domain, 4)
    ops = assemble_operators(mesh, Potential.harmonic())
    u = rng.standard_normal(ops.n_dofs)
    assert energy(ops, 2 * u, 0.0) == pytest.approx(4 * energy(ops, u, 0.0), rel=1e-13)


def test_energy_laplace_eigenfunction(unit_domain):
    # E(2 sin(pi x) sin(pi y)) = pi^2; discrete interpolant within O(h^2)
    for cells, tol in ((32, 8e-3), (64, 2e-3)):
        mesh = uniform_mesh(unit_domain, cells)
        ops = assemble_operators(mesh, Potential.constant(0.0))
        u = 2.0 * np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
        E = energy(ops, ops.restrict(u), 0.0)
        assert abs(E - np.pi**2) <= tol


def test_energy_quadratic_form_consistency(unit_domain, rng):
    mesh = uniform_mesh(unit_domain, 4)
    ops = assemble_operators(mesh, Potential.harmonic())
    for _ in range(100):
        u = rng.standard_normal(ops.n_dofs)
        direct = 0.5 * u @ (ops.A @ u)
        assert energy(ops, u, 0.0) == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_eigenvalue_from_state():
    assert eigenvalue_from_state(3.0, 0.0, 0.0) == 6.0
    assert eigenvalue_from_state(np.pi**2, 0.0, 0.0) == pytest.approx(2 * np.pi**2)
    assert eigenvalue_from_state(1.0, 2.0, 100.0) == 102.0


def test_norms_zero_and_ordering(unit_domain, rng):
    mesh = uniform_mesh(unit_domain, 4)
    ops = assemble_operators(mesh, Potential.constant(0.0))
    assert norms(ops, np.zeros(ops.n_dofs)) == (0.0, 0.0)
    for _ in range(10):
        e = rng.standard_normal(ops.n_dofs)
        l2, h1 = norms(ops, e)
        assert h1 >= l2


def test_norms_closed_form(unit_domain):
    # interpolant of sin(pi x) sin(pi y): ||u|| -> 1/2 and
    # ||u||_H1 -> sqrt(1/4 + pi^2/2) (norms of the continuous function)
    mesh = uniform_mesh(unit_domain, 64)
    ops = assemble_operators(mesh, Potential.constant(0.0))
    u = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
    l2, h1 = norms(ops, ops.restrict(u))
    assert l2 == pytest.approx(0.5, abs=1e-3)
    assert h1 == pytest.approx(np.sqrt(0.25 + np.pi**2 / 2), abs=2e-3)


def test_l4_norm4_basics(unit_domain, rng):
    mesh = uniform_mesh(unit_domain, 3)
    assert l4_norm4(mesh, np.zeros(mesh.n_nodes)) == 0.0
    assert l4_norm4(mesh, np.ones(mesh.n_nodes)) == pytest.approx(
        mesh.domain.width * mesh.domain.height, rel=1e-14
    )
    u = rng.standard_normal(mesh.n_nodes)
    assert l4_norm4(mesh, u) == pytest.approx(
        l4_norm4(mesh, u, quad_degree8()), rel=1e-13
    )


def test_poisson_convergence_oracle(unit_domain):
    # K u = M f with f = 1 against an h = 1/64 reference: H1 rate 1, L2 rate 2
    ref_cells = 64
    mesh_ref = uniform_mesh(unit_domain, ref_cells)
    ops_ref = assemble_operators(mesh_ref, Potential.constant(0.0))
    rhs = ops_ref.restrict(mass_matrix(mesh_ref) @ np.ones(mesh_ref.n_nodes))
    u_ref = Factorization(ops_ref.K, ops_ref.ordering).solve(rhs)

    hs, errs_h1, errs_l2 = [], [], []
    for cells in (4, 8, 16):
        hierarchy = build_hierarchy(unit_domain, cells, int(np.log2(ref_cells // cells)))
        ops = assemble_operators(hierarchy.coarse, Potential.constant(0.0))
        rhs_c = ops.restrict(mass_matrix(hierarchy.coarse) @ np.ones(hierarchy.coarse.n_nodes))
        u = Factorization(ops.K, ops.ordering).solve(rhs_c)
        e = u_ref - hierarchy.prolongation_interior() @ u
        l2, h1 = norms(ops_ref, e)
        hs.append(1.0 / cells)
        errs_h1.append(h1)
        errs_l2.append(l2)
    rate_h1 = np.polyfit(np.log(hs), np.log(errs_h1), 1)[0]
    rate_l2 = np.polyfit(np.log(hs), np.log(errs_l2), 1)[0]
    assert abs(rate_h1 - 1.0) <= 0.1
    assert abs(rate_l2 - 2.0) <= 0.1


def test_quad_degree_preconditions(unit_domain):
    mesh = uniform_mesh(unit_domain, 2)
    with pytest.raises(AssemblyError):
        assemble_operators(mesh, Potential.harmonic(), quad_degree2())


def test_potential_descriptor_round_trip():
    assert Potential.harmonic().descriptor() == "harmonic"
    assert "0.5" in Potential.checkerboard(0.5).descriptor()
    assert Potential.constant(2.0).descriptor() == Potential.constant(2.0).descriptor()
