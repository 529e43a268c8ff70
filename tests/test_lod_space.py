import tracemalloc

import numpy as np
import pytest

from gplod import lod_space
from gplod.fem_core import Potential, assemble_density_mass, assemble_operators
from gplod.lod_space import (
    CacheMismatchError,
    build_constraint,
    cache_key,
    compute_correctors,
    load_basis,
    lod_space_cached,
    nested_lod_space,
    plod_project,
    save_basis,
)
from gplod.mesh import Rect, build_hierarchy, same_mesh_hierarchy, uniform_mesh

from helpers import (
    basis_columns,
    coarse_element_adjacency,
    dense_correctors,
    constrained_random,
    full_node_constraint,
    mass_matrix,
    projection_rate_study,
    saddle_correctors,
)


def test_constraint_shape(small_hierarchy, small_constraint):
    h = small_hierarchy
    assert small_constraint.C.shape == (h.coarse.n_interior, h.fine.n_interior)


def test_constraint_partition_of_unity(small_hierarchy):
    # against the full (uneliminated) composition: P^T M 1 = coarse hat integrals
    h = small_hierarchy
    M_full = mass_matrix(h.fine)
    C_full = h.prolongation_full().T @ M_full
    lhs = C_full @ np.ones(h.fine.n_nodes)
    areas = h.coarse.areas
    hat_integrals = np.zeros(h.coarse.n_nodes)
    np.add.at(hat_integrals, h.coarse.triangles.ravel(), np.repeat(areas / 3.0, 3))
    assert np.abs(lhs - hat_integrals).max() <= 1e-13


@pytest.mark.parametrize(
    "domain, coarse_cells, refinements, potential",
    [
        (Rect(0.0, 1.0, 0.0, 1.0), 4, 2, Potential.constant(1.0)),
        (Rect(-6.0, 6.0, -6.0, 6.0), 12, 2, Potential.harmonic()),
        (Rect(0.0, 2.0, 0.0, 1.0), 2, 3, Potential.constant(0.0)),
    ],
)
def test_constraint_matches_full_node_build(domain, coarse_cells, refinements, potential):
    # P_int^T M over interior dofs equals the full-node P^T M_full P, sliced
    hierarchy = build_hierarchy(domain, coarse_cells, refinements)
    ops = assemble_operators(hierarchy.fine, potential)
    constraint = build_constraint(hierarchy, ops.M)
    C, M_H = full_node_constraint(hierarchy)
    assert np.array_equal(constraint.C.toarray(), C.toarray())
    assert np.array_equal(constraint.coarse_mass.toarray(), M_H.toarray())


def test_constraint_disjoint_supports(small_hierarchy, small_constraint):
    # fine hat far from a coarse hat: zero moment
    h = small_hierarchy
    ci = h.coarse.interior_nodes()
    fi = h.fine.interior_nodes()
    corner_coarse = np.argmin(
        np.linalg.norm(h.coarse.nodes[ci] - [0.25, 0.25], axis=1)
    )
    far_fine = np.argmin(np.linalg.norm(h.fine.nodes[fi] - [0.9375, 0.9375], axis=1))
    assert small_constraint.C[corner_coarse, far_fine] == 0.0


def test_constraint_prolongation_identity(small_hierarchy, small_constraint, rng):
    # C applied to a prolonged coarse function equals M_H times its coefficients
    c = rng.standard_normal(small_hierarchy.coarse.n_interior)
    lhs = small_constraint.C @ (small_hierarchy.prolongation_interior() @ c)
    rhs = small_constraint.coarse_mass @ c
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_l2_orthogonal_splitting(small_hierarchy, small_ops, small_constraint, rng):
    # random coarse function vs random constrained fine function
    P = small_hierarchy.prolongation_interior()
    M = small_ops.M
    for _ in range(5):
        v = P @ rng.standard_normal(small_hierarchy.coarse.n_interior)
        w = constrained_random(small_constraint, rng)
        vn = np.sqrt(v @ (M @ v))
        wn = np.sqrt(w @ (M @ w))
        assert abs(v @ (M @ w)) <= 1e-9 * vn * wn


def test_basis_dimension_and_rank(small_lod, small_hierarchy):
    B = basis_columns(small_lod.basis)
    assert small_lod.basis.shape == B.shape
    assert B.shape == (small_hierarchy.fine.n_interior, small_hierarchy.coarse.n_interior)
    assert np.linalg.matrix_rank(B) == B.shape[1]


def test_basis_constraint_identity(small_lod, small_hierarchy, small_constraint):
    # P_H of each LOD basis function is the matching coarse hat: C B = C P
    C = small_constraint.C
    P = small_hierarchy.prolongation_interior()
    assert np.abs(C @ basis_columns(small_lod.basis) - C @ P.toarray()).max() <= 1e-9


def test_a_orthogonality(small_lod, small_ops, small_constraint, rng):
    A = small_ops.A
    B = small_lod.basis
    for _ in range(5):
        w = constrained_random(small_constraint, rng)
        wa = np.sqrt(w @ (A @ w))
        for j in (0, B.shape[1] // 2, B.shape[1] - 1):
            b = basis_columns(B, j)
            ba = np.sqrt(b @ (A @ b))
            assert abs(w @ (A @ b)) <= 1e-8 * wa * ba


def test_projected_operators_spd(small_lod):
    for G in (small_lod.A_lod, small_lod.M_lod):
        assert np.abs(G - G.T).max() == 0.0
    assert np.linalg.eigvalsh(small_lod.A_lod).min() > 0
    assert np.linalg.eigvalsh(small_lod.M_lod).min() > 0


def test_correctors_vanish_when_fine_scale_trivial(unit_domain):
    # H = h: the constraint kernel is empty, so every corrector is zero
    mesh = uniform_mesh(unit_domain, 8)
    ops = assemble_operators(mesh, Potential.harmonic())
    hierarchy = same_mesh_hierarchy(mesh)
    constraint = build_constraint(hierarchy, ops.M)
    space = compute_correctors(hierarchy, ops, constraint)
    assert np.abs(basis_columns(space.basis) - np.eye(mesh.n_interior)).max() <= 1e-9


def _lod_case(case, small_hierarchy, small_ops, small_constraint, trap_domain):
    """(hierarchy, fine operators, constraint) of the small or the harmonic case."""
    if case == "small":
        return small_hierarchy, small_ops, small_constraint
    hierarchy = build_hierarchy(trap_domain, 12, 2)
    ops = assemble_operators(hierarchy.fine, Potential.harmonic())
    return hierarchy, ops, build_constraint(hierarchy, ops.M)


@pytest.mark.parametrize("case", ["small", "harmonic"])
def test_schur_matches_saddle_reference(
    case, small_hierarchy, small_ops, small_constraint, trap_domain
):
    # the Schur-form basis and operators against the corrector saddle solves
    hierarchy, ops, constraint = _lod_case(
        case, small_hierarchy, small_ops, small_constraint, trap_domain
    )
    space = compute_correctors(hierarchy, ops, constraint)
    reference = saddle_correctors(hierarchy, ops, constraint)
    for got, ref in zip((basis_columns(space.basis), space.A_lod, space.M_lod), reference):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["small", "harmonic"])
def test_basis_operator_matches_dense_oracle(
    case, small_hierarchy, small_ops, small_constraint, trap_domain, rng
):
    # B @ c, B.T @ v, the density product, A_lod and M_lod against the dense
    # build (B = Y W stored, M_lod = B^T M B)
    hierarchy, ops, constraint = _lod_case(
        case, small_hierarchy, small_ops, small_constraint, trap_domain
    )
    space = compute_correctors(hierarchy, ops, constraint)
    B, A_lod, M_lod = dense_correctors(hierarchy, ops, constraint)
    m = B.shape[1]
    c, v = rng.standard_normal(m), rng.standard_normal(ops.n_dofs)
    block = rng.standard_normal((m, 3))
    N = assemble_density_mass(ops, B @ rng.random(m))
    pairs = [
        (space.basis @ c, B @ c),
        (space.basis @ block, B @ block),
        (space.basis.T @ v, B.T @ v),
        (space.basis.T @ (N @ (space.basis @ c)), B.T @ (N @ (B @ c))),
        (space.A_lod, A_lod),
        (space.M_lod, M_lod),
    ]
    for got, ref in pairs:
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("potential", [Potential.harmonic(), Potential.checkerboard(0.5)])
def test_nested_spaces_match_direct_builds(potential, trap_domain, rng):
    # fine 48 cells, coarse 12 built; coarse 6 and 3 derived from it (one and
    # two levels of nesting) and 3 also from the derived 6, each against the
    # direct build of its own correctors
    def hierarchy(cells):
        return build_hierarchy(trap_domain, cells, (48 // cells).bit_length() - 1)

    ops = assemble_operators(uniform_mesh(trap_domain, 48), potential)
    built, _ = lod_space_cached(hierarchy(12), ops)
    six = nested_lod_space(built, hierarchy(6), ops.M)
    derived = [six, nested_lod_space(built, hierarchy(3), ops.M)]
    derived.append(nested_lod_space(six, hierarchy(3), ops.M))
    for space in derived:
        h = space.hierarchy
        direct = compute_correctors(h, ops, build_constraint(h, ops.M))
        assert space.basis.factor is built.basis.factor
        c, v = rng.standard_normal(h.coarse.n_interior), rng.standard_normal(ops.n_dofs)
        pairs = [
            (space.A_lod, direct.A_lod),
            (space.M_lod, direct.M_lod),
            (space.basis @ c, direct.basis @ c),
            (space.basis.T @ v, direct.basis.T @ v),
        ]
        for got, ref in pairs:
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.raises(ValueError, match="coarsen"):
        nested_lod_space(six, hierarchy(12), ops.M)


def _id_group_build(monkeypatch, hierarchy, ops):
    """``compute_correctors`` with no grid map to test: the group {id}."""
    with monkeypatch.context() as patch:
        patch.setattr(lod_space, "_grid_maps", lambda mesh: [])
        return compute_correctors(hierarchy, ops, build_constraint(hierarchy, ops.M))


@pytest.mark.parametrize("potential", [Potential.harmonic(), Potential.checkerboard(0.5)])
def test_symmetric_build_matches_the_identity_group_build(potential, trap_domain, rng, monkeypatch):
    # the presets' set-up on [-6, 6]^2 (fine 48, coarse 12 cells): one coarse
    # dof per orbit is solved for, the rest copied, against solving for all
    hierarchy = build_hierarchy(trap_domain, 12, 2)
    ops = assemble_operators(hierarchy.fine, potential)
    space = compute_correctors(hierarchy, ops, build_constraint(hierarchy, ops.M))
    plain = _id_group_build(monkeypatch, hierarchy, ops)
    assert (space.timings["group_order"], space.timings["representatives"]) == (4, 36)
    assert (plain.timings["group_order"], plain.timings["representatives"]) == (1, 121)
    c, v = rng.standard_normal(121), rng.standard_normal(ops.n_dofs)
    pairs = [
        (space.A_lod, plain.A_lod),
        (space.M_lod, plain.M_lod),
        (space.basis @ c, plain.basis @ c),
        (space.basis.T @ v, plain.basis.T @ v),
    ]
    for got, ref in pairs:
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "domain, potential, kept",
    [
        (Rect(-6.0, 6.0, -6.0, 6.0), Potential.harmonic(), [0, 1, 2]),
        (Rect(-6.0, 6.0, -6.0, 6.0), Potential.checkerboard(0.5), [0, 1, 2]),
        (Rect(-5.0, 7.0, -5.0, 7.0), Potential.harmonic(), [0]),
        (Rect(0.0, 2.0, 0.0, 1.0), Potential.constant(1.0), [1]),
    ],
)
def test_symmetry_group_is_found(domain, potential, kept):
    # candidates: transpose, rotation by 180 degrees, anti-transpose.  A trap
    # off the centre of a square keeps only the transpose, and a non-square
    # rectangle only the rotation
    hierarchy = build_hierarchy(domain, 12, 2)
    ops = assemble_operators(hierarchy.fine, potential)
    group = lod_space._symmetry_group(hierarchy, ops, build_constraint(hierarchy, ops.M).C)
    candidates = list(
        zip(lod_space._grid_maps(hierarchy.fine), lod_space._grid_maps(hierarchy.coarse))
    )
    assert np.array_equal(group[0][0], np.arange(ops.n_dofs))
    assert np.array_equal(group[0][1], np.arange(hierarchy.coarse.n_interior))
    assert len(group) == 1 + len(kept)
    for (p, q), k in zip(group[1:], kept):
        assert np.array_equal(p, candidates[k][0]) and np.array_equal(q, candidates[k][1])


def test_build_holds_no_n_by_m_array(monkeypatch, trap_domain):
    # m = 121 coarse dofs over n = 2209 fine ones, in chunks of 16 columns:
    # the build's traced peak above what the finished space holds stays below
    # one dense n x m array, for the 36 representatives of the symmetric build
    # and for all 121 of the group {id}
    hierarchy = build_hierarchy(trap_domain, 12, 2)
    ops = assemble_operators(hierarchy.fine, Potential.harmonic())
    n, m = ops.n_dofs, hierarchy.coarse.n_interior
    monkeypatch.setattr(lod_space, "_RHS_CHUNK", 16)
    for build in (
        lambda: compute_correctors(hierarchy, ops, build_constraint(hierarchy, ops.M)),
        lambda: _id_group_build(monkeypatch, hierarchy, ops),
    ):
        tracemalloc.start()
        try:
            space = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < n * m * 8
        assert space.timings["representatives"] > lod_space._RHS_CHUNK


def test_no_n_by_m_array_outlives_the_build(tmp_path, small_lod, small_hierarchy):
    # the space, its basis operator and its cache file hold m x m matrices,
    # vectors and sparse factors, but no dense n x m array
    m = small_hierarchy.coarse.n_interior
    n = small_hierarchy.fine.n_interior
    basis = small_lod.basis
    held = [*vars(small_lod).values(), *vars(basis).values(), *vars(basis.factor).values()]
    path = tmp_path / "basis.npz"
    save_basis(small_lod, path)
    with np.load(path) as data:
        held += [data[key] for key in data.files]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert any(a.shape == (m, m) for a in arrays)
    for a in arrays:
        assert a.ndim <= 1 and a.size <= n or a.shape == (m, m)
    assert basis.nbytes > basis.W.nbytes


def test_exponential_decay(unit_domain):
    # tail A-norm of a central basis function decays geometrically in layers
    hierarchy = build_hierarchy(unit_domain, 12, 2)
    ops = assemble_operators(hierarchy.fine, Potential.constant(1.0))
    constraint = build_constraint(hierarchy, ops.M)
    space = compute_correctors(hierarchy, ops, constraint)

    coarse = hierarchy.coarse
    ci = coarse.interior_nodes()
    center = int(np.argmin(np.linalg.norm(coarse.nodes[ci] - [0.5, 0.5], axis=1)))
    b = basis_columns(space.basis, center)
    A = ops.A

    adjacency = coarse_element_adjacency(coarse)
    node = ci[center]
    patch = np.zeros(coarse.n_triangles, dtype=bool)
    patch[np.flatnonzero((coarse.triangles == node).any(axis=1))] = True
    parent = hierarchy.fine_tri_to_coarse()
    fi = hierarchy.fine.interior_nodes()

    tails = []
    for _ in range(5):
        tri_in = patch[parent]
        inside = np.zeros(hierarchy.fine.n_nodes, dtype=bool)
        inside[hierarchy.fine.triangles[tri_in].ravel()] = True
        tail = b.copy()
        tail[inside[fi]] = 0.0
        tails.append(np.sqrt(tail @ (A @ tail)))
        patch = patch | np.asarray(adjacency[patch].sum(axis=0)).ravel().astype(bool)
    tails = np.array(tails)
    valid = tails > 1e-14
    assert valid.sum() >= 3
    slope = np.polyfit(np.arange(len(tails))[valid], np.log(tails[valid]), 1)[0]
    assert slope < -0.5


def test_plod_idempotent(small_lod, small_ops, rng):
    c0 = rng.standard_normal(small_lod.basis.shape[1])
    v = small_lod.basis @ c0
    c = plod_project(small_lod, small_ops, v)
    assert np.abs(c - c0).max() <= 1e-10


def test_plod_residual_a_orthogonal(small_lod, small_ops, rng):
    v = rng.standard_normal(small_ops.n_dofs)
    c = plod_project(small_lod, small_ops, v)
    r = small_lod.basis.T @ (small_ops.A @ (v - small_lod.basis @ c))
    scale = np.linalg.norm(small_lod.basis.T @ (small_ops.A @ v))
    assert np.linalg.norm(r) <= 1e-9 * max(scale, 1.0)


def test_plod_smooth_source_rates():
    rates = projection_rate_study(smooth=True)
    assert 3.0 - 0.3 <= rates["h1"] <= 3.0 + 0.3
    assert 3.5 <= rates["l2"] <= 4.5


def test_plod_rough_source_rate():
    rates = projection_rate_study(smooth=False)
    assert 1.0 - 0.2 <= rates["h1"] <= 1.0 + 0.2


def test_cache_round_trip(tmp_path, small_lod, small_hierarchy, small_ops):
    path = tmp_path / "basis.npz"
    save_basis(small_lod, path)
    loaded = load_basis(path, small_hierarchy, small_ops)
    assert np.array_equal(basis_columns(loaded.basis), basis_columns(small_lod.basis))
    assert np.array_equal(loaded.A_lod, small_lod.A_lod)
    assert np.array_equal(loaded.M_lod, small_lod.M_lod)


def test_cache_header_mismatch(tmp_path, small_lod, small_hierarchy):
    path = tmp_path / "basis.npz"
    save_basis(small_lod, path)
    other = assemble_operators(small_hierarchy.fine, Potential.constant(2.0))
    with pytest.raises(CacheMismatchError):
        load_basis(path, small_hierarchy, other)


def test_cache_corrupted_file(tmp_path, small_lod, small_hierarchy, small_ops):
    path = tmp_path / "basis.npz"
    save_basis(small_lod, path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(CacheMismatchError):
        load_basis(path, small_hierarchy, small_ops)


def test_lod_space_cached(tmp_path, small_hierarchy, small_ops):
    space1, hit1 = lod_space_cached(small_hierarchy, small_ops, cache_dir=tmp_path)
    space2, hit2 = lod_space_cached(small_hierarchy, small_ops, cache_dir=tmp_path)
    assert not hit1 and hit2
    assert np.array_equal(basis_columns(space1.basis), basis_columns(space2.basis))
    # potential change invalidates the key
    key_a = cache_key(Rect(0, 1, 0, 1), 4, 2, "harmonic")
    key_b = cache_key(Rect(0, 1, 0, 1), 4, 2, "constant(1.0)")
    assert key_a != key_b


def test_cache_old_format_rebuilt(tmp_path, small_hierarchy, small_ops, small_lod):
    # a format-2 file (it stored the dense basis) is never loaded, and the
    # rebuild writes a format-3 file of m x m matrices in its place
    space, _ = lod_space_cached(small_hierarchy, small_ops, cache_dir=tmp_path)
    (path,) = tmp_path.glob("correctors_*.npz")
    dom = small_hierarchy.coarse.domain
    np.savez(
        path,
        format_version=np.int64(2),
        domain=np.array([dom.xmin, dom.xmax, dom.ymin, dom.ymax]),
        coarse_cells=np.int64(small_hierarchy.coarse.cells_per_side),
        refinements=np.int64(small_hierarchy.refinements),
        potential=np.array(small_lod.potential_descriptor),
        basis=basis_columns(space.basis),
        A_lod=space.A_lod,
        M_lod=space.M_lod,
    )
    with pytest.raises(CacheMismatchError, match="version"):
        load_basis(path, small_hierarchy, small_ops)
    with pytest.warns(UserWarning, match="rebuilding correctors"):
        rebuilt, hit = lod_space_cached(small_hierarchy, small_ops, cache_dir=tmp_path)
    assert not hit
    assert np.array_equal(rebuilt.basis.W, space.basis.W)
    with np.load(path) as data:
        assert int(data["format_version"]) == 3
        assert "basis" not in data.files
    reloaded, hit = lod_space_cached(small_hierarchy, small_ops, cache_dir=tmp_path)
    assert hit
    assert np.array_equal(basis_columns(reloaded.basis), basis_columns(space.basis))


def test_cache_file_with_swapped_columns_is_rebuilt(tmp_path, small_hierarchy, small_ops):
    # a file whose header matches but whose W has two columns swapped fails
    # the space's check on load and is rebuilt with a warning
    space, _ = lod_space_cached(small_hierarchy, small_ops, cache_dir=tmp_path)
    (path,) = tmp_path.glob("correctors_*.npz")
    space.basis.W[:, [0, 1]] = space.basis.W[:, [1, 0]]
    save_basis(space, path)
    with pytest.raises(CacheMismatchError, match="check"):
        load_basis(path, small_hierarchy, small_ops)
    with pytest.warns(UserWarning, match="rebuilding correctors"):
        rebuilt, hit = lod_space_cached(small_hierarchy, small_ops, cache_dir=tmp_path)
    assert not hit
    assert rebuilt.timings["check_s"] > 0.0
    assert load_basis(path, small_hierarchy, small_ops).timings["check_s"] > 0.0


def test_every_space_is_checked(small_hierarchy, small_ops, monkeypatch):
    # a wrong W in a build and in a derived space raises
    finer = build_hierarchy(small_hierarchy.coarse.domain, 8, 1)
    space = compute_correctors(finer, small_ops, build_constraint(finer, small_ops.M))
    monkeypatch.setattr(lod_space, "_closing_step", _swap_first_columns(lod_space._closing_step))
    with pytest.raises(ArithmeticError, match="check"):
        compute_correctors(finer, small_ops, build_constraint(finer, small_ops.M))
    with pytest.raises(ArithmeticError, match="check"):
        nested_lod_space(space, small_hierarchy, small_ops.M)


def _swap_first_columns(closing_step):
    def swapped(*args):
        W, A_lod, M_lod = closing_step(*args)
        W[:, [0, 1]] = W[:, [1, 0]]
        return W, A_lod, M_lod

    return swapped


def test_cache_failed_save_keeps_previous_file(
    tmp_path, small_lod, small_hierarchy, small_ops, monkeypatch
):
    path = tmp_path / "basis.npz"
    save_basis(small_lod, path)

    def failing_savez(file, **arrays):
        # write the start of an archive, then fail as a full disk would
        if not hasattr(file, "write"):
            file = open(file, "wb")
        file.write(b"PK\x03\x04partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError):
        save_basis(small_lod, path)
    monkeypatch.undo()
    loaded = load_basis(path, small_hierarchy, small_ops)
    assert np.array_equal(loaded.basis.W, small_lod.basis.W)
    assert [p.name for p in tmp_path.iterdir()] == ["basis.npz"]
