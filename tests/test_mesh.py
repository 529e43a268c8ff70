import numpy as np
import pytest

from gplod.mesh import (
    MeshError,
    Rect,
    build_hierarchy,
    export_mesh,
    nested_dissection,
    refine,
    same_mesh_hierarchy,
    uniform_mesh,
)
from gplod.mesh import _locate_points

from helpers import canonical_triangles


def test_rect_rejects_degenerate():
    with pytest.raises(MeshError):
        Rect(0, 0, 0, 1)
    with pytest.raises(MeshError):
        Rect(0, 1, 2, 1)


def test_smallest_mesh(unit_domain):
    m = uniform_mesh(unit_domain, 1)
    assert m.n_nodes == 4
    assert m.n_triangles == 2
    assert m.boundary_mask.all()


def test_two_cell_counts(unit_domain):
    m = uniform_mesh(unit_domain, 2)
    assert m.n_nodes == 9
    assert m.n_triangles == 8
    assert m.n_interior == 1


@pytest.mark.parametrize("cells", [1, 3, 6])
def test_counting_identity(unit_domain, cells):
    m = uniform_mesh(unit_domain, cells)
    assert m.n_nodes == (cells + 1) ** 2
    assert m.n_triangles == 2 * cells**2


def test_mesh_size_is_cell_diagonal(trap_domain):
    # 6 cells on a width-12 square: cell side 2, longest edge 2*sqrt(2)
    m = uniform_mesh(trap_domain, 6)
    assert m.mesh_size == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_rejects_zero_cells(unit_domain):
    with pytest.raises(MeshError):
        uniform_mesh(unit_domain, 0)


def test_refine_counts(unit_domain):
    m = refine(uniform_mesh(unit_domain, 1), 1)
    assert m.n_triangles == 8
    assert m.n_nodes == 9
    m2 = refine(uniform_mesh(unit_domain, 3), 2)
    assert m2.n_triangles == 16 * 2 * 9


def test_refine_rejects_zero(unit_domain):
    with pytest.raises(MeshError):
        refine(uniform_mesh(unit_domain, 1), 0)


def test_refine_matches_direct_mesh(trap_domain):
    refined = refine(uniform_mesh(trap_domain, 6), 1)
    direct = uniform_mesh(trap_domain, 12)
    assert np.array_equal(refined.nodes, direct.nodes)
    assert np.array_equal(refined.boundary_mask, direct.boundary_mask)
    assert np.array_equal(
        canonical_triangles(refined.triangles), canonical_triangles(direct.triangles)
    )


def test_orientation_positive(trap_domain):
    for mesh in (uniform_mesh(trap_domain, 5), refine(uniform_mesh(trap_domain, 5), 2)):
        assert (mesh.areas > 0).all()


def test_determinism(trap_domain):
    a = refine(uniform_mesh(trap_domain, 6), 2)
    b = refine(uniform_mesh(trap_domain, 6), 2)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.triangles, b.triangles)


def test_mesh_size_invariant(unit_domain):
    m = refine(uniform_mesh(unit_domain, 3), 1)
    p = m.nodes[m.triangles]
    edges = np.concatenate(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ]
    )
    assert m.mesh_size == pytest.approx(edges.max(), rel=1e-12)


def test_conforming_edges(unit_domain):
    # every edge is shared by at most two triangles; single-owner edges on the boundary
    m = refine(uniform_mesh(unit_domain, 2), 1)
    raw = np.sort(
        np.concatenate([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]], m.triangles[:, [2, 0]]]),
        axis=1,
    )
    edges, counts = np.unique(raw, axis=0, return_counts=True)
    assert counts.max() <= 2
    for (i, j) in edges[counts == 1]:
        assert m.boundary_mask[i] and m.boundary_mask[j]


def test_hierarchy_dyadic_family(trap_domain):
    # H = 2 with three refinements reaches the h = 1/4 member of the dyadic family
    h = build_hierarchy(trap_domain, 6, 3)
    assert h.coarse.cells_per_side == 6
    assert h.fine.cells_per_side == 48
    assert np.array_equal(h.fine.nodes, uniform_mesh(trap_domain, 48).nodes)


@pytest.mark.parametrize("coarse_cells, refinements", [(6, 2), (3, 3)])
def test_hierarchy_fine_is_direct_mesh(trap_domain, coarse_cells, refinements):
    # same nodes, boundary and triangles, in the same order
    fine = build_hierarchy(trap_domain, coarse_cells, refinements).fine
    direct = uniform_mesh(trap_domain, coarse_cells * 2**refinements)
    assert np.array_equal(fine.nodes, direct.nodes)
    assert np.array_equal(fine.triangles, direct.triangles)
    assert np.array_equal(fine.boundary_mask, direct.boundary_mask)


def test_areas_cached_read_only(trap_domain):
    m = uniform_mesh(trap_domain, 5)
    areas = m.areas
    assert areas is m.areas
    assert not areas.flags.writeable
    p = m.nodes[m.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    assert np.array_equal(areas, 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]))


def test_hierarchy_rejects_zero_refinements(trap_domain):
    with pytest.raises(MeshError):
        build_hierarchy(trap_domain, 6, 0)


def test_child_map_smallest(unit_domain):
    h = build_hierarchy(unit_domain, 1, 1)
    assert h.fine.n_nodes == 9
    assert h.coarse.n_triangles == 2
    assert set(h.child_tri) <= {0, 1}
    assert np.abs(h.child_bary.sum(axis=1) - 1.0).max() <= 1e-12
    assert (h.child_bary >= 0).all() and (h.child_bary <= 1).all()


def test_coarse_nodes_are_fine_nodes(trap_domain):
    h = build_hierarchy(trap_domain, 6, 2)
    # coarse grid node (iy, ix) is fine grid node (4 iy, 4 ix), row-major
    iy, ix = np.divmod(np.arange(h.coarse.n_nodes), 6 + 1)
    idx = (4 * iy) * (24 + 1) + 4 * ix
    assert np.array_equal(h.fine.nodes[idx], h.coarse.nodes)
    # nested nodes carry barycentric weight exactly 1 on one vertex
    w = h.child_bary[idx]
    assert ((w == 1.0).sum(axis=1) == 1).all()


def test_nestedness_prolongation_exact(unit_domain, rng):
    # P1 interpolant of a coarse function is reproduced exactly at fine nodes
    h = build_hierarchy(unit_domain, 3, 2)
    c = rng.standard_normal(h.coarse.n_nodes)
    fine_vals = h.prolongation_full() @ c
    # independent oracle: brute-force point location triangle by triangle
    expected = np.empty(h.fine.n_nodes)
    for i, (x, y) in enumerate(h.fine.nodes):
        for tri in h.coarse.triangles:
            p = h.coarse.nodes[tri]
            T = np.column_stack([p[1] - p[0], p[2] - p[0]])
            lam12 = np.linalg.solve(T, np.array([x, y]) - p[0])
            lam = np.array([1 - lam12.sum(), lam12[0], lam12[1]])
            if (lam >= -1e-12).all():
                expected[i] = lam @ c[tri]
                break
        else:
            raise AssertionError("point not located")
    assert np.abs(fine_vals - expected).max() <= 1e-12


def test_locate_points_snaps(unit_domain):
    m = uniform_mesh(unit_domain, 4)
    tri, lam = _locate_points(m, m.nodes)
    assert np.abs(lam.sum(axis=1) - 1.0).max() == 0.0
    assert ((lam == 1.0).sum(axis=1) == 1).all()


def test_same_mesh_hierarchy(unit_domain):
    m = uniform_mesh(unit_domain, 3)
    h = same_mesh_hierarchy(m)
    P = h.prolongation_full()
    assert np.abs(P - np.eye(m.n_nodes)).max() <= 1e-14


def test_export_mesh(tmp_path, unit_domain):
    m = uniform_mesh(unit_domain, 2)
    path = tmp_path / "mesh.txt"
    export_mesh(m, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == f"# nodes {m.n_nodes}"
    node_lines = lines[1 : 1 + m.n_nodes]
    parsed = np.array([[float(tok) for tok in ln.split()] for ln in node_lines])
    assert np.array_equal(parsed[:, :2], m.nodes)
    assert np.array_equal(parsed[:, 2].astype(bool), m.boundary_mask)
    assert lines[1 + m.n_nodes] == f"# triangles {m.n_triangles}"
    tri_lines = lines[2 + m.n_nodes :]
    assert np.array_equal(
        np.array([[int(t) for t in ln.split()] for ln in tri_lines]), m.triangles
    )


@pytest.mark.parametrize("cells", [1, 2, 3, 24, 96])
def test_nested_dissection_is_permutation(trap_domain, cells):
    mesh = uniform_mesh(trap_domain, cells)
    order = nested_dissection(mesh)
    assert np.array_equal(np.sort(order), np.arange(mesh.n_interior))
    if cells == 1:
        assert order.size == 0


def test_nested_dissection_separator_last(unit_domain):
    # 9 x 9 interior grid (> 16 dofs): the middle row is the last separator
    order = nested_dissection(uniform_mesh(unit_domain, 10))
    assert np.array_equal(order[-9:], 4 * 9 + np.arange(9))
