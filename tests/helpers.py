"""Shared test utilities: oracles and small study drivers."""

import numpy as np
from scipy import linalg as dense_linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from gplod.convergence_study import fit_rate
from gplod.fem_core import (
    _MASS_REF,
    DEFAULT_QUAD,
    AssemblyError,
    Potential,
    QuadRule,
    _density_local,
    _mass_local,
    _orbit,
    _potential_local,
    _stiffness_local,
    _tri_geometry,
    assemble_density_mass,
    assemble_operators,
    eigenvalue_from_state,
    l4_norm4,
    load_triangle_constant,
    norms,
    potential_at_quadrature,
)
from gplod.lod_space import build_constraint, compute_correctors, plod_project
from gplod.mesh import Rect, build_hierarchy, uniform_mesh
from gplod.sparse_linalg import Factorization, spd_solver


def canonical_triangles(triangles):
    """Rotation-normalized, lexicographically sorted triangle array."""
    t = np.array(triangles)
    roll = np.argmin(t, axis=1)
    out = np.empty_like(t)
    for k in range(3):
        sel = roll == k
        out[sel] = np.roll(t[sel], -k, axis=1)
    order = np.lexsort((out[:, 2], out[:, 1], out[:, 0]))
    return out[order]


def quad_degree2():
    """Edge-midpoint rule, exact through degree 2."""
    pts = _orbit(0.0, 0.5)
    return QuadRule(np.array(pts), np.full(3, 1.0 / 3.0), 2)


def quad_degree8():
    """16-point rule, exact through degree 8 (over-integration oracle)."""
    pts = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    pts += _orbit(0.081414823414554, 0.459292588292723)
    pts += _orbit(0.658861384496480, 0.170569307751760)
    pts += _orbit(0.898905543365938, 0.050547228317031)
    a, b, c = 0.008394777409958, 0.263112829634638, 0.728492392955404
    pts += [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    w = np.concatenate(
        [
            [0.144315607677787],
            np.full(3, 0.095091634267285),
            np.full(3, 0.103217370534718),
            np.full(3, 0.032458497623198),
            np.full(6, 0.027230314174435),
        ]
    )
    return QuadRule(np.array(pts), w, 8)


def serialize_config(resolved):
    """Canonical INI text for a resolved configuration."""
    lines = []
    for section in sorted(resolved):
        lines.append(f"[{section}]")
        for key in sorted(resolved[section]):
            lines.append(f"{key} = {resolved[section][key]}")
        lines.append("")
    return "\n".join(lines)


def assemble_from_triplets(nrows, ncols, rows, cols, values):
    """CSR matrix from COO triplets given as three parallel arrays; duplicate
    entries are summed.  The result is independent of triplet order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise IndexError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= ncols):
        raise IndexError("column index out of range")
    A = sparse.coo_matrix((values, (rows, cols)), shape=(nrows, ncols)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def full_node_matrix(mesh, local):
    """Full-node CSR matrix (boundary nodes included) from per-triangle
    element entries, (t, 3, 3) or (t, 9), by triplet assembly."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return assemble_from_triplets(mesh.n_nodes, mesh.n_nodes, rows, cols, np.ravel(local))


def stiffness_matrix(mesh):
    """Full-node stiffness from the library's element entries."""
    return full_node_matrix(mesh, _stiffness_local(mesh))


def mass_matrix(mesh):
    """Full-node mass from the library's element entries."""
    return full_node_matrix(mesh, _mass_local(mesh))


def potential_mass_matrix(mesh, potential, quad=DEFAULT_QUAD):
    """Full-node potential mass from the library's element entries."""
    return full_node_matrix(mesh, _potential_local(mesh, potential, quad))


def density_mass_matrix(mesh, u_full, quad=DEFAULT_QUAD):
    """Full-node matrix of integrals |u_h|^2 phi_i phi_j, exact for P1 u_h:
    the reference that pins the interior ``assemble_density_mass``."""
    u_full = np.asarray(u_full)
    if u_full.shape[0] != mesh.n_nodes:
        raise AssemblyError(
            f"state length {u_full.shape[0]} != node count {mesh.n_nodes}"
        )
    return full_node_matrix(mesh, _density_local(mesh, u_full, quad))


def sliced_operators(mesh, potential, quad=DEFAULT_QUAD):
    """(K, M, MV) built the full-node way and sliced to the interior dofs:
    the reference that pins ``assemble_operators``.  A piecewise-constant
    potential mass is the closed-form element mass scaled per triangle, a
    smooth one the quadrature sum written as one einsum."""
    if potential.piecewise_constant:
        potential.check_alignment(mesh)
        vt = potential.triangle_values(mesh)
        mv_local = (vt * mesh.areas)[:, None, None] * _MASS_REF[None, :, :]
    else:
        vq = potential_at_quadrature(mesh, potential, quad)
        lam = quad.points
        mv_local = np.einsum("tq,q,qi,qj->tij", vq, quad.weights, lam, lam)
        mv_local = mv_local * mesh.areas[:, None, None]
    dof = mesh.interior_nodes()
    full = (stiffness_matrix(mesh), mass_matrix(mesh), full_node_matrix(mesh, mv_local))
    return tuple(X[dof][:, dof].tocsr() for X in full)


def full_node_constraint(hierarchy):
    """(C, M_H) from the full-node fine mass and full prolongation, sliced to
    the interior dofs of both levels: the reference that pins
    ``build_constraint``."""
    M_full = mass_matrix(hierarchy.fine)
    P = hierarchy.prolongation_full()
    ci = hierarchy.coarse.interior_nodes()
    fi = hierarchy.fine.interior_nodes()
    C = (P.T @ M_full).tocsr()[ci][:, fi].tocsr()
    M_H = (P.T @ M_full @ P).tocsr()[ci][:, ci].tocsr()
    return C, M_H


def basis_columns(basis, columns=None):
    """Columns of an LOD basis operator as a dense array: ``basis @ e_j``
    for each j in ``columns`` (every column if None)."""
    E = np.eye(basis.shape[1])
    return basis @ (E if columns is None else E[:, columns])


def dense_correctors(hierarchy, ops, constraint):
    """Reference LOD basis and projected operators built densely.

    Y = A^{-1} C^T, W = S^{-1} M_H with S = C Y, the stored n x m basis
    B = Y W, A_lod = M_H W and M_lod = B^T (M B), both symmetrized: the
    build that the basis operator replaced.  Returns (B, A_lod, M_lod).
    """
    C = constraint.C
    Y = Factorization(ops.A, ops.ordering).solve(C.T)
    S = C @ Y
    W = spd_solver(0.5 * (S + S.T))(constraint.coarse_mass.toarray())
    B = Y @ W
    A_lod = constraint.coarse_mass @ W
    M_lod = B.T @ (ops.M @ B)
    return B, 0.5 * (A_lod + A_lod.T), 0.5 * (M_lod + M_lod.T)


def stiffness_local_einsum(mesh):
    """Element stiffness entries grad phi_i . grad phi_j |T| as one einsum:
    the oracle of the batched-matmul ``_stiffness_local``."""
    grads = _tri_geometry(mesh)
    return np.einsum("tid,tjd->tij", grads, grads) * mesh.areas[:, None, None]


def quad_points_xy_einsum(mesh, quad):
    """Physical quadrature points as the barycentric sum over the three
    vertices of each triangle, shape (t, q, 2): the oracle of
    ``quad_points_xy``."""
    return np.einsum("qi,tid->tqd", quad.points, mesh.nodes[mesh.triangles])


def thomas_fermi_values_200(mesh, potential, beta, quad):
    """The Thomas-Fermi profile with mu from 200 bisection steps on the
    unit-mass condition: the oracle of the closed-form
    ``thomas_fermi_values``."""
    out = np.zeros(mesh.n_nodes)
    interior = ~mesh.boundary_mask
    if beta <= 0.0:
        out[interior] = 1.0
        return out
    vq = potential_at_quadrature(mesh, potential, quad)
    wq = quad.weights

    def mass(mu):
        dens = np.maximum(0.0, (mu - vq) / beta)
        return float(np.einsum("t,q,tq->", mesh.areas, wq, dens))

    lo = float(vq.min())
    hi = float(vq.max()) + beta / (mesh.domain.width * mesh.domain.height) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    vn = potential.values(mesh.nodes[:, 0], mesh.nodes[:, 1], mesh.domain)
    out[interior] = np.sqrt(np.maximum(0.0, (mu - vn[interior]) / beta))
    return out


def saddle_correctors(hierarchy, ops, constraint):
    """Reference LOD basis and projected operators from the saddle problems.

    Basis function j is lam - q, where lam is the prolonged j-th coarse hat
    and (q, mu) solves

        [A  C^T] [q ]   [A lam]
        [C   0 ] [mu] = [  0  ]

    with one SuperLU factorization (COLAMD, partial pivoting) of the
    indefinite saddle matrix.  Returns B and the symmetrized triple products
    B^T A B and B^T M B.
    """
    A = ops.A
    C = constraint.C
    lam = hierarchy.prolongation_interior().toarray()
    n = A.shape[0]
    saddle = splu(sparse.bmat([[A, C.T], [C, None]], format="csc"))
    rhs = np.zeros((n + C.shape[0], lam.shape[1]))
    rhs[:n] = A @ lam
    B = lam - saddle.solve(rhs)[:n]
    A_lod = B.T @ (A @ B)
    M_lod = B.T @ (ops.M @ B)
    return B, 0.5 * (A_lod + A_lod.T), 0.5 * (M_lod + M_lod.T)


def direct_shifted_matrix(space, c, beta, tau, B=None):
    """M/tau + A + beta N(u) formed explicitly: the sparse sum for P1 spaces,
    the dense matrix with the symmetrized projection B^T N B for LOD spaces
    (B = ``basis_columns`` of the space's basis unless given)."""
    N = assemble_density_mass(space.ops, space.to_assembly(c))
    if space.rep_assembly is not None:
        B = basis_columns(space.rep_assembly) if B is None else B
        G = B.T @ (N @ B)
        N = 0.5 * (G + G.T)
    return space.M / tau + space.A + beta * N


def direct_solve(H, rhs):
    """SuperLU (COLAMD, partial pivoting) for sparse H, dense SPD solve otherwise."""
    if sparse.issparse(H):
        return splu(H.tocsc()).solve(rhs)
    return dense_linalg.solve(H, rhs, assume_a="pos")


def _direct_energy(space, u, beta):
    """(E, ||u||_L4^4) of the space state u, the L4 term by ``l4_norm4``."""
    ops = space.ops
    l4 = l4_norm4(ops.mesh, ops.expand(space.to_assembly(u)), ops.quad) if beta != 0.0 else 0.0
    return 0.5 * float(u @ (space.A @ u)) + 0.25 * beta * l4, l4


def direct_minimize(space, beta, params, start, steps):
    """Reference normalized gradient flow that forms and directly solves
    every shifted system (``direct_shifted_matrix``).

    Same start and steps as the flow of ``minimize`` from a vector start,
    stopped after exactly ``steps`` steps; returns (coefficients, energy,
    eigenvalue, steps).
    """
    tau = params.tau
    B = None if space.rep_assembly is None else basis_columns(space.rep_assembly)
    u = start / space.mass_norm(start)
    E, l4 = _direct_energy(space, u, beta)
    for _ in range(steps):
        H = direct_shifted_matrix(space, u, beta, tau, B)
        u_tilde = direct_solve(H, (space.M @ u) / tau)
        u = u_tilde / space.mass_norm(u_tilde)
        E, l4 = _direct_energy(space, u, beta)
    return u, E, eigenvalue_from_state(E, l4, beta), steps


def coarse_element_adjacency(coarse):
    """Element-to-element adjacency through shared nodes (sparse bool)."""
    t = coarse.n_triangles
    rows = np.repeat(np.arange(t), 3)
    cols = coarse.triangles.ravel()
    incidence = sparse.csr_matrix(
        (np.ones(rows.size, dtype=bool), (rows, cols)),
        shape=(t, coarse.n_nodes),
    )
    return (incidence @ incidence.T).astype(bool)


def constrained_random(constraint, rng, size=1):
    """Random fine vectors in the kernel of the constraint operator."""
    C = constraint.C
    CCt = (C @ C.T).toarray()
    w = rng.standard_normal((C.shape[1], size))
    w -= C.T @ np.linalg.solve(CCt, C @ w)
    return w[:, 0] if size == 1 else w


_projection_memo = {}


def projection_rate_study(smooth):
    """H1/L2 rates of the a-orthogonal projection for a linear source problem.

    With ``smooth=True`` the source is the P1 interpolant of
    sin(pi x) sin(pi y) (in H2, vanishing on the boundary); otherwise a
    seeded random 0/1 value per fine triangle, a genuinely L2-only source.
    Errors are relative, measured against the fine solution of
    a(v, w) = (f, w); results are memoized for reuse across test modules.
    """
    if smooth in _projection_memo:
        return _projection_memo[smooth]
    fine_cells, coarse_list = (128, (8, 16, 32)) if smooth else (64, (4, 8, 16))
    domain = Rect(0.0, 1.0, 0.0, 1.0)
    mesh = uniform_mesh(domain, fine_cells)
    ops = assemble_operators(mesh, Potential.constant(1.0))
    if smooth:
        f_full = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
        rhs_full = mass_matrix(mesh) @ f_full
    else:
        f_tri = np.random.default_rng(7).choice([0.0, 1.0], size=mesh.n_triangles)
        rhs_full = load_triangle_constant(mesh, f_tri)
    v = Factorization(ops.A, ops.ordering).solve(ops.restrict(rhs_full))
    ref_l2, ref_h1 = norms(ops, v)

    Hs, errs_h1, errs_l2 = [], [], []
    for coarse in coarse_list:
        refinements = int(round(np.log2(fine_cells / coarse)))
        hierarchy = build_hierarchy(domain, coarse, refinements)
        constraint = build_constraint(hierarchy, ops.M)
        space = compute_correctors(hierarchy, ops, constraint)
        c = plod_project(space, ops, v)
        e_l2, e_h1 = norms(ops, v - space.basis @ c)
        Hs.append(1.0 / coarse)
        errs_h1.append(e_h1 / ref_h1)
        errs_l2.append(e_l2 / ref_l2)
    result = {
        "h1": fit_rate(Hs, errs_h1),
        "l2": fit_rate(Hs, errs_l2),
        "errors_h1": errs_h1,
        "errors_l2": errs_l2,
    }
    _projection_memo[smooth] = result
    return result
