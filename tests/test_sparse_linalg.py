import numpy as np
import pytest
from scipy import sparse

from gplod.fem_core import Potential, assemble_operators
from gplod.mesh import uniform_mesh
from gplod.sparse_linalg import (
    SingularMatrixError,
    assemble_from_triplets,
    factor_symmetric,
)


def test_triplets_duplicates_summed():
    A = assemble_from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    assert A[0, 0] == 3.0
    assert A.nnz == 1


def test_triplets_empty():
    A = assemble_from_triplets(3, 4, [])
    assert A.shape == (3, 4)
    assert A.nnz == 0


def test_triplets_symmetric_pattern():
    A = assemble_from_triplets(2, 2, [(0, 1, 5.0), (1, 0, 5.0)])
    assert A[0, 1] == 5.0 and A[1, 0] == 5.0


def test_triplets_order_independent(rng):
    rows = rng.integers(0, 10, 50)
    cols = rng.integers(0, 10, 50)
    vals = rng.standard_normal(50)
    A = assemble_from_triplets(10, 10, rows, cols, vals)
    perm = rng.permutation(50)
    B = assemble_from_triplets(10, 10, rows[perm], cols[perm], vals[perm])
    assert abs(A - B).max() <= 1e-15


def test_triplets_out_of_range():
    with pytest.raises(IndexError):
        assemble_from_triplets(2, 2, [(2, 0, 1.0)])
    with pytest.raises(IndexError):
        assemble_from_triplets(2, 2, [(0, -1, 1.0)])


def test_factor_diagonal():
    A = sparse.diags([2.0, 3.0]).tocsr()
    x = factor_symmetric(A).solve(np.array([2.0, 3.0]))
    assert np.abs(x - 1.0).max() <= 1e-14


def test_factor_indefinite_permutation():
    A = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = factor_symmetric(A).solve(np.array([1.0, 2.0]))
    assert np.abs(x - np.array([2.0, 1.0])).max() <= 1e-14


def test_factor_random_spd(rng):
    G = sparse.random(50, 50, density=0.2, random_state=7)
    A = (G @ G.T + 50 * sparse.eye(50)).tocsr()
    b = rng.standard_normal(50)
    x = factor_symmetric(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factor_multiple_rhs(rng):
    G = sparse.random(40, 40, density=0.2, random_state=3)
    A = (G @ G.T + 40 * sparse.eye(40)).tocsr()
    B = rng.standard_normal((40, 5))
    X = factor_symmetric(A).solve(B)
    assert np.linalg.norm(A @ X - B) <= 1e-10 * np.linalg.norm(B)


def test_factor_saddle_point(rng):
    # [A C^T; C 0] with full-rank C is indefinite but solvable
    G = sparse.random(30, 30, density=0.3, random_state=11)
    A = (G @ G.T + 30 * sparse.eye(30)).tocsr()
    C = sparse.random(5, 30, density=0.5, random_state=12).tocsr()
    S = sparse.bmat([[A, C.T], [C, None]], format="csr")
    b = rng.standard_normal(35)
    x = factor_symmetric(S).solve(b)
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factor_detects_singular():
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factor_symmetric(A)
    with pytest.raises(SingularMatrixError):
        factor_symmetric(sparse.csr_matrix((3, 3)))


def test_factor_rejects_nonsquare():
    with pytest.raises(ValueError):
        factor_symmetric(sparse.eye(3, 4, format="csr"))


def test_assembled_operators_symmetric(unit_domain):
    mesh = uniform_mesh(unit_domain, 8)
    ops = assemble_operators(mesh, Potential.harmonic())
    for A in (ops.K, ops.M, ops.MV, ops.A):
        scale = abs(A).max()
        assert abs(A - A.T).max() <= 1e-12 * scale


def test_factorization_right_inverse(rng):
    # factor-then-solve acts as a right inverse on random SPD and saddle systems
    for n, seed in ((120, 0), (200, 1)):
        G = sparse.random(n, n, density=0.05, random_state=seed)
        A = (G @ G.T + n * sparse.eye(n)).tocsr()
        C = sparse.random(n // 10, n, density=0.3, random_state=seed + 5).tocsr()
        S = sparse.bmat([[A, C.T], [C, None]], format="csr")
        for M in (A, S):
            b = rng.standard_normal(M.shape[0])
            x = factor_symmetric(M).solve(b)
            assert np.linalg.norm(M @ x - b) <= 1e-10 * np.linalg.norm(b)
