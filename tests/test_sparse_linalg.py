import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import linalg as dense_linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from gplod.fem_core import Potential, assemble_operators
from gplod.mesh import uniform_mesh
from gplod.sparse_linalg import Factorization, SingularMatrixError, spd_solver

# the triplet assembly behind the tests' full-node reference matrices
from helpers import assemble_from_triplets


def _factor(A):
    """Factorization in the natural order, for matrices without a mesh."""
    return Factorization(A, np.arange(A.shape[0]))


def test_triplets_duplicates_summed():
    A = assemble_from_triplets(2, 2, [0, 0], [0, 0], [1.0, 2.0])
    assert A[0, 0] == 3.0
    assert A.nnz == 1


def test_triplets_empty():
    A = assemble_from_triplets(3, 4, [], [], [])
    assert A.shape == (3, 4)
    assert A.nnz == 0


def test_triplets_symmetric_pattern():
    A = assemble_from_triplets(2, 2, [0, 1], [1, 0], [5.0, 5.0])
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
        assemble_from_triplets(2, 2, [2], [0], [1.0])
    with pytest.raises(IndexError):
        assemble_from_triplets(2, 2, [0], [-1], [1.0])


def test_factor_diagonal():
    A = sparse.diags([2.0, 3.0]).tocsr()
    x = _factor(A).solve(np.array([2.0, 3.0]))
    assert np.abs(x - 1.0).max() <= 1e-14


def test_factor_indefinite_permutation():
    # solvable by a row interchange, but not positive definite
    A = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        _factor(A)


def test_factor_rejects_negative_pivot():
    A = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        _factor(A)


def test_factor_rejects_bad_ordering():
    A = sparse.eye(3, format="csr")
    for ordering in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError, match="permutation"):
            Factorization(A, ordering)


def test_factor_random_spd(rng):
    G = sparse.random(50, 50, density=0.2, random_state=7)
    A = (G @ G.T + 50 * sparse.eye(50)).tocsr()
    b = rng.standard_normal(50)
    x = _factor(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factor_multiple_rhs(rng):
    G = sparse.random(40, 40, density=0.2, random_state=3)
    A = (G @ G.T + 40 * sparse.eye(40)).tocsr()
    B = rng.standard_normal((40, 5))
    X = _factor(A).solve(B)
    assert np.linalg.norm(A @ X - B) <= 1e-10 * np.linalg.norm(B)


def test_dense_solver_matches_cho_solve(rng):
    # the dense path solves with the one checked factor, as scipy would
    G = rng.standard_normal((60, 60))
    H = G @ G.T + 60 * np.eye(60)
    solve = spd_solver(H)
    factor = dense_linalg.cho_factor(H)
    for rhs in (rng.standard_normal(60), rng.standard_normal((60, 7))):
        x = solve(rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, dense_linalg.cho_solve(factor, rhs))


def test_dense_solver_rejects_indefinite():
    # the dense path raises the sparse path's error, chained from scipy's
    H = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularMatrixError, match="not positive definite") as info:
        spd_solver(H)
    assert isinstance(info.value.__cause__, dense_linalg.LinAlgError)


def test_dense_solver_rejects_non_finite(rng):
    G = rng.standard_normal((20, 20))
    H = G @ G.T + 20 * np.eye(20)
    bad = H.copy()
    bad[3, 5] = bad[5, 3] = np.nan
    with pytest.raises(ValueError):
        spd_solver(bad)
    solve = spd_solver(H)
    rhs = rng.standard_normal(20)
    rhs[7] = np.nan
    with pytest.raises(ValueError):
        solve(rhs)
    rhs[7] = np.inf
    with pytest.raises(ValueError):
        solve(rhs[:, None])


def test_factor_saddle_point():
    # [A C^T; C 0] with full-rank C is indefinite: rejected
    G = sparse.random(30, 30, density=0.3, random_state=11)
    A = (G @ G.T + 30 * sparse.eye(30)).tocsr()
    C = sparse.random(5, 30, density=0.5, random_state=12).tocsr()
    S = sparse.bmat([[A, C.T], [C, None]], format="csr")
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        _factor(S)


def test_factor_detects_singular():
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        _factor(A)
    with pytest.raises(SingularMatrixError):
        _factor(sparse.csr_matrix((3, 3)))


def test_factor_rejects_nonsquare():
    with pytest.raises(ValueError):
        _factor(sparse.eye(3, 4, format="csr"))


def test_assembled_operators_symmetric(unit_domain):
    mesh = uniform_mesh(unit_domain, 8)
    ops = assemble_operators(mesh, Potential.harmonic())
    for A in (ops.K, ops.M, ops.MV, ops.A):
        scale = abs(A).max()
        assert abs(A - A.T).max() <= 1e-12 * scale


def test_factorization_right_inverse(rng):
    # factor-then-solve acts as a right inverse on random SPD systems; their
    # saddle systems are rejected
    for n, seed in ((120, 0), (200, 1)):
        G = sparse.random(n, n, density=0.05, random_state=seed)
        A = (G @ G.T + n * sparse.eye(n)).tocsr()
        C = sparse.random(n // 10, n, density=0.3, random_state=seed + 5).tocsr()
        S = sparse.bmat([[A, C.T], [C, None]], format="csr")
        b = rng.standard_normal(A.shape[0])
        x = _factor(A).solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            _factor(S)


@pytest.mark.parametrize("matrix", ["A", "M/tau+A"])
def test_ordered_solve_matches_colamd(trap_domain, matrix, rng):
    # nested-dissection, pivot-free solves against SuperLU's COLAMD default
    ops = assemble_operators(uniform_mesh(trap_domain, 48), Potential.harmonic())
    H = ops.A if matrix == "A" else ops.M / 0.5 + ops.A
    fac = Factorization(H, ops.ordering)
    reference = splu(H.tocsc())
    block = sparse.random(ops.n_dofs, 8, density=0.05, format="csc", random_state=3)
    for b in (rng.standard_normal(ops.n_dofs), rng.standard_normal((ops.n_dofs, 8)), block):
        expected = reference.solve(b.toarray() if sparse.issparse(b) else b)
        x = fac.solve(b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_nbytes_counts_the_cached_l_and_u_copies(trap_domain):
    # reading the pivots made scipy build and cache CSC copies of both L and
    # U; reading them again allocates nothing, and nbytes counts both
    ops = assemble_operators(uniform_mesh(trap_domain, 24), Potential.harmonic())
    fac = Factorization(ops.A, ops.ordering)
    lu = fac._lu
    assert lu.L is lu.L and lu.U is lu.U
    copies = sum(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes for X in (lu.L, lu.U))
    assert fac.nbytes == 12 * lu.nnz + copies + fac._order.nbytes


def _on_two_threads(tasks, rounds=5):
    """Results of each round of running the two ``tasks`` at once, released
    together by a barrier."""
    barrier = threading.Barrier(2)

    def run(task):
        barrier.wait()
        return task()

    with ThreadPoolExecutor(max_workers=2) as pool:
        return [[f.result() for f in [pool.submit(run, t) for t in tasks]] for _ in range(rounds)]


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_concurrent_factorizations_and_solves_match_sequential(storage, trap_domain, rng):
    # a study factors and solves on several threads at once: two threads
    # factoring and solving with two different SPD matrices, and two threads
    # sharing one factor, reproduce the sequential results bit for bit
    if storage == "sparse":
        ops = assemble_operators(uniform_mesh(trap_domain, 48), Potential.harmonic())
        matrices, ordering = [ops.A, ops.M / 0.5 + ops.A], ops.ordering
    else:  # full m x m matrices, as in an LOD flow
        ordering = None
        matrices = [G @ G.T + 400 * np.eye(400) for G in rng.standard_normal((2, 400, 400))]
    rhs = [rng.standard_normal((H.shape[0], 8)) for H in matrices]

    def factor_and_solve(i):
        return lambda: spd_solver(matrices[i], ordering)(rhs[i])

    shared = spd_solver(matrices[0], ordering)

    def shared_solve(i):
        return lambda: shared(rhs[i])

    for make in (factor_and_solve, shared_solve):
        expected = [make(i)() for i in range(2)]
        for results in _on_two_threads([make(0), make(1)]):
            assert all(np.array_equal(x, e) for x, e in zip(results, expected))
