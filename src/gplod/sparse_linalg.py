"""Sparse storage and the direct factorization used by assembly and solvers.

Matrices are scipy CSR; the direct factorization wraps SuperLU (fill-reducing
COLAMD ordering, partial pivoting), which handles SPD and symmetric
indefinite matrices alike and is reused across many right-hand sides.
"""

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

__all__ = [
    "SingularMatrixError",
    "assemble_from_triplets",
    "Factorization",
    "factor_symmetric",
]

# relative zero-pivot threshold for declaring a factorization singular
_PIVOT_RTOL = 1e-14


class SingularMatrixError(ArithmeticError):
    """Factorization hit a (near-)zero pivot."""


def assemble_from_triplets(nrows, ncols, rows, cols=None, values=None):
    """CSR matrix from COO triplets; duplicate entries are summed.

    Accepts either three parallel arrays or a single iterable of
    (i, j, value) tuples.  The result is independent of triplet order.
    """
    if cols is None:
        trip = list(rows)
        if trip:
            rows, cols, values = (np.asarray(t) for t in zip(*trip))
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            values = np.zeros(0)
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


class Factorization:
    """Direct factorization of a square, structurally symmetric sparse matrix.

    Solves are reusable for many right-hand sides (1D or stacked columns)
    without refactoring; safe for concurrent solves on distinct buffers.
    """

    def __init__(self, A):
        A = sparse.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix not square: {A.shape}")
        pattern = A != 0
        if (pattern != pattern.T).nnz != 0:
            raise ValueError("matrix not structurally symmetric")
        self.shape = A.shape
        scale = abs(A).max() if A.nnz else 0.0
        if scale == 0.0:
            raise SingularMatrixError("zero matrix")
        try:
            self._lu = sparse_linalg.splu(A)
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularMatrixError(str(exc)) from exc
        pivots = np.abs(self._lu.U.diagonal())
        if pivots.min() <= _PIVOT_RTOL * scale:
            raise SingularMatrixError(
                f"near-zero pivot {pivots.min():.3e} (matrix scale {scale:.3e})"
            )

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"rhs length {b.shape[0]} != {self.shape[0]}")
        return self._lu.solve(b)


def factor_symmetric(A):
    """Factor a structurally symmetric (possibly indefinite) sparse matrix."""
    return Factorization(A)

