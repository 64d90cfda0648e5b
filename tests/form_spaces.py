"""The standard symmetric spaces the tests use, built from their Gram matrices."""

from __future__ import annotations

import numpy as np

from monodromy.classical_groups import FormSpace
from monodromy.ff_linalg import Matrix


def dot(dim: int, p: int) -> FormSpace:
    """Standard symmetric space with the identity Gram matrix."""
    return FormSpace(Matrix.identity(dim, p), "symmetric")


def hyperbolic(dim: int, p: int) -> FormSpace:
    """Symmetric space of maximal Witt index, even ``dim``: <e_i, f_j> = delta_ij."""
    m = dim // 2
    g = np.zeros((dim, dim), dtype=np.int64)
    g[:m, m:] = np.eye(m, dtype=np.int64)
    g[m:, :m] = np.eye(m, dtype=np.int64)
    return FormSpace(Matrix(g, p), "symmetric")
