"""The standard symmetric spaces the tests use, built from their Gram matrices."""

from __future__ import annotations

import numpy as np

from monodromy.classical_groups import FormSpace
from monodromy.ff_linalg import Matrix


def dot(dim: int, p: int) -> FormSpace:
    """Standard symmetric space with the identity Gram matrix."""
    return FormSpace(Matrix.identity(dim, p), "symmetric")


def diagonal(dim: int, p: int, d: int) -> FormSpace:
    """Symmetric space with Gram matrix diag(1, ..., 1, d).

    With d a nonsquare (``nonsquare``) it has the other discriminant from
    ``dot``: the minus type in dimension 4, where ``dot`` is the plus type.
    """
    g = np.eye(dim, dtype=np.int64)
    g[-1, -1] = d
    return FormSpace(Matrix(g, p), "symmetric")


def nonsquare(p: int) -> int:
    """The least nonsquare mod the odd prime p."""
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def hyperbolic(dim: int, p: int) -> FormSpace:
    """Symmetric space of maximal Witt index, even ``dim``: <e_i, f_j> = delta_ij."""
    m = dim // 2
    g = np.zeros((dim, dim), dtype=np.int64)
    g[:m, m:] = np.eye(m, dtype=np.int64)
    g[m:, :m] = np.eye(m, dtype=np.int64)
    return FormSpace(Matrix(g, p), "symmetric")
