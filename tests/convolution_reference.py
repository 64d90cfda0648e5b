"""Slow constructions that ``monodromy.convolution`` replaced, kept as test oracles.

``reference_middle_convolve`` is ``middle_convolve`` as it was before it
read the common fixed space of the B_k off one r*n x r*n matrix: it stacks
every B_k - 1 into an (r^2 n x r n) system and reduces against a
hand-built echelon basis of the junk space.  ``reference_fixed_space`` is
that one-matrix construction of the fixed space, from before it came from
n-dimensional data.  Tests compare the library against both; the library
does not import them.
"""

from __future__ import annotations

import numpy as np

from monodromy.convolution import PuncturedTuple
from monodromy.errors import DegenerateQuotient, NotInCategory
from monodromy.ff_linalg import Matrix, _check_products, _echelon_reduce, _kernel_basis, _rref


def reference_fixed_space(t: PuncturedTuple, lam: int) -> np.ndarray:
    """A row basis of the common fixed space of the B_k in F_p^(r*n).

    One r*n x r*n matrix holds row block k of each B_k as its row block k,
    and the fixed space is the kernel of that matrix minus 1.
    """
    p = t.p
    lam = int(lam) % p
    r = len(t.punctures)
    n = t.rank
    big = r * n
    eye_n = np.eye(n, dtype=np.int64)
    eye_big = np.eye(big, dtype=np.int64)
    shifts = [(m.array - eye_n) % p for m in t.matrices]
    scale = np.kron(np.where(np.tri(r, dtype=bool), lam, 1), np.ones((n, n), dtype=np.int64))
    rows = (scale * np.tile(np.concatenate(shifts, axis=1), (r, 1)) + lam * eye_big) % p
    return _kernel_basis((rows - eye_big) % p, p)


def reference_middle_convolve(t: PuncturedTuple, lam: int) -> PuncturedTuple:
    """The middle convolution MC_lambda of a punctured tuple.

    Builds the block matrices B_k on the r*n-dimensional space (identity
    off the k-th block row; on it, lambda(A_j - 1) for j < k, lambda A_k at
    j = k, and A_j - 1 for j > k), then quotients by the blockwise kernels
    of A_k - 1 and the common fixed space of the B_k.  The quotient
    dimension is checked against the local rank formula; a mismatch raises
    DegenerateQuotient.  Products on the r*n-dimensional space sum r*n terms
    of size (p-1)^2 in int64, so larger moduli raise ValueError.
    """
    p = t.p
    lam = int(lam) % p
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    r = len(t.punctures)
    n = t.rank
    if n == 1 and t.nontrivial_count() < 2:
        raise NotInCategory(
            "rank-1 tuples need at least two nontrivial finite punctures"
        )
    big = r * n
    _check_products(big, p)
    eye_n = np.eye(n, dtype=np.int64)
    arrays = [m.array for m in t.matrices]

    blocks = []
    for k in range(r):
        b = np.eye(big, dtype=np.int64)
        row = slice(k * n, (k + 1) * n)
        for j in range(r):
            col = slice(j * n, (j + 1) * n)
            if j < k:
                b[row, col] = (lam * (arrays[j] - eye_n)) % p
            elif j == k:
                b[row, col] = (lam * arrays[k]) % p
            else:
                b[row, col] = (arrays[j] - eye_n) % p
        blocks.append(b)

    # blockwise kernels of A_k - 1, embedded in the k-th block
    kernels = [_kernel_basis((a - eye_n) % p, p) for a in arrays]
    unit = np.eye(r, dtype=np.int64)
    kernel_rows = [np.kron(unit[k], v) for k, kb in enumerate(kernels) for v in kb]

    # common fixed space of the B_k
    stacked = np.concatenate([(b - np.eye(big, dtype=np.int64)) % p for b in blocks])
    fixed_rows = list(_kernel_basis(stacked, p))

    junk = kernel_rows + fixed_rows
    if junk:
        junk_basis, pivots = _rref(np.stack(junk), p)
        junk_basis = junk_basis[: len(pivots)]
    else:
        junk_basis = np.zeros((0, big), dtype=np.int64)
        pivots = ()

    # the quotient must see exactly the predicted dimension: the input rank
    # for the identity convolution, otherwise the local rank formula.  The
    # infinity term follows the generator orientation in which the finite
    # blocks transform by lambda: the lambda-eigenspace of the derived
    # infinity matrix is removed.  For the quadratic case lambda = -1 (all
    # packaged families) this is the same count as predict_rank.
    if lam == 1:
        expected = n
    else:
        expected = sum(n - kb.shape[0] for kb in kernels)
        inf_shift = (pow(lam, -1, p) * t.infinity_matrix.array - eye_n) % p
        expected -= _kernel_basis(inf_shift, p).shape[0]
    out_dim = big - junk_basis.shape[0]
    if out_dim != expected:
        raise DegenerateQuotient(
            f"quotient dimension {out_dim} != predicted rank {expected}"
        )
    if out_dim == 0:
        raise NotInCategory("convolution output collapses to rank 0")

    pivot_set = set(pivots)
    coords = [j for j in range(big) if j not in pivot_set]

    out_mats = []
    for b in blocks:
        # invariance of the junk space under B_k (theorem; cheap guard)
        if _echelon_reduce(junk_basis @ b.T, junk_basis, pivots, p).any():
            raise DegenerateQuotient("quotient subspace is not invariant")
        cols = _echelon_reduce(b[:, coords].T, junk_basis, pivots, p)
        out_mats.append(Matrix(cols[:, coords].T, p))

    try:
        return PuncturedTuple(t.punctures, out_mats)
    except ValueError as exc:
        raise DegenerateQuotient(f"quotient matrices are degenerate: {exc}") from exc
