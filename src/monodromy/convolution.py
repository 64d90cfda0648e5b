"""Middle convolution on punctured tuples of invertible matrices over F_p.

A tuple assigns one invertible matrix to each finite puncture; the matrix
at infinity is always derived so that the ordered product over all
punctures is the identity.  The convolution MC_lambda is realized as the
block construction on the r*n-dimensional space followed by the quotient
by its two canonical invariant subspaces.  The contract it must satisfy is
the local calculus: the output rank equals ``predict_rank`` and the
nontrivial Jordan blocks at each finite puncture transform by
``map_local_jordan``; a wrong-rank quotient is a hard error rather than a
silently wrong answer.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .errors import DegenerateQuotient, NotInCategory
from .ff_linalg import (
    JordanData,
    Matrix,
    Subspace,
    _check_products,
    _kernel_basis,
    jordan_type,
)

__all__ = [
    "Label",
    "PuncturedTuple",
    "middle_convolve",
    "predict_rank",
    "map_local_jordan",
    "twist_quadratic",
    "INFINITY",
]

Label = Union[int, str]

INFINITY = "infinity"


def _canonical_order(punctures: Sequence[Label]) -> list[int]:
    """Sort key order: residue labels ascending, then symbols as given."""
    residues = [(lab, i) for i, lab in enumerate(punctures) if isinstance(lab, int)]
    symbols = [(lab, i) for i, lab in enumerate(punctures) if not isinstance(lab, int)]
    residues.sort(key=lambda t: t[0])
    return [i for _, i in residues] + [i for _, i in symbols]


def _validate_label(label: Label, p: int) -> Label:
    if isinstance(label, (int, np.integer)):
        label = int(label)
        if not 0 <= label < p:
            raise ValueError(f"residue label {label} outside [0, {p})")
        return label
    if isinstance(label, str):
        if not label or label.isdigit() or label == INFINITY or any(c.isspace() for c in label):
            raise ValueError(f"bad symbolic label {label!r}")
        return label
    raise TypeError(f"labels are residues or symbols, got {type(label).__name__}")


class PuncturedTuple:
    """Ordered finite punctures with one invertible matrix each.

    The constructor normalizes the puncture order (residues ascending, then
    symbols in the order given) and derives the matrix at infinity as the
    inverse of the ordered product, so the product over all punctures
    including infinity is the identity by construction.
    """

    __slots__ = ("p", "rank", "punctures", "matrices", "infinity_matrix")

    def __init__(self, punctures: Sequence[Label], matrices: Sequence[Matrix]):
        if len(punctures) != len(matrices):
            raise ValueError("one matrix per puncture")
        if not punctures:
            raise ValueError("need at least one puncture")
        p = matrices[0].p
        n = matrices[0].n
        labels = [_validate_label(lab, p) for lab in punctures]
        if len(set(labels)) != len(labels):
            raise ValueError("puncture labels repeat")
        for m in matrices:
            if m.p != p or m.n != n:
                raise ValueError("matrices must share size and modulus")
            if m.det() == 0:
                raise ValueError("puncture matrices must be invertible")
        order = _canonical_order(labels)
        labels = [labels[i] for i in order]
        mats = [matrices[i] for i in order]
        product = Matrix.identity(n, p)
        for m in mats:
            product = product @ m
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "punctures", tuple(labels))
        object.__setattr__(self, "matrices", tuple(mats))
        object.__setattr__(self, "infinity_matrix", product.inv())

    def __setattr__(self, name, value):
        raise AttributeError("PuncturedTuple is immutable")

    def matrix_at(self, label: Label) -> Matrix:
        if label == INFINITY:
            return self.infinity_matrix
        return self.matrices[self.punctures.index(label)]

    def local_data(self) -> dict[Label, JordanData]:
        """Jordan data at every puncture, infinity included."""
        data = {lab: jordan_type(m) for lab, m in zip(self.punctures, self.matrices)}
        data[INFINITY] = jordan_type(self.infinity_matrix)
        return data

    def nontrivial_count(self) -> int:
        return sum(1 for m in self.matrices if not m.is_identity())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PuncturedTuple)
            and self.p == other.p
            and self.rank == other.rank
            and self.punctures == other.punctures
            and self.matrices == other.matrices
        )

    def __hash__(self) -> int:
        return hash((self.p, self.punctures, self.matrices))

    def __repr__(self) -> str:
        return (
            f"PuncturedTuple(rank {self.rank}, punctures {list(self.punctures)},"
            f" F_{self.p})"
        )


def predict_rank(
    finite: Sequence[JordanData], infinity: JordanData, lam: int
) -> int:
    """Rank of the convolution from local data alone.

    Sum over finite punctures of the codimension of the fixed space, minus
    the dimension of the fixed space of the infinity data tensored by
    lambda (the number of infinity blocks with eigenvalue 1/lambda).
    """
    p = infinity.p
    lam = int(lam) % p
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    dims = {d.dim for d in finite} | {infinity.dim}
    if len(dims) != 1:
        raise ValueError("local data dimensions disagree across punctures")
    codims = sum(d.codim_fixed for d in finite)
    return codims - infinity.tensor(lam).fixed_dim


def map_local_jordan(data: JordanData, lam: int) -> JordanData:
    """Image of the nontrivial Jordan blocks under the convolution block map.

    For lambda = 1 the blocks are unchanged.  Otherwise unipotent blocks
    shrink by one and acquire eigenvalue lambda, blocks with eigenvalue
    1/lambda grow by one and become unipotent, and everything else is
    scaled by lambda.  Trivial blocks are bookkeeping handled by
    ``predict_rank``, not by this map.
    """
    p = data.p
    lam = int(lam) % p
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    nontrivial = data.nontrivial()
    if lam == 1:
        return nontrivial
    lam_inv = pow(lam, -1, p)
    out = []
    for eig, size in nontrivial.blocks:
        if eig == 1:
            out.append((lam, size - 1))
        elif eig == lam_inv:
            out.append((1, size + 1))
        else:
            out.append(((eig * lam) % p, size))
    return JordanData(out, p)


def middle_convolve(t: PuncturedTuple, lam: int) -> PuncturedTuple:
    """The middle convolution MC_lambda of a punctured tuple.

    The block matrix B_k on the r*n-dimensional space is the identity off
    the k-th block row; on it, lambda(A_j - 1) for j < k, lambda A_k at
    j = k, and A_j - 1 for j > k (Dettweiler-Reiter, An algorithm of Katz
    and its application to the inverse Galois problem, 2000).  One r*n x r*n
    matrix holds row block k of each B_k as its row block k, so the common
    fixed space of the B_k is the kernel of that matrix minus 1.  The
    quotient is taken by that space plus the blockwise kernels of A_k - 1,
    held as one ``Subspace``.  The quotient dimension is checked against
    the local rank formula; a mismatch raises DegenerateQuotient.  Products
    on the r*n-dimensional space sum r*n terms of size (p-1)^2 in int64, so
    larger moduli raise ValueError.
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
    eye_big = np.eye(big, dtype=np.int64)
    shifts = [(m.array - eye_n) % p for m in t.matrices]

    # row block k of B_k: lambda scales the blocks j <= k, and lambda A_k =
    # lambda (A_k - 1) + lambda
    scale = np.kron(np.where(np.tri(r, dtype=bool), lam, 1), np.ones((n, n), dtype=np.int64))
    rows = (scale * np.tile(np.concatenate(shifts, axis=1), (r, 1)) + lam * eye_big) % p

    # blockwise kernels of A_k - 1, embedded in the k-th block, and the
    # common fixed space of the B_k
    kernels = [_kernel_basis(s, p) for s in shifts]
    unit = np.eye(r, dtype=np.int64)
    kernel_rows = [np.kron(unit[k], v) for k, kb in enumerate(kernels) for v in kb]
    fixed_rows = list(_kernel_basis((rows - eye_big) % p, p))
    junk = Subspace(kernel_rows + fixed_rows, big, p)

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
    out_dim = big - junk.dim
    if out_dim != expected:
        raise DegenerateQuotient(
            f"quotient dimension {out_dim} != predicted rank {expected}"
        )
    if out_dim == 0:
        raise NotInCategory("convolution output collapses to rank 0")

    coords = [j for j in range(big) if j not in junk.pivots]
    out_mats = []
    for k in range(r):
        b = eye_big.copy()
        b[k * n : (k + 1) * n] = rows[k * n : (k + 1) * n]
        # invariance of the junk space under B_k (theorem; cheap guard)
        if junk.reduce(junk.basis @ b.T).any():
            raise DegenerateQuotient("quotient subspace is not invariant")
        cols = junk.reduce(b[:, coords].T)
        out_mats.append(Matrix(cols[:, coords].T, p))

    try:
        return PuncturedTuple(t.punctures, out_mats)
    except ValueError as exc:
        raise DegenerateQuotient(f"quotient matrices are degenerate: {exc}") from exc


def twist_quadratic(t: PuncturedTuple, points: Sequence[Label]) -> PuncturedTuple:
    """Quadratic twist at the given points.

    Existing punctures in the list get their matrix negated; new points are
    inserted with matrix -identity.  A puncture whose matrix becomes the
    identity (twisting a -identity point a second time) stops being a
    puncture and is dropped.  The matrix at infinity is re-derived and
    picks up a sign (-1)^(number of points).
    """
    labels = [_validate_label(lab, t.p) for lab in points]
    if len(set(labels)) != len(labels):
        raise ValueError("twist points repeat")
    new_punctures = list(t.punctures)
    new_matrices = [m for m in t.matrices]
    minus_one = -Matrix.identity(t.rank, t.p)
    for lab in labels:
        if lab in new_punctures:
            i = new_punctures.index(lab)
            new_matrices[i] = -new_matrices[i]
            if new_matrices[i].is_identity():
                del new_punctures[i]
                del new_matrices[i]
        else:
            new_punctures.append(lab)
            new_matrices.append(minus_one)
    return PuncturedTuple(new_punctures, new_matrices)
