"""Middle convolution on punctured tuples of invertible matrices over F_p.

A tuple assigns one invertible matrix to each finite puncture; the matrix
at infinity is always derived so that the ordered product over all
punctures is the identity.  The convolution MC_lambda is realized as the
block construction on the r*n-dimensional space followed by the quotient
by its two canonical invariant subspaces.  The contract it must satisfy is
the local calculus: the output rank equals ``predict_rank`` and the
nontrivial Jordan blocks at each finite puncture transform by the block
map (for lambda != 1, unipotent blocks shrink by one and take eigenvalue
lambda, blocks with eigenvalue 1/lambda grow by one and become unipotent,
and the rest scale by lambda); a wrong-rank quotient is a hard error rather
than a silently wrong answer.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateQuotient, InvalidInput, NotInCategory
from .ff_linalg import (
    JordanData,
    Matrix,
    Subspace,
    _check_integer,
    _check_products,
    _check_type,
    _kernel_basis,
    jordan_type,
)

__all__ = [
    "Label",
    "PuncturedTuple",
    "middle_convolve",
    "predict_rank",
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
            raise InvalidInput(f"residue label {label} outside [0, {p})")
        return label
    if isinstance(label, str):
        if not label or label.isdigit() or label == INFINITY or any(c.isspace() for c in label):
            raise InvalidInput(f"bad symbolic label {label!r}")
        return label
    raise InvalidInput(f"labels are residues or symbols, got {type(label).__name__}")


class PuncturedTuple:
    """Ordered finite punctures with one invertible matrix each.

    The constructor normalizes the puncture order (residues ascending, then
    symbols in the order given) and derives the matrix at infinity as the
    inverse of the ordered product, so the product over all punctures
    including infinity is the identity by construction.
    """

    __slots__ = ("p", "rank", "punctures", "matrices", "infinity_matrix")

    def __init__(self, punctures: Sequence[Label], matrices: Sequence[Matrix]):
        punctures = list(_check_type(punctures, Iterable, "punctures"))
        matrices = list(_check_type(matrices, Iterable, "matrices"))
        if len(punctures) != len(matrices):
            raise InvalidInput("one matrix per puncture")
        if not punctures:
            raise InvalidInput("need at least one puncture")
        if not all(isinstance(m, Matrix) for m in matrices):
            raise InvalidInput("puncture matrices must each be a Matrix")
        p = matrices[0].p
        n = matrices[0].n
        if n == 0:
            raise InvalidInput("puncture matrices must be at least 1 x 1")
        labels = [_validate_label(lab, p) for lab in punctures]
        if len(set(labels)) != len(labels):
            raise InvalidInput("puncture labels repeat")
        for m in matrices:
            if m.p != p or m.n != n:
                raise InvalidInput("matrices must share size and modulus")
        order = _canonical_order(labels)
        labels = [labels[i] for i in order]
        mats = [matrices[i] for i in order]
        product = Matrix.identity(n, p)
        for m in mats:
            product = product @ m
        # a product is invertible exactly when every factor is
        try:
            infinity = product.inv()
        except InvalidInput:
            raise InvalidInput("puncture matrices must be invertible") from None
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "punctures", tuple(labels))
        object.__setattr__(self, "matrices", tuple(mats))
        object.__setattr__(self, "infinity_matrix", infinity)

    def __setattr__(self, name, value):
        raise AttributeError("PuncturedTuple is immutable")

    def __reduce__(self):
        # rebuilt like ``Matrix``: the constructor derives the infinity matrix again
        return PuncturedTuple, (self.punctures, self.matrices)

    def matrix_at(self, label: Label) -> Matrix:
        if label == INFINITY:
            return self.infinity_matrix
        if label not in self.punctures:
            raise InvalidInput(f"no puncture labelled {label!r}")
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
    """Rank of the convolution from local data alone, for lambda != 1.

    Sum over finite punctures of the codimension of the fixed space, minus
    the dimension of the fixed space of the infinity data tensored by
    lambda (the number of infinity blocks with eigenvalue 1/lambda).  At
    lambda = 1 it returns the same formula, which is not the rank of MC_1:
    that is the input rank n.  The rank-1 Kummer tuple at 0, 1, 2, 3 mod 5
    gives 3 here and 1 from ``middle_convolve(t, 1).rank``.
    """
    if not all(isinstance(d, JordanData) for d in [*finite, infinity]):
        raise InvalidInput("local data must each be JordanData")
    p = infinity.p
    lam = _check_integer(lam, "lambda") % p
    if lam == 0:
        raise InvalidInput("lambda must be nonzero")
    dims = {d.dim for d in finite} | {infinity.dim}
    if len(dims) != 1:
        raise InvalidInput("local data dimensions disagree across punctures")
    codims = sum(d.codim_fixed for d in finite)
    return codims - infinity.tensor(lam).fixed_dim


def _fixed_rows(t: PuncturedTuple, lam: int) -> np.ndarray:
    """A row basis of the common fixed space L of the B_k in F_p^(r*n).

    For lambda != 1, B_k v = v for every k exactly when v_k = A_(k+1)...A_r v_r
    for each k and A_infinity v_r = lambda v_r, so L is spanned by the rows
    (A_2...A_r c, ..., A_r c, c) for c in a basis of
    ker(lambda^-1 A_infinity - 1), and dim L is the dimension of that kernel.
    For lambda = 1 every row block of B_k - 1 is [A_1 - 1 | ... | A_r - 1],
    and L is the kernel of that n x r*n matrix.  The rows are independent;
    ``middle_convolve`` echelons them only against the blockwise kernels.
    """
    p = t.p
    lam = int(lam) % p
    n = t.rank
    eye_n = np.eye(n, dtype=np.int64)
    if lam == 1:
        return _kernel_basis(np.concatenate([m.array - eye_n for m in t.matrices], axis=1) % p, p)
    inf_shift = (pow(lam, -1, p) * t.infinity_matrix.array - eye_n) % p
    blocks = [_kernel_basis(inf_shift, p)]
    for m in t.matrices[:0:-1]:
        blocks.append(blocks[-1] @ m.array.T % p)
    return np.concatenate(blocks[::-1], axis=1)


def middle_convolve(t: PuncturedTuple, lam: int) -> PuncturedTuple:
    """The middle convolution MC_lambda of a punctured tuple.

    The block matrix B_k on the r*n-dimensional space is the identity off
    the k-th block row; on it, lambda(A_j - 1) for j < k, lambda A_k at
    j = k, and A_j - 1 for j > k (Dettweiler-Reiter, An algorithm of Katz
    and its application to the inverse Galois problem, 2000).  One r*n x r*n
    matrix E holds row block k of B_k - 1 as its row block k.  The common
    fixed space L of the B_k comes from n-dimensional data by the identity
    in ``_fixed_rows``: for lambda != 1 it is ker(lambda^-1 A_infinity - 1)
    carried up the tuple, for lambda = 1 the kernel of [A_1 - 1 | ... |
    A_r - 1].  The quotient is taken by L plus the blockwise kernels K of
    A_k - 1, held as one ``Subspace``: the canonical kernels, placed
    block-diagonally, are K in reduced echelon form, and ``Subspace.extend``
    adds L, so the only r*n-wide echelon form is of L's residue.  All
    r quotient matrices are one stacked projection of E onto its non-pivot
    coordinates.  The quotient
    dimension is checked against the local rank formula; a mismatch raises
    DegenerateQuotient.  Products on the r*n-dimensional space sum r*n
    terms of size (p-1)^2 in int64, so larger moduli raise InvalidInput.
    """
    p = _check_type(t, PuncturedTuple, "t").p
    lam = _check_integer(lam, "lambda") % p
    if lam == 0:
        raise InvalidInput("lambda must be nonzero")
    r = len(t.punctures)
    n = t.rank
    if n == 1 and t.nontrivial_count() < 2:
        raise NotInCategory(
            "rank-1 tuples need at least two nontrivial finite punctures"
        )
    big = r * n
    _check_products(big, p)
    eye_n = np.eye(n, dtype=np.int64)
    shifts = [(m.array - eye_n) % p for m in t.matrices]

    # E = rows of B_k - 1: lambda scales the blocks j <= k of row block k,
    # and lambda A_k - 1 = lambda (A_k - 1) + lambda - 1
    scale = np.where(np.tri(r, dtype=bool), lam, 1)
    e = scale[:, None, :, None] * np.stack(shifts, axis=1)[None]
    e = e.reshape(big, big)
    e.flat[:: big + 1] += lam - 1
    e %= p

    # blockwise kernels K of A_k - 1, each canonical in its own block, so
    # K is in reduced echelon form with its pivots the leading entries; the
    # junk space extends K by the common fixed space L of the B_k
    kernels = [_kernel_basis(s, p) for s in shifts]
    kernel_rows = np.zeros((sum(kb.shape[0] for kb in kernels), big), dtype=np.int64)
    at = 0
    for k, kb in enumerate(kernels):
        kernel_rows[at : at + kb.shape[0], k * n : (k + 1) * n] = kb
        at += kb.shape[0]
    fixed_rows = _fixed_rows(t, lam)
    # invariance under every B_k = 1 + E_k (theorem; cheap guard), checked
    # on the rows that span the junk space: E v = 0 for v in L, and
    # E v = (lambda - 1) v for v in K, so B_k multiplies the kernel in
    # block k by lambda and fixes the others
    images = np.concatenate([kernel_rows, fixed_rows]) @ e.T % p
    if images[len(kernel_rows) :].any():
        raise DegenerateQuotient("fixed space is not fixed")
    if ((images[: len(kernel_rows)] - (lam - 1) * kernel_rows) % p).any():
        raise DegenerateQuotient("quotient subspace is not invariant")
    kernel_pivots = (kernel_rows != 0).argmax(axis=1)
    junk = Subspace._from_rref(kernel_rows, kernel_pivots, big, p).extend(fixed_rows)

    # the quotient must see exactly the predicted dimension: the input rank
    # for the identity convolution, otherwise the local rank formula.  The
    # infinity term follows the generator orientation in which the finite
    # blocks transform by lambda: the lambda-eigenspace of the derived
    # infinity matrix is removed.  For the quadratic case lambda = -1 (all
    # packaged families) this is the same count as predict_rank.  dim L is
    # that eigenspace's dimension by construction, so for lambda != 1 the
    # check says that K and L meet in 0.
    if lam == 1:
        expected = n
    else:
        expected = big - kernel_rows.shape[0] - fixed_rows.shape[0]
    out_dim = big - junk.dim
    if out_dim != expected:
        raise DegenerateQuotient(
            f"quotient dimension {out_dim} != predicted rank {expected}"
        )
    if out_dim == 0:
        raise NotInCategory("convolution output collapses to rank 0")

    # B_k on the quotient, in the non-pivot coordinates C of the junk space:
    # 1 + E_k[C, C] - Q^T E_k[P, C] with P the pivots and Q = basis[:, C],
    # where E_k is row block k of E, zero elsewhere
    pivots = list(junk.pivots)
    free = np.ones(big, dtype=bool)
    free[pivots] = False
    row_block = np.arange(big) // n == np.arange(r)[:, None]
    cols = np.where(row_block[:, :, None], e[:, free], 0)
    q = junk.basis[:, free]
    eye_out = np.eye(out_dim, dtype=np.int64)
    out = (eye_out + cols[:, free] - q.T @ cols[:, pivots] % p) % p
    out_mats = [Matrix(m, p) for m in out]

    try:
        return PuncturedTuple(t.punctures, out_mats)
    except InvalidInput as exc:
        raise DegenerateQuotient(f"quotient matrices are degenerate: {exc}") from exc


def twist_quadratic(t: PuncturedTuple, points: Sequence[Label]) -> PuncturedTuple:
    """Quadratic twist at the given points.

    Existing punctures in the list get their matrix negated; new points are
    inserted with matrix -identity.  A puncture whose matrix becomes the
    identity (twisting a -identity point a second time) stops being a
    puncture and is dropped.  The matrix at infinity is re-derived and
    picks up a sign (-1)^(number of points).
    """
    _check_type(t, PuncturedTuple, "t")
    labels = [_validate_label(lab, t.p) for lab in _check_type(points, Iterable, "points")]
    if len(set(labels)) != len(labels):
        raise InvalidInput("twist points repeat")
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
