"""Exact dense linear algebra over a prime field F_p.

Everything is integer arithmetic modulo an odd prime; there is no floating
point anywhere.  Matrices and subspaces are held in numpy int64 arrays.
Determinants, and echelon forms of inputs with fewer than ``_SMALL_ENTRIES``
entries, are computed on lists of Python ints, where numpy's per-call cost
would outweigh the arithmetic; larger echelon forms use a numpy loop, and
both give the same int64 arrays.  Matrices are immutable and hashable so
they can be used as dict keys and set members (group closures,
orbit transversals).  Subspaces are kept in reduced row echelon form, so
subspace equality is representation equality.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidInput, NonSplitSpectrum

__all__ = [
    "is_prime",
    "Matrix",
    "Subspace",
    "JordanData",
    "jordan_type",
    "invariant_forms",
]


def _least_factor(m: int, bound: int) -> int:
    """The least divisor 2 <= d <= bound of m with d^2 <= m, or m if there is none."""
    d = 2
    while d <= bound and d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def is_prime(n: int) -> bool:
    n = _check_integer(n, "n")
    return n >= 2 and _least_factor(n, n) == n


@lru_cache(maxsize=None)
def _prime_factors(m: int) -> tuple[int, ...]:
    """The distinct prime factors of the positive integer m, ascending, once per m."""
    factors = []
    while m > 1:
        q = _least_factor(m, m)
        factors.append(q)
        while m % q == 0:
            m //= q
    return tuple(factors)


def _check_integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int, or InvalidInput unless it is an ``int`` or numpy integer >= ``least``.

    Floats, strings and other types are refused, never truncated.
    """
    if isinstance(value, (int, np.integer)) and (least is None or value >= least):
        return int(value)
    bound = "" if least is None else f" >= {least}"
    raise InvalidInput(f"{name} must be an integer{bound}, got {value!r}")


def _check_type(value, kind: type, name: str):
    """``value``, or InvalidInput unless it is a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidInput(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def _check_modulus(p: int) -> int:
    """``p`` as an int, or InvalidInput; the type is checked here, as the cache takes 5.0 for 5."""
    return _checked_modulus(_check_integer(p, "modulus"))


@lru_cache(maxsize=None)
def _checked_modulus(p: int) -> int:
    """``_check_modulus`` of an integer: int64 range first, then primality, once per modulus."""
    p = int(p)
    _check_products(1, p)
    if p < 3 or not is_prime(p):
        raise InvalidInput(f"modulus must be an odd prime >= 3, got {p}")
    return p


def _check_products(size: int, p: int) -> None:
    """Reject a modulus whose int64 products of ``size`` terms could overflow."""
    if size * (p - 1) ** 2 >= 2**63:
        raise InvalidInput(f"modulus {p} is too large for exact int64 products of size {size}")


def _codes(vecs: np.ndarray, p: int) -> np.ndarray:
    """The code sum(v_i p^i) of each int64 vector (last axis); the caller keeps p^n < 2^63."""
    return vecs @ p ** np.arange(vecs.shape[-1], dtype=np.int64)


def _vectors(codes: np.ndarray, n: int, p: int) -> np.ndarray:
    """The int64 vectors of F_p^n (rows) with the given codes: the inverse of ``_codes``."""
    rest = np.asarray(codes, dtype=np.int64)
    out = np.empty((rest.size, n), dtype=np.int64)
    for k in range(n):
        rest, out[:, k] = np.divmod(rest, p)
    return out


# ---------------------------------------------------------------------------
# array-level routines (int64 arrays, entries reduced mod p)

# Inputs with fewer entries than this are eliminated on lists of Python
# ints; larger ones by the numpy loop, whose ~13 array calls per pivot cost
# more than the arithmetic on a small matrix.  Median time per ``_rref``
# call on random matrices mod 5 (2-CPU x86 host), numpy loop against Python
# ints: 2x2 38 / 10 us, 4x4 72 / 19 us, 5x5 101 / 43 us, 8x16 207 / 136 us,
# 13x13 345 / 309 us, 20x20 538 / 951 us, 64x64 3.2 / 18.2 ms.  The two
# cross between 160 and 200 entries mod 5 and 7.  ``_det`` always runs on
# Python ints: its inputs are n x n for n the rank of a tuple, generator or
# form, at most 14 rows on the benchmark's workloads.
_SMALL_ENTRIES = 160


def _eliminate(r: list[list[int]], p: int, full: bool) -> tuple[list[int], int]:
    """Gaussian elimination mod ``p``, in place, on rows of residues.

    Each pivot row is scaled to a leading 1 and cleared from the rows below
    it, and from the rows above it too when ``full``, which leaves ``r`` in
    reduced row echelon form.  Returns the pivot columns and the product of
    the pivots, negated once per row swap, mod ``p``: the determinant of a
    square ``r`` of full rank.
    """
    nrows = len(r)
    ncols = len(r[0]) if nrows else 0
    pivots = []
    det = 1
    for j in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        for i in range(rank, nrows):
            if r[i][j]:
                break
        else:
            continue
        if i != rank:
            r[i], r[rank] = r[rank], r[i]
            det = -det
        piv = r[rank][j]
        det = det * piv % p
        inv = pow(piv, -1, p)
        row = r[rank] = [x * inv % p for x in r[rank]]
        for k in range(0 if full else rank + 1, nrows):
            f = r[k][j]
            if f and k != rank:
                r[k] = [(x - f * y) % p for x, y in zip(r[k], row)]
        pivots.append(j)
    return pivots, det % p


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of ``a`` mod ``p``."""
    r = np.array(a, dtype=np.int64) % p
    if r.size < _SMALL_ENTRIES:
        ints = r.tolist()
        pivots, _ = _eliminate(ints, p, full=True)
        return np.array(ints, dtype=np.int64).reshape(r.shape), tuple(pivots)
    rows, cols = r.shape
    pivots = []
    rank = 0
    for j in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(r[rank:, j])[0]
        if nz.size == 0:
            continue
        i = rank + int(nz[0])
        if i != rank:
            r[[rank, i]] = r[[i, rank]]
        inv = pow(int(r[rank, j]), -1, p)
        r[rank] = (r[rank] * inv) % p
        others = np.nonzero(r[:, j])[0]
        others = others[others != rank]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, j], r[rank])) % p
        pivots.append(j)
        rank += 1
    return r, tuple(pivots)


def _echelon_reduce(
    vecs: np.ndarray, rows: np.ndarray, pivots: Sequence[int], p: int
) -> np.ndarray:
    """Residues mod ``p`` of the vectors (last axis) of ``vecs``, pivots cleared.

    ``rows`` is a reduced echelon basis: row k has a 1 in column ``pivots[k]``
    and every other row a 0 there, so one product, of len(pivots) terms of
    size (p-1)^2, subtracts the projection on their span.
    """
    v = np.asarray(vecs, dtype=np.int64) % p
    return (v - v[..., pivots] @ rows) % p


def _rank(a: np.ndarray, p: int) -> int:
    return len(_rref(a, p)[1])


def _kernel_rows(a: np.ndarray, p: int) -> np.ndarray:
    """A basis of the right kernel {x : a x = 0} from one ``_rref``, rows are solutions.

    Row i is the solution with a 1 in the i-th free column and 0 in the
    other free columns; it is not in reduced echelon form, so it suits a
    caller that echelons the rows anyway.
    """
    r, pivots = _rref(a, p)
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    if free:
        basis[np.arange(len(free)), free] = 1
        basis[:, list(pivots)] = (-r[: len(pivots), free].T) % p
    return basis


def _kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of the right kernel {x : a x = 0}, rows are solutions.

    The rows of ``_kernel_rows``, canonicalized so that equality of kernels
    is equality of arrays.
    """
    basis = _kernel_rows(a, p)
    return _rref(basis, p)[0] if len(basis) else basis


def _solve(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """A solution x of a x = b mod ``p``, column by column, with every free variable 0.

    None when some column of the matrix ``b`` lies outside the column span of ``a``.
    """
    k = a.shape[1]
    reduced, pivots = _rref(np.concatenate([a, b], axis=1), p)
    if pivots and pivots[-1] >= k:
        return None
    x = np.zeros((k, b.shape[1]), dtype=np.int64)
    x[list(pivots)] = reduced[: len(pivots), k:]
    return x


def _inv(a: np.ndarray, p: int) -> np.ndarray:
    x = _solve(a, np.eye(a.shape[0], dtype=np.int64), p)
    if x is None:
        raise InvalidInput("matrix is singular")
    return x


def _det(a: np.ndarray, p: int) -> int:
    """Determinant of the square ``a`` mod ``p``, by elimination on Python ints."""
    m = np.array(a, dtype=np.int64) % p
    pivots, det = _eliminate(m.tolist(), p, full=False)
    return det if len(pivots) == m.shape[0] else 0


# ---------------------------------------------------------------------------


# the builtin int64 dtype is a singleton: entries of that dtype skip the checks
_INT64 = np.dtype(np.int64)
_INT64_MAX = np.iinfo(np.int64).max


def _int64_entries(entries, name: str) -> np.ndarray:
    """``entries`` as an int64 array, or InvalidInput unless they are integers or booleans fitting in int64."""
    arr = np.asarray(entries)
    if arr.dtype is not _INT64:
        kind = arr.dtype.kind
        if arr.size and (kind not in "iub" or (kind == "u" and arr.max() > _INT64_MAX)):
            raise InvalidInput(f"{name} entries must be integers that fit in int64, not {arr.dtype}")
        arr = arr.astype(np.int64)
    return arr


def _int64_rows(entries, ambient: int, name: str) -> np.ndarray:
    """``entries`` as int64 rows of length ``ambient``, or InvalidInput (see ``_int64_entries``)."""
    arr = _int64_entries(entries, name)
    if arr.size % ambient:
        raise InvalidInput(f"{name} must be rows of length {ambient}, got shape {arr.shape}")
    return arr.reshape(-1, ambient)


class Matrix:
    """An immutable matrix over F_p.

    Entries are reduced into [0, p).  Arithmetic (``@``, ``+``, ``-``,
    integer ``*``, ``**``) stays exact; ``**`` accepts negative exponents
    for invertible matrices.  A product sums up to max(rows, cols) terms
    of size (p-1)^2 in int64, so larger moduli are rejected.  Entries that
    are not integers or booleans fitting in int64 raise InvalidInput.
    """

    __slots__ = ("array", "p", "_det")

    def __init__(self, entries, p: int):
        p = _check_modulus(p)
        arr = _int64_entries(entries, "matrix")
        if arr.ndim != 2:
            raise InvalidInput("matrix entries must be two-dimensional")
        _check_products(max(arr.shape), p)
        arr = arr % p
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the default slot
        # restore writes through ``__setattr__``, which refuses
        return Matrix, (self.array, self.p)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int, p: int) -> "Matrix":
        return Matrix(np.eye(_check_integer(n, "n", least=0), dtype=np.int64), p)

    @staticmethod
    def zeros(rows: int, cols: int, p: int) -> "Matrix":
        shape = _check_integer(rows, "rows", least=0), _check_integer(cols, "cols", least=0)
        return Matrix(np.zeros(shape, dtype=np.int64), p)

    @staticmethod
    def scalar(c: int, n: int, p: int) -> "Matrix":
        return Matrix(np.eye(_check_integer(n, "n", least=0), dtype=np.int64) * (c % p), p)

    @staticmethod
    def diagonal(entries: Sequence[int], p: int) -> "Matrix":
        return Matrix(np.diag(_int64_entries(entries, "diagonal")), p)

    # -- shape -------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def n(self) -> int:
        if self.rows != self.cols:
            raise InvalidInput("matrix is not square")
        return self.rows

    @property
    def T(self) -> "Matrix":
        return Matrix(self.array.T, self.p)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: "Matrix", op: str) -> None:
        if not isinstance(other, Matrix):
            raise InvalidInput(f"expected Matrix, got {type(other).__name__}")
        if other.p != self.p:
            raise InvalidInput("mixed moduli")
        if (self.cols != other.rows) if op == "@" else (self.array.shape != other.array.shape):
            raise InvalidInput(f"shapes {self.rows}x{self.cols} {op} {other.rows}x{other.cols} do not match")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._coerce(other, "@")
        return Matrix(self.array @ other.array, self.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._coerce(other, "+")
        return Matrix(self.array + other.array, self.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._coerce(other, "-")
        return Matrix(self.array - other.array, self.p)

    def __neg__(self) -> "Matrix":
        return Matrix(-self.array, self.p)

    def __mul__(self, c: int) -> "Matrix":
        if not isinstance(c, (int, np.integer)):
            return NotImplemented
        return Matrix(self.array * (int(c) % self.p), self.p)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Matrix":
        k = _check_integer(k, "exponent")
        n = self.n
        if k < 0:
            return self.inv() ** (-k)
        result = np.eye(n, dtype=np.int64)
        base = self.array
        while k:
            if k & 1:
                result = (result @ base) % self.p
            base = (base @ base) % self.p
            k >>= 1
        return Matrix(result, self.p)

    # -- queries -------------------------------------------------------------

    def det(self) -> int:
        """The determinant mod p, eliminated on the first call and kept in the ``_det`` slot.

        The slot is filled with ``object.__setattr__`` and is not part of
        ``__eq__`` or ``__hash__``.  Two threads that race on the first call
        both store the same int, so the race is harmless.
        """
        det = getattr(self, "_det", None)
        if det is None:
            det = _det(self.array, self.p)
            object.__setattr__(self, "_det", det)
        return det

    def inv(self) -> "Matrix":
        if self.rows != self.cols:  # a wide matrix may have right inverses
            raise InvalidInput("matrix is not square")
        return Matrix(_inv(self.array, self.p), self.p)

    def rank(self) -> int:
        return _rank(self.array, self.p)

    def is_identity(self) -> bool:
        return self.rows == self.cols and bool(
            np.array_equal(self.array, np.eye(self.rows, dtype=np.int64))
        )

    def is_zero(self) -> bool:
        return not self.array.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(int(x)) for x in row) for row in self.array)
        return f"Matrix([{rows}] mod {self.p})"


class Subspace:
    """A subspace of F_p^n stored as an RREF row basis (canonical form)."""

    __slots__ = ("ambient", "p", "basis", "pivots")

    def __init__(self, basis, ambient: int, p: int):
        p = _check_modulus(p)
        ambient = _check_integer(ambient, "ambient", least=1)
        _check_products(ambient, p)
        arr = _int64_rows(basis, ambient, "subspace basis") % p
        reduced, pivots = _rref(arr, p)
        self._set(reduced[: len(pivots)], pivots, ambient, p)

    def _set(self, reduced: np.ndarray, pivots: tuple[int, ...], ambient: int, p: int) -> None:
        reduced.setflags(write=False)
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "basis", reduced)
        object.__setattr__(self, "pivots", pivots)

    @classmethod
    def _from_rref(
        cls, reduced: np.ndarray, pivots: Sequence[int], ambient: int, p: int
    ) -> "Subspace":
        """The span of rows the caller guarantees are a reduced echelon basis with these pivots.

        Same modulus and int64 guards as the constructor, but no ``_rref``.
        An int64 array is kept as it is, made read-only, not copied.
        """
        p = _check_modulus(p)
        _check_products(ambient, p)
        space = cls.__new__(cls)
        space._set(np.asarray(reduced, dtype=np.int64), tuple(int(j) for j in pivots), ambient, p)
        return space

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return Subspace, (self.basis, self.ambient, self.p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, vecs: np.ndarray) -> np.ndarray:
        """Residues of the vectors (last axis) after subtracting their projection."""
        return _echelon_reduce(vecs, self.basis, self.pivots, self.p)

    def contains(self, vec) -> bool:
        return not self.reduce(vec).any()

    def extend(self, rows) -> "Subspace":
        """The span of this space and the given rows, without re-reducing this basis.

        The rows are reduced against the basis, only that residue is put in
        echelon form, its pivot columns are cleared from the old rows in one
        product, and the two sets of rows are merged in pivot order.  By
        uniqueness of reduced echelon form the result equals
        ``Subspace(np.concatenate([self.basis, rows]), ambient, p)``.
        """
        p = self.p
        extra = _int64_rows(rows, self.ambient, "subspace rows")
        new, new_pivots = _rref(self.reduce(extra), p)
        if not new_pivots:
            return self
        new = new[: len(new_pivots)]
        # the new rows are 0 in the old pivot columns, so the old rows keep
        # their leading 1s
        old = (self.basis - self.basis[:, list(new_pivots)] @ new) % p
        pivots = self.pivots + new_pivots
        order = np.argsort(pivots)
        merged = np.concatenate([old, new])[order]
        return Subspace._from_rref(merged, sorted(pivots), self.ambient, p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F_{self.p}^{self.ambient})"


class JordanData:
    """Multiset of (eigenvalue, block size) pairs of a split invertible matrix.

    Blocks are stored sorted, so equality is multiset equality.  The fixed
    space of the underlying matrix has dimension equal to the number of
    blocks with eigenvalue 1 (one fixed line per such block).
    """

    __slots__ = ("blocks", "p")

    def __init__(self, blocks: Iterable[tuple[int, int]], p: int):
        p = _check_modulus(p)
        norm = []
        for eig, size in blocks:
            eig = _check_integer(eig, "eigenvalue") % p
            if eig == 0:
                raise InvalidInput("eigenvalue 0 is not allowed (invertible matrices only)")
            size = _check_integer(size, "block size")
            if size < 1:
                raise InvalidInput("block sizes must be >= 1")
            norm.append((eig, size))
        object.__setattr__(self, "blocks", tuple(sorted(norm)))
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("JordanData is immutable")

    def __reduce__(self):
        return JordanData, (self.blocks, self.p)

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    @property
    def fixed_dim(self) -> int:
        return sum(1 for eig, _ in self.blocks if eig == 1)

    @property
    def codim_fixed(self) -> int:
        return self.dim - self.fixed_dim

    def nontrivial(self) -> "JordanData":
        return JordanData((b for b in self.blocks if b != (1, 1)), self.p)

    def tensor(self, c: int) -> "JordanData":
        c = _check_integer(c, "tensor factor") % self.p
        if c == 0:
            raise InvalidInput("cannot tensor by 0")
        return JordanData((((eig * c) % self.p, size) for eig, size in self.blocks), self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JordanData)
            and self.p == other.p
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.p, self.blocks))

    def __repr__(self) -> str:
        return f"JordanData({self.blocks!r} mod {self.p})"

    def __str__(self) -> str:
        return "".join(f"({eig},{size})" for eig, size in self.blocks) or "()"


# ---------------------------------------------------------------------------
# operations


def jordan_type(a: Matrix) -> JordanData:
    """Jordan block data of an invertible matrix whose spectrum splits over F_p.

    Eigenvalues are found by scanning F_p^x in ascending order, until the
    blocks found fill the space; block sizes come from the rank sequence of
    (A - a)^k.  Raises NonSplitSpectrum when the generalized eigenspaces do
    not fill the space.
    """
    n = _check_type(a, Matrix, "a").n
    p = a.p
    if a.det() == 0:
        raise InvalidInput("matrix is singular")
    blocks = []
    total = 0
    eye = np.eye(n, dtype=np.int64)
    for eig in range(1, p):
        if total == n:
            break  # generalized eigenspaces are independent: no room for more
        b = (a.array - eig * eye) % p
        r1 = _rank(b, p)
        if r1 == n:
            continue
        ranks = [n, r1]
        power = b
        while ranks[-1] != ranks[-2]:
            power = (power @ b) % p
            ranks.append(_rank(power, p))
        # ranks stabilized; count blocks of each exact size
        for k in range(1, len(ranks) - 1):
            geq_k = ranks[k - 1] - ranks[k]
            geq_k1 = ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0
            for _ in range(geq_k - geq_k1):
                blocks.append((eig, k))
                total += k
    if total != n:
        raise NonSplitSpectrum(
            f"generalized eigenspaces span {total} of {n} dimensions over F_{p}"
        )
    return JordanData(blocks, p)


def _check_generators(gens: Iterable[Matrix]) -> tuple[tuple[Matrix, ...], int, int, tuple[int, ...]]:
    """(gens, n, p, dets), or InvalidInput unless gens are one or more invertible n x n matrices mod p."""
    gens = tuple(gens)
    if not gens or not all(isinstance(g, Matrix) for g in gens):
        raise InvalidInput("need at least one generator, each a Matrix")
    n, p = gens[0].n, gens[0].p
    if any(g.p != p or g.n != n for g in gens):
        raise InvalidInput("generators must share size and modulus")
    dets = tuple(g.det() for g in gens)
    if 0 in dets:
        raise InvalidInput("generators must be invertible")
    return gens, n, p, dets


def invariant_forms(gens: Sequence[Matrix]) -> list[Matrix]:
    """Basis of the space of bilinear forms fixed by every generator.

    Returns all M with A^T M A = M for each A, found by solving the linear
    system on the n^2 matrix entries.  The empty list means there is no
    nonzero invariant form.
    """
    gens, n, p, _ = _check_generators(gens)
    eye = np.eye(n * n, dtype=np.int64)
    rows = []
    for g in gens:
        at = g.array.T
        rows.append((np.kron(at, at) - eye) % p)
    system = np.concatenate(rows, axis=0)
    basis = _kernel_basis(system, p)
    return [Matrix(row.reshape(n, n), p) for row in basis]
