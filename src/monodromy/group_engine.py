"""Exact computation with finitely generated matrix groups over F_p.

A ``GeneratedGroup`` is a deterministic Schreier-Sims stabilizer chain,
built whole by its constructor, acting on (column) vectors, each base
point the first standard basis vector that the level's generators move.
Vectors are handled as integer codes sum(v_i p^i) from
``ff_linalg._codes``: each level is based at a standard basis vector
e_col, so its orbit vectors are column ``col`` of its transversal
elements.  It stores every transversal element together with its
inverse, both built by batched products, with a code-to-row index, and
grows them a whole frontier at a time.  When a level gains generators
its orbit is extended in place.  A level's Schreier generators are
formed in one pass over its points and generators when the level is
completed, and the chain sifts them in blocks.  The build stops as soon
as the product of the stored orbit lengths reaches an upper bound B on
the group order, the caller's or else |SL(n, p)| |<det g_i>|: that
product never exceeds |G|, so it then equals |G|, every stored orbit is
a full orbit of its point stabilizer and the chain sifts every element
of G to the identity (Seress, Permutation Group Algorithms, 2003, ch. 4).
Every build completes its levels top-down, in order 0, 1, 2, ...: a
residue that sifts out only joins the levels below, whose orbits grow at
once, so the orbit product grows early and no level gains a generator
after it is completed; each level is completed once (bounded Sp(8,3)
forms 384 Schreier generators, where completing each lower level again
whenever it gained a generator formed 21,697).  ``_orbit_reaches`` walks
the orbit of any vector up to a given size with no level, marking codes
only as seen and keeping only its frontier; ``classical_groups`` decides
derived containment from one such witness orbit.

Transversal elements and their inverses are stored in the narrowest
signed integer dtype that holds p - 1 (int8 for p <= 127, int16 up to
32767, then int32 and int64), 2 n^2 entries per orbit vector.  A block
gathered from them is widened to int64 just before it enters a product:
each frontier block in ``_orbit`` and ``_orbit_reaches``, the parent
transversals in ``GeneratedGroup._grow``, the transversal inverses in
``GeneratedGroup._sift``, and the transversals and inverses in
``GeneratedGroup._schreier_blocks``.  Vector
codes, strong generators, their inverses and every product stay int64, so
products are exact under the guards ``ff_linalg._check_products`` (on
every ``Matrix``) and p^n < 2^63 (on every chain).

Irreducibility is decided on small spaces from the G-orbits on lines and
above that from one generator g with rank(g - 1) = 1, by two spins.  Each
generator permutes the lines, and one pass of label propagation over those
permutations labels every line with the least line of its orbit.  The span
of an orbit is the spin of each of its lines, so V is reducible exactly
when some orbit spans a proper subspace; an orbit of more lines than a
hyperplane holds spans V, and only the smaller orbits are spanned, as one
``Subspace`` each.  Everything is exact and nothing is random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInput, NonSplitSpectrum, OrderOverflow, ResourceLimit
from .ff_linalg import (
    Matrix, Subspace, jordan_type, _check_generators, _check_integer, _check_type, _codes, _inv,
    _kernel_basis, _prime_factors, _rank, _vectors,
)

__all__ = [
    "GeneratedGroup",
    "IrreducibilityReport",
    "group_order",
    "is_irreducible",
    "element_order",
]


# Orbit frontiers and Schreier generators are processed in blocks of about
# this many int64 entries (64 KiB), whatever the dimension.  Blocks of
# 128 KiB raised the peak resident memory of a process building many small
# chains, and did not make large chains faster.
_BLOCK_ENTRIES = 1 << 13
# Orbits in spaces with at most this many vectors index codes by a dense
# table from the start (at most 4 MiB per level); larger spaces use sorted
# codes.  The dense table made both benchmark workloads 16-27 % faster than
# sorted codes alone (their spaces have at most 5^6 vectors); the cutoff
# itself bounds memory and was not tuned.
_DENSE_CODES = 1 << 20
# Sorted codes turn dense once they hold one code in this many: the table then
# costs at most 8 times the runs.  Bounded O(8,7) chain, 2-CPU x86 host: sorted
# only 7.2-7.9 s; dense at 1/8, 1/32, 1/64: 5.0, 3.5, 2.6 s at 194, 194, 213 MB.
_DENSE_SHARE = 32


class _CodeIndex:
    """Code -> orbit position over the codes 0 .. size - 1 (-1: not in the orbit).

    ``add`` numbers its codes in order of arrival: the first code added
    takes position 0, and each batch takes the next ``codes.size``
    positions.  Dense, ``table`` holds the position of every code.
    Sorted, ``runs`` are sorted runs of codes with their positions, binary
    searched; a new run is merged into the last one while that one is at
    most twice its size, so m codes sit in O(log m) runs.  The index is
    dense from its first code when size <= ``_DENSE_CODES``, else once it
    holds size / ``_DENSE_SHARE``.
    """

    __slots__ = ("size", "count", "runs", "table")

    def __init__(self, size: int):
        self.size, self.count, self.runs, self.table = size, 0, [], None

    def find(self, codes: np.ndarray) -> np.ndarray:
        if self.table is not None:
            return self.table[codes]
        out = np.full(codes.shape, -1, dtype=np.int64)
        for keys, positions in self.runs:
            at = np.minimum(np.searchsorted(keys, codes), keys.size - 1)
            hit = keys[at] == codes
            out[hit] = positions[at[hit]]
        return out

    def add(self, codes: np.ndarray) -> None:
        positions = np.arange(self.count, self.count + codes.size)
        self.count += codes.size
        if self.table is None and (self.size <= _DENSE_CODES or _DENSE_SHARE * self.count >= self.size):
            # every position is below size
            self.table = np.full(self.size, -1, dtype=np.int32 if self.size <= 2**31 else np.int64)
            for keys, old in self.runs:
                self.table[keys] = old
            self.runs = []
        if self.table is not None:
            self.table[codes] = positions
        elif codes.size:  # an empty run would break the binary search
            while self.runs and self.runs[-1][0].size <= 2 * codes.size:
                keys, old = self.runs.pop()
                codes = np.concatenate([keys, codes])
                positions = np.concatenate([old, positions])
            order = np.argsort(codes)
            self.runs.append((codes[order], positions[order]))


def _orbit(lvl: _Level, p: int, cap: int, steps: list) -> int:
    """Grow the stored orbit of ``lvl`` to closure under all its generators.

    The orbit is closed under the first ``lvl.closed`` generators.  The
    first round maps every stored point, read from the transversal, by the
    generators added since; each later round maps the points the last one
    found by all of them.  Each generator maps a batch of points at once,
    widened to int64; its images are distinct, so only codes already in
    ``lvl.index`` are dropped, and each new code enters the index at the
    row it will take.  Stops once at least ``cap`` points are stored,
    keeping at most one batch of images past the cap.  Returns the number
    of points then stored; the step (first row, parent rows, generator)
    that reached each batch of new points is appended to ``steps``, and
    the chain builds its transversal from them.
    """
    gens, index = lvl.gens, lvl.index
    frontier = lvl.trans[:, :, lvl.col]
    batch = max(1, _BLOCK_ENTRIES // frontier.shape[1])
    total, first, movers = len(frontier), 0, range(lvl.closed, len(gens))
    while total < cap:
        round_start, chunks = total, []
        for a in range(0, len(frontier), batch):
            block = frontier[a : a + batch].astype(np.int64)
            for j in movers:
                images = (block @ gens[j].T) % p
                codes = _codes(images, p)
                fresh = np.flatnonzero(index.find(codes) < 0)
                if fresh.size:
                    index.add(codes[fresh])
                    chunks.append(images[fresh].astype(frontier.dtype))
                    steps.append((total, first + a + fresh, j))
                    total += fresh.size
                if total >= cap:
                    break
            if total >= cap:
                break
        if not chunks:
            break
        frontier, first = np.concatenate(chunks), round_start
        movers = range(len(gens))
    return total


def _check_codes(p: int, n: int) -> None:
    """Raise ResourceLimit unless every vector code of F_p^n fits in 64 bits."""
    if p**n >= 2**63:
        raise ResourceLimit(f"vector codes of F_{p}^{n} do not fit in 64 bits")


def _over_limit(limit: int) -> ResourceLimit:
    """The error of an orbit walk or a chain that would store more than ``limit`` vectors."""
    return ResourceLimit(f"orbit storage exceeded the configured cap of {limit} vectors")


def _orbit_reaches(gens: Sequence[Matrix], base: np.ndarray, size: int, limit: int) -> bool:
    """Whether the orbit of the nonzero vector ``base`` under ``gens`` has ``size`` vectors.

    The caller knows that the orbit has at most ``size`` vectors.  With
    cap = min(size, limit + 1), seen codes are marked in a bool table over
    all p^n codes when p^n <= 16 cap (no more than the 16 bytes per code of
    sorted runs), else in a ``_CodeIndex``, so a small ``limit`` on a large
    space never allocates p^n bytes.  Only the last round's vectors are
    kept, in the narrowest signed dtype that holds p - 1, widened to int64 a
    block at a time; a generator's images of a block are distinct, so only
    codes already seen are dropped.  The walk stops once ``cap`` vectors
    are seen.  ResourceLimit is raised as a ``GeneratedGroup`` raises it:
    when p^n >= 2^63, and when more than ``limit`` vectors are seen,
    checked after each batch of images.
    """
    limit = _check_integer(limit, "limit", least=0)
    p, n = gens[0].p, len(base)
    _check_codes(p, n)
    cap = min(size, limit + 1)
    table = np.zeros(p**n, dtype=bool) if p**n <= 16 * cap else None
    index = _CodeIndex(p**n)  # allocates nothing unless used

    def unseen(codes: np.ndarray) -> np.ndarray:
        if table is not None:
            fresh = (~table[codes]).nonzero()[0]
            table[codes[fresh]] = True
            return fresh
        fresh = (index.find(codes) < 0).nonzero()[0]
        index.add(codes[fresh])
        return fresh

    powers = p ** np.arange(n, dtype=np.int64)
    batch = max(1, _BLOCK_ENTRIES // n)
    frontier = base[None].astype(np.min_scalar_type(-(p - 1)))
    stored = len(unseen(base[None] @ powers))
    while stored < cap and len(frontier):
        chunks = []
        for a in range(0, len(frontier), batch):
            block = frontier[a : a + batch].astype(np.int64)
            for g in gens:
                images = (block @ g.array.T) % p
                fresh = unseen(images @ powers)
                chunks.append(images[fresh].astype(frontier.dtype))
                stored += fresh.size
                if stored >= cap:
                    break
            if stored >= cap:
                break
        frontier = np.concatenate(chunks)
    if stored > limit:
        raise _over_limit(limit)
    return stored == size


class _Level:
    """One level of the chain: a base point, strong generators and its orbit.

    The base point is the standard basis vector e_col, whose image under a
    matrix ``GeneratedGroup._sift`` reads as column ``col``.  ``gens`` is
    the stack of distinct strong generators and ``gens_inv[k]`` the inverse
    of ``gens[k]``; ``admit`` fills both.  ``trans[k]`` maps the base point
    to orbit vector k, its column ``col`` (row 0 the identity, for the base
    point itself), and ``trans_inv[k]`` is its inverse; ``index``, a
    ``_CodeIndex``, maps vector codes to rows.  The orbit only grows: rows
    keep their place and their transversal elements, and new rows are
    appended.  The orbit is closed under ``gens[:closed]``.  ``trans`` and
    ``trans_inv`` hold residues in the chain's storage dtype, the narrowest
    signed integer type that holds p - 1; ``gens`` and ``gens_inv`` stay
    int64.  A block gathered from the stored residues is widened to int64
    before it enters a product.  The level's Schreier generators are formed
    once, when the group completes it (``GeneratedGroup._complete``).
    """

    __slots__ = ("col", "gens", "gens_inv", "index", "trans", "trans_inv", "closed")

    def __init__(self, col: int, n: int, p: int, dtype: np.dtype):
        self.col = col
        self.gens = self.gens_inv = np.zeros((0, n, n), dtype=np.int64)
        self.trans = self.trans_inv = np.eye(n, dtype=dtype)[None]
        self.index = _CodeIndex(p**n)
        self.index.add(np.array([p**col]))
        self.closed = 0

    def admit(self, g: np.ndarray, g_inv: np.ndarray) -> None:
        """Append the generator ``g`` and its inverse ``g_inv``."""
        self.gens = np.concatenate([self.gens, g[None]])
        self.gens_inv = np.concatenate([self.gens_inv, g_inv[None]])


class _Reached(Exception):
    """Raised inside a chain build once the orbit product reaches the bound."""


class GeneratedGroup:
    """A matrix group given by generators, as its Schreier-Sims stabilizer chain.

    The constructor checks the generators with
    ``ff_linalg._check_generators`` and builds the chain whole, as the
    module docstring describes; the group is then immutable, and ``order``,
    ``contains_array`` and ``in`` read the chain and change nothing.
    ``levels`` is the list of ``_Level``s, top first; levels appended on
    the way are completed last, and each exactly once (``_complete``).

    Identity generators are dropped before anything else, and repeated
    ones kept once, in their first place, so a group of identities has an
    empty chain and computes no vector code.  ``limit``, an integer >= 0,
    caps the number of orbit vectors stored over all levels; it is checked
    after each batch of images, so storage never passes it by more than
    one batch before ``ResourceLimit`` is raised.  Each stored vector keeps
    two n x n transversal matrices, whose column ``col`` is the vector, in
    the narrowest integer dtype that holds p - 1: 2 n^2 bytes at p <= 127
    (twice that up to p = 32767, four times below 2^31), plus its entry in
    the code index.
    ``ResourceLimit`` is also raised when levels are to be built and p^n
    does not fit in 64 bits, so a vector code can never wrap.

    ``bound`` is an upper bound on the order, an integer >= 1, or None;
    the derived-subgroup test passes the bound of a group of isometries.
    Without it the build stops at ``_det_bound``, computed only when levels
    are about to be built; the bound used is kept as ``bound`` (None for
    an empty chain).  Each level's generators fix the earlier base points,
    so its orbit lies in the orbit of the true point stabilizer, and the
    product of the orbit lengths never exceeds |G|.  Once that product
    equals the bound after an orbit grows, every orbit is a full stabilizer
    orbit, so the build stops there (``stopped``) with no more sifting: the
    order, every membership answer and every stored orbit are those of the
    same build run to completion, which is the build given a bound it cannot
    reach; a group that never reaches its bound gets that full build.
    """

    def __init__(self, gens: Sequence[Matrix], limit: int = 10**7, bound: Optional[int] = None):
        self.gens, self.dim, self.p, self._dets = _check_generators(gens)
        self._limit = _check_integer(limit, "limit", least=0)
        if bound is not None:
            bound = _check_integer(bound, "bound", least=1)
        self._dtype = np.min_scalar_type(-(self.p - 1))
        self._eye = np.eye(self.dim, dtype=np.int64)
        self.levels: list[_Level] = []
        self.bound: Optional[int] = None
        self.stopped = False
        arrays = np.array([g.array for g in self.gens], dtype=np.int64)
        arrays = arrays[~self._is_id(arrays)]
        if not len(arrays):
            return
        arrays = np.array(list({g.tobytes(): g for g in arrays}.values()))
        _check_codes(self.p, self.dim)
        self.bound = bound or self._det_bound()
        top = _Level(self._pick_base(arrays), self.dim, self.p, self._dtype)
        for g in arrays:
            top.admit(g, _inv(g, self.p))
        self.levels.append(top)
        try:
            # levels appended on the way are completed after the others
            i = 0
            while i < len(self.levels):
                self._complete(i)
                i += 1
        except _Reached:
            self.stopped = True

    def _det_bound(self) -> int:
        """|SL(n, p)| |<det g_i>|, an upper bound on the order.

        det maps G onto the subgroup of F_p^x that the determinants of the
        generators generate, with kernel G meet SL(n, p); F_p^x is cyclic,
        so that subgroup has order the lcm of their orders.
        """
        n, p = self.dim, self.p
        sl = p ** (n * (n - 1) // 2) * math.prod(p**i - 1 for i in range(2, n + 1))
        return sl * math.lcm(*(_multiplicative_order(d, p) for d in self._dets))

    # -- public surface ----------------------------------------------------

    def order(self) -> int:
        """The exact order: the product of the stored orbit lengths."""
        return math.prod(len(lvl.trans) for lvl in self.levels)

    def contains_array(self, a: np.ndarray) -> bool:
        """Membership of the n x n integer array ``a``, read mod p; other entries raise InvalidInput."""
        residues = Matrix(a, self.p).array
        if residues.shape != (self.dim, self.dim):
            raise InvalidInput(f"expected a {self.dim}x{self.dim} array, got shape {residues.shape}")
        residues = residues[None].copy()
        self._sift(residues, 0)
        return bool(self._is_id(residues)[0])

    def __contains__(self, m: Matrix) -> bool:
        if not isinstance(m, Matrix) or m.p != self.p or m.array.shape != (self.dim, self.dim):
            return False
        return self.contains_array(m.array)

    def __repr__(self) -> str:
        return f"GeneratedGroup({len(self.gens)} gens, dim {self.dim}, F_{self.p})"

    # -- orbits -----------------------------------------------------------

    def _pick_base(self, gens: np.ndarray) -> int:
        """The index of the first standard basis vector that some generator in ``gens`` moves.

        Both callers pass a stack holding a non-identity matrix.
        """
        return int(np.flatnonzero((gens != self._eye).any(axis=(0, 1)))[0])

    def _grow(self, idx: int) -> None:
        """Extend the orbit of level ``idx`` and its transversal to its generators.

        Raises ``_Reached`` once the orbit product then equals the bound.
        """
        lvl = self.levels[idx]
        if lvl.closed == len(lvl.gens):
            return
        budget = self._limit - sum(len(other.trans) for k, other in enumerate(self.levels) if k != idx)
        steps = []
        stored = _orbit(lvl, self.p, budget + 1, steps)
        if stored > budget:
            raise _over_limit(self._limit)
        lvl.closed = len(lvl.gens)
        p, n, old = self.p, self.dim, len(lvl.trans)
        if stored == old:
            return
        trans = np.empty((stored, n, n), dtype=self._dtype)
        trans_inv = np.empty_like(trans)
        trans[:old], trans_inv[:old] = lvl.trans, lvl.trans_inv
        for first, parents, j in steps:
            rows = slice(first, first + parents.size)
            trans[rows] = (lvl.gens[j] @ trans[parents].astype(np.int64)) % p
            trans_inv[rows] = (trans_inv[parents].astype(np.int64) @ lvl.gens_inv[j]) % p
        lvl.trans, lvl.trans_inv = trans, trans_inv
        if self.order() == self.bound:
            raise _Reached

    # -- sifting ----------------------------------------------------------

    def _is_id(self, stack: np.ndarray) -> np.ndarray:
        return np.all(stack == self._eye, axis=(1, 2))

    def _sift(self, residues: np.ndarray, start: int) -> np.ndarray:
        """Sift a stack of matrices in place from level ``start`` on.

        Returns, per matrix, the level whose orbit its base image left, or
        the chain length if it passed every level.
        """
        stop = np.full(len(residues), len(self.levels))
        live = np.arange(len(residues))
        work = residues
        for idx in range(start, len(self.levels)):
            if not live.size:
                break
            lvl = self.levels[idx]
            rows = lvl.index.find(_codes(work[:, :, lvl.col], self.p))
            out = rows < 0
            if out.any():
                stop[live[out]] = idx
                residues[live[out]] = work[out]
                live, rows, work = live[~out], rows[~out], work[~out]
            work = lvl.trans_inv[rows].astype(np.int64) @ work
            np.remainder(work, self.p, out=work)
        residues[live] = work
        return stop

    def _schreier_blocks(self, lvl: _Level):
        """Schreier generators u_{sv}^-1 s u_v of the level, a block at a time.

        One pass over every point v and every generator s of the level, made
        once, when the level is completed.
        """
        p, n = self.p, self.dim
        per_block = max(1, _BLOCK_ENTRIES // (n * n))
        for g0 in range(0, len(lvl.gens), per_block):
            gens = lvl.gens[g0 : g0 + per_block]
            batch = max(1, per_block // len(gens))
            for a in range(0, len(lvl.trans), batch):
                # row i * len(gens) + j of each stack belongs to (v_i, s_j)
                trans = lvl.trans[a : a + batch].astype(np.int64)
                images = (gens @ trans[:, :, lvl.col].T).transpose(2, 0, 1) % p
                found = lvl.index.find(_codes(images.reshape(-1, n), p))
                moved = (gens[None] @ trans[:, None]) % p
                out = lvl.trans_inv[found].astype(np.int64) @ moved.reshape(-1, n, n)
                np.remainder(out, p, out=out)
                yield out

    def _complete(self, i: int) -> None:
        """Grow level i and sift all its Schreier generators through levels > i.

        Called once per level: the level's orbit and generators are final
        here, since residues only join the levels below it.
        """
        lvl = self.levels[i]
        self._grow(i)
        for block in self._schreier_blocks(lvl):
            residues = block[~self._is_id(block)]
            while residues.size:
                stop = self._sift(residues, i + 1)
                alive = np.flatnonzero(~self._is_id(residues))
                if not alive.size:
                    break
                first = alive[0]
                self._extend(residues[first].copy(), i, int(stop[first]))
                # the rest stay exact: a residue that sifts to the identity
                # lies in <S_{i+1}>, and that group only grows
                residues = residues[alive[1:]]

    def _extend(self, h: np.ndarray, i: int, j: int) -> None:
        """Add the residue of a sift to levels i+1..j and grow their orbits.

        Each of those levels is completed later, in its turn.  None holds
        ``h`` yet: level j would then hold it too (``h`` fixes the base
        points of levels i+1..j-1), but its orbit is closed under its
        generators, and ``h`` moves the base point out of it.
        """
        if j == len(self.levels):
            self.levels.append(_Level(self._pick_base(h[None]), self.dim, self.p, self._dtype))
        h_inv = _inv(h, self.p)
        for lvl in self.levels[i + 1 : j + 1]:
            lvl.admit(h, h_inv)
        for idx in range(i + 1, j + 1):
            self._grow(idx)


def group_order(group: GeneratedGroup) -> int:
    """Exact order of the generated group, read from the chain its constructor built.

    Nothing in the package calls it: it is kept as the entry point the
    benchmark's convolution jobs import (``perfbench/child.py``).
    """
    return group.order()


# ---------------------------------------------------------------------------
# irreducibility


# Spaces with at most this many lines are decided by walking the lines;
# larger ones by two spins from a generator of drop one.
_EXHAUSTIVE_CAP = 3000


@dataclass(frozen=True)
class IrreducibilityReport:
    """The verdict, a proper nonzero invariant subspace when reducible, and the method.

    ``trials`` is always 0, since no method draws random elements; it is
    kept because the benchmark's span recorder reads it (``perfbench/spans.py``).
    """

    irreducible: bool
    witness: Optional[Subspace]
    method: str
    trials: int = 0


def _spin(start: np.ndarray, gens: np.ndarray, p: int) -> Subspace:
    """Smallest subspace containing the rows of ``start`` and closed under ``gens``.

    Each round maps the basis rows added by the last round by every
    generator at once and adds the images that leave the span.
    """
    n = start.shape[-1]
    space = Subspace(start, n, p)
    frontier = space.basis
    while len(frontier) and space.dim < n:
        grown = space.extend(frontier @ gens.transpose(0, 2, 1))
        frontier = grown.basis[~np.isin(grown.pivots, space.pivots)]
        space = grown
    return space


def _line_positions(vecs: np.ndarray, p: int, inverse: np.ndarray) -> np.ndarray:
    """Place of the line of each nonzero vector (rows) in the order of lines.

    Lines are ordered by the codes p^k + p^(k+1) i of their representatives
    with leading coefficient 1 (first by k, then by i); ``inverse[c]`` is the
    inverse of c mod p.
    """
    n = vecs.shape[1]
    lead = (vecs != 0).argmax(axis=1)
    scale = inverse[vecs[np.arange(len(vecs)), lead]]
    codes = _codes((vecs * scale[:, None]) % p, p)
    return (p**n - p ** (n - lead)) // (p - 1) + codes // p ** (lead + 1)


@lru_cache(maxsize=16)
def _line_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The representatives of the lines of F_p^n in the order of lines, and the inverses mod p.

    Both arrays are cached, so they are made read-only.
    """
    codes = np.concatenate([p**k + p ** (k + 1) * np.arange(p ** (n - k - 1)) for k in range(n)])
    lines = _vectors(codes, n, p)
    inverse = np.array([0] + [pow(c, -1, p) for c in range(1, p)])
    lines.setflags(write=False)
    inverse.setflags(write=False)
    return lines, inverse


def _line_orbits(gens: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The least line of the G-orbit of each line of F_p^n, and the size of each orbit.

    Each generator permutes the lines: one product of the line table with
    it, one ``_line_positions`` call.  Every line starts labelled by itself.
    Each round pulls the label of pi(i) into line i and pushes the label of
    i to pi(i), for every permutation pi, then replaces each label by the
    label of the line it names; a label is always a line of the same orbit,
    never larger than the line's own place.  The rounds stop when one
    changes nothing: then every two lines that a generator joins carry the
    same label, so it is constant on each orbit, and since the orbit's
    least line carries no smaller line of its orbit, that constant is the
    least line.  ``size[r]`` counts the lines labelled r, which is 0
    unless r is the least line of its orbit.
    """
    n = gens.shape[1]
    lines, inverse = _line_table(n, p)
    perms = np.empty((len(gens), len(lines)), dtype=np.int64)
    for j, g in enumerate(gens):
        perms[j] = _line_positions((lines @ g.T) % p, p, inverse)
    label = np.arange(len(lines))
    while True:
        before = label
        label = label.copy()
        for perm in perms:
            np.minimum(label, label[perm], out=label)
            label[perm] = np.minimum(label[perm], label)
        label = label[label]
        if np.array_equal(label, before):
            return label, np.bincount(label, minlength=len(lines))


def is_irreducible(generators: Sequence[Matrix]) -> IrreducibilityReport:
    """Decide whether the natural module of the group the generators generate is irreducible.

    Small spaces (at most ``_EXHAUSTIVE_CAP`` lines) are settled exactly from
    the G-orbits on lines (``_line_orbits``), taken in the order of their
    least lines (``_line_positions``).  The spin of a vector v, the least
    G-invariant subspace holding it, is the span of its orbit G v (that span
    is G-invariant, and every invariant subspace holding v holds G v), so
    each line of an orbit spins to the same subspace (Holt-Rees, Testing
    modules for irreducibility, 1994), and V is reducible exactly when some
    orbit spans a proper subspace.  A proper subspace holds at most
    (p^(n-1) - 1) / (p - 1) lines, so an orbit with more lines spans V and
    is skipped unspanned; each smaller orbit is spanned from its line
    vectors, and the first proper span is the witness.  Spinning every line
    in order would first find a proper span at the least line of that same
    orbit, so the witness is the one that walk returns.

    Larger spaces take the first generator g of drop one, rank(g - 1) = 1,
    and Norton's criterion with theta = g - 1 (method "drop-one"): theta is
    w w*^T for a nonzero column w and a nonzero row w* of theta.  For a
    proper nonzero G-invariant U, theta U lies in U and in the line of w,
    so U lies in ker(g - 1) or w lies in U.  If the spin of w is proper it
    is the witness.  Otherwise every such U lies in ker(g - 1), so w*
    annihilates U; the annihilator U° is G^T-invariant (for x in U° and u
    in U, (g^T x) u = x (g u) = 0), proper and nonzero, and holds the spin
    of w* under G^T.  So if that spin is V, V is irreducible; else its
    annihilator, G-invariant by the same identity, is the witness.  The
    spins are the same over every extension of F_p, so with a generator of
    drop one, irreducible means absolutely irreducible.

    A group of scalars with no such generator is reported reducible with
    the witness span(e_1), since every line is invariant.  Any other group
    above the cap raises ResourceLimit.  No chain is built;
    ``_check_generators`` checks the generators.
    """
    generators, n, p, _ = _check_generators(generators)
    gens = np.array([g.array for g in generators], dtype=np.int64)
    if n == 1:
        return IrreducibilityReport(True, None, "dimension-one")

    if (p**n - 1) // (p - 1) <= _EXHAUSTIVE_CAP:
        label, size = _line_orbits(gens, p)
        lines, _ = _line_table(n, p)
        in_hyperplane = (p ** (n - 1) - 1) // (p - 1)
        for r in np.flatnonzero((size > 0) & (size <= in_hyperplane)):
            space = Subspace(lines[label == r], n, p)
            if space.dim < n:
                return IrreducibilityReport(False, space, "exhaustive")
        return IrreducibilityReport(True, None, "exhaustive")

    eye = np.eye(n, dtype=np.int64)
    theta = next((t for t in (gens - eye) % p if _rank(t, p) == 1), None)
    if theta is not None:
        w = theta.T[theta.T.any(axis=1)][0]
        space = _spin(w, gens, p)
        if space.dim < n:
            return IrreducibilityReport(False, space, "drop-one")
        w_star = theta[theta.any(axis=1)][0]
        dual = _spin(w_star, gens.transpose(0, 2, 1), p)
        if dual.dim == n:
            return IrreducibilityReport(True, None, "drop-one")
        return IrreducibilityReport(False, Subspace(_kernel_basis(dual.basis, p), n, p), "drop-one")

    if all(np.array_equal(g, g[0, 0] * eye) for g in gens):
        return IrreducibilityReport(False, Subspace(eye[:1], n, p), "scalar")
    raise ResourceLimit(
        f"F_{p}^{n} has {(p**n - 1) // (p - 1)} lines, above the cap of {_EXHAUSTIVE_CAP} for line orbits,"
        " and no generator g has rank(g - 1) = 1"
    )


# ---------------------------------------------------------------------------
# element order


# Iterated powering of a matrix with a non-split spectrum gives up past this
# many powers.
_ORDER_CAP = 10**7


def _multiplicative_order(a: int, p: int) -> int:
    """Order of a in F_p^x: p - 1 with each prime q of p - 1 divided out while a^(order/q) = 1."""
    a %= p
    if a == 0:
        raise InvalidInput("0 has no multiplicative order")
    order = p - 1
    for q in _prime_factors(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def element_order(a: Matrix) -> int:
    """Multiplicative order of an invertible matrix.

    When the spectrum splits, the order is read from the Jordan data: the
    lcm of the eigenvalue orders in F_p^x times the least power of p that
    is at least the largest block size.  Otherwise the matrix is powered
    until it reaches the identity, raising OrderOverflow past
    ``_ORDER_CAP`` powers.  A singular matrix raises InvalidInput (from
    ``jordan_type``).
    """
    p = _check_type(a, Matrix, "a").p
    try:
        jd = jordan_type(a)
    except NonSplitSpectrum:
        power = a
        k = 1
        while not power.is_identity():
            power = power @ a
            k += 1
            if k > _ORDER_CAP:
                raise OrderOverflow(f"element order exceeds cap {_ORDER_CAP}")
        return k
    semisimple = 1
    for eig, _ in set(jd.blocks):
        semisimple = math.lcm(semisimple, _multiplicative_order(eig, p))
    max_block = max(size for _, size in jd.blocks)
    unipotent = 1
    while unipotent < max_block:
        unipotent *= p
    return semisimple * unipotent
