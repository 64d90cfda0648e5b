"""Exact computation with finitely generated matrix groups over F_p.

Group orders come from a deterministic Schreier-Sims stabilizer chain
acting on (column) vectors, each base point the first standard basis
vector that the level's generators move.  Vectors are handled as integer
codes sum(v_i p^i) from ``ff_linalg._codes``: each level keeps its orbit
as an array of points with a code-to-row index, grown a whole frontier at
a time, and stores every transversal element together with its inverse,
both built by batched products.  When a level gains generators its orbit
is extended in place.  A level's Schreier generators are formed in one
pass over its points and generators when the level is completed, and the
chain sifts them in blocks.  The build stops as soon as the
product of the stored orbit lengths reaches an upper bound B on the group
order, the caller's or else |SL(n, p)| |<det g_i>|: that product never
exceeds |G|, so it then equals |G|, every stored orbit is a full orbit of
its point stabilizer and the chain sifts every element of G to the
identity (Seress, Permutation Group Algorithms, 2003, ch. 4).
Every build completes its levels top-down, in order 0, 1, 2, ...: a
residue that sifts out only joins the levels below, whose orbits grow at
once, so the orbit product grows early and no level gains a generator
after it is completed; each level is completed once (bounded Sp(8,3)
forms 384 Schreier generators, where completing each lower level again
whenever it gained a generator formed 21,697).  ``_orbit_reaches`` runs
the same orbit loop on a level of its own, based at any vector, and stops
at a given orbit size; ``classical_groups`` decides derived containment
from one such witness orbit.

Orbit points, transversal elements and their inverses are stored in the
narrowest signed integer dtype that holds p - 1 (int8 for p <= 127, int16
up to 32767, then int32 and int64), n + 2 n^2 entries per orbit vector.  A
block gathered from them is widened to int64 just before it enters a
product: each frontier block in ``_orbit``, the parent transversals in
``_Chain._grow``, the transversal inverses in ``_Chain._sift``, and the
points, transversals and inverses in ``_Chain._schreier_blocks``.  Vector
codes, strong generators, their inverses and every product stay int64, so
products are exact under the guards ``ff_linalg._check_products`` (on
every ``Matrix``) and p^n < 2^63 (on every chain).

Irreducibility is decided on small spaces from the G-orbits on lines and
above that by a meataxe-style search with Norton's certificate.  Each
generator permutes the lines, and one pass of label propagation over those
permutations labels every line with the least line of its orbit.  The span
of an orbit is the spin of each of its lines, so V is reducible exactly
when some orbit spans a proper subspace; an orbit of more lines than a
hyperplane holds spans V, and only the smaller orbits are spanned, as one
``Subspace`` each.  Everything is exact; randomized searches take an
explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import Inconclusive, InvalidInput, NonSplitSpectrum, OrderOverflow, ResourceLimit
from .ff_linalg import (
    Matrix, Subspace, jordan_type, _check_generators, _codes, _inv, _kernel_basis,
    _prime_factors, _vectors,
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
# table (at most 4 MiB per level); larger spaces use sorted codes.  The
# dense table made both benchmark workloads 16-27 % faster than sorted codes
# alone (their spaces have at most 5^6 vectors); the cutoff itself bounds
# memory and was not tuned.
_DENSE_CODES = 1 << 20


class _DenseIndex:
    """Code -> orbit position, as a table over every code (-1: not in the orbit)."""

    __slots__ = ("table",)

    def __init__(self, size: int):
        self.table = np.full(size, -1, dtype=np.int32)

    def find(self, codes: np.ndarray) -> np.ndarray:
        return self.table[codes]

    def add(self, codes: np.ndarray, positions: np.ndarray) -> None:
        self.table[codes] = positions


class _SortedIndex:
    """Code -> orbit position by binary search over sorted runs of codes.

    A new run is merged into the last one while that one is at most twice
    its size, so m codes sit in O(log m) runs.
    """

    __slots__ = ("runs",)

    def __init__(self):
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []

    def find(self, codes: np.ndarray) -> np.ndarray:
        out = np.full(codes.shape, -1, dtype=np.int64)
        for keys, positions in self.runs:
            at = np.minimum(np.searchsorted(keys, codes), keys.size - 1)
            hit = keys[at] == codes
            out[hit] = positions[at[hit]]
        return out

    def add(self, codes: np.ndarray, positions: np.ndarray) -> None:
        while self.runs and self.runs[-1][0].size <= 2 * codes.size:
            keys, old = self.runs.pop()
            codes = np.concatenate([keys, codes])
            positions = np.concatenate([old, positions])
        order = np.argsort(codes)
        self.runs.append((codes[order], positions[order]))


def _orbit(lvl: _Level, p: int, cap: int, steps: Optional[list] = None) -> tuple[int, list[np.ndarray]]:
    """Grow the stored orbit of ``lvl`` to closure under all its generators.

    The orbit is closed under the first ``lvl.closed`` generators.  The
    first round maps every stored point by the generators added since; each
    later round maps the points the last one found by all of them.  Each
    generator maps a batch of points at once, widened to int64; its images
    are distinct, so only codes already in ``lvl.index`` are dropped, and
    each new code enters the index at the row it will take.  Stops once at
    least ``cap`` points are stored, keeping at most one batch of images
    past the cap.  Returns the number of points then stored, and new points
    in chunks of the storage dtype.  When ``steps`` is a list, those are all
    the new points, and the step (first row, parent rows, generator) that
    reached each chunk is appended to it: a chain builds its transversal
    from them.  A bare orbit walk keeps no steps, and only the points of
    the last round, its frontier: the chunks of each earlier round are
    dropped once the next frontier is made from them.
    """
    gens, points, index = lvl.gens, lvl.points, lvl.index
    batch = max(1, _BLOCK_ENTRIES // points.shape[1])
    chunks = []
    total = len(points)
    frontier, first, movers = points, 0, range(lvl.closed, len(gens))
    while total < cap:
        round_start, round_chunks = total, len(chunks)
        for a in range(0, len(frontier), batch):
            block = frontier[a : a + batch].astype(np.int64)
            for j in movers:
                images = (block @ gens[j].T) % p
                codes = _codes(images, p)
                fresh = np.flatnonzero(index.find(codes) < 0)
                if fresh.size:
                    index.add(codes[fresh], np.arange(total, total + fresh.size))
                    chunks.append(images[fresh].astype(points.dtype))
                    if steps is not None:
                        steps.append((total, first + a + fresh, j))
                    total += fresh.size
                if total >= cap:
                    break
            if total >= cap:
                break
        if len(chunks) == round_chunks:
            break
        frontier, first = np.concatenate(chunks[round_chunks:]), round_start
        if steps is None:
            chunks = []
        movers = range(len(gens))
    return total, chunks


def _check_codes(p: int, n: int) -> None:
    """Raise ResourceLimit unless every vector code of F_p^n fits in 64 bits."""
    if p**n >= 2**63:
        raise ResourceLimit(f"vector codes of F_{p}^{n} do not fit in 64 bits")


def _over_limit(limit: int) -> ResourceLimit:
    """The error of an orbit walk or a chain that would store more than ``limit`` vectors."""
    return ResourceLimit(f"orbit storage exceeded the configured cap of {limit} vectors")


def _orbit_reaches(gens: Sequence[Matrix], base: np.ndarray, size: int, limit: int) -> bool:
    """Whether the orbit of the nonzero vector ``base`` under ``gens`` has ``size`` vectors.

    The caller knows that the orbit has at most ``size`` vectors.  It is
    walked by ``_orbit``, on a level based at ``base``, keeping no step
    records, since no transversal is built, and of the orbit vectors only
    its last frontier; the index still marks every vector seen.  The walk
    stops as soon as ``size`` vectors are stored, so a full orbit is never
    closed.  ResourceLimit is raised as a chain raises it: when vector
    codes of F_p^n do not fit in 64 bits, and when the orbit has more than
    ``limit`` vectors, checked after each batch of images.
    """
    p = gens[0].p
    _check_codes(p, len(base))
    lvl = _Level(base, p, np.min_scalar_type(-(p - 1)))
    lvl.gens = np.array([g.array for g in gens], dtype=np.int64)
    stored, _ = _orbit(lvl, p, min(size, limit + 1))
    if stored > limit:
        raise _over_limit(limit)
    return stored == size


class _Level:
    """One level of the chain: a base point, strong generators and its orbit.

    The base point is the nonzero vector ``base``.  A chain level's is a
    standard basis vector e_col, whose image under a matrix ``_Chain._sift``
    reads as column ``col``; ``_orbit_reaches`` walks the orbit of any
    vector on a level of its own, which is never sifted.  ``gens`` is the
    stack of distinct strong generators and ``gens_inv[k]`` the inverse of
    ``gens[k]``; ``admit`` fills both.  Row k of ``points`` is an orbit
    vector (row 0 the base point), ``index`` maps vector codes to rows,
    ``trans[k]`` maps the base point to ``points[k]`` and ``trans_inv[k]``
    is its inverse.  The orbit only grows: rows keep their place and their
    transversal elements, and new rows are appended.  The orbit is closed
    under ``gens[:closed]``.  ``points``, ``trans`` and ``trans_inv`` hold
    residues in the chain's storage dtype, the narrowest signed integer type
    that holds p - 1; ``gens`` and ``gens_inv`` stay int64.  A block
    gathered from the stored residues is widened to int64 before it enters
    a product.  The level's Schreier generators are formed once, when the
    chain completes it (``_Chain._complete``).
    """

    __slots__ = ("col", "gens", "gens_inv", "points", "index", "trans", "trans_inv", "closed")

    def __init__(self, base: np.ndarray, p: int, dtype: np.dtype):
        n = len(base)
        self.col = int(np.flatnonzero(base)[0])
        self.gens = self.gens_inv = np.zeros((0, n, n), dtype=np.int64)
        self.points = base[None].astype(dtype)
        self.trans = self.trans_inv = np.eye(n, dtype=dtype)[None]
        self.index = _DenseIndex(p**n) if p**n <= _DENSE_CODES else _SortedIndex()
        self.index.add(_codes(base[None], p), np.zeros(1, dtype=np.int64))
        self.closed = 0

    def admit(self, g: np.ndarray, g_inv: np.ndarray) -> None:
        """Append the generator ``g`` and its inverse ``g_inv``."""
        self.gens = np.concatenate([self.gens, g[None]])
        self.gens_inv = np.concatenate([self.gens_inv, g_inv[None]])


class _Reached(Exception):
    """Raised inside a chain build once the orbit product reaches the bound."""


class _Chain:
    """A deterministic Schreier-Sims stabilizer chain on vectors of F_p^n.

    Built whole by its constructor, which ``GeneratedGroup`` calls once;
    queries (``order``, ``contains``) read it and change nothing.  Vectors
    are handled as integer codes sum(v_i p^i).  Orbits grow by whole
    frontiers, transversal elements and their inverses are built by batched
    products from the level's generators and their stored inverses, and
    Schreier generators go through the sift a block at a time.  Any base gives a
    valid chain; each level takes the first basis vector it moves.  A level
    that gains generators extends its orbit.  Levels are completed in order,
    levels appended on the way last, and each exactly once: a residue of
    level i that sifts out of level j only joins levels i+1..j and grows
    their orbits, so no level gains a generator after it is completed, and
    completing a level forms its Schreier generators in one pass.

    Identity matrices in ``gens`` are dropped before anything else, and
    repeated ones kept once, in their first place, so a stack of
    identities gives an empty chain that computes no vector code.

    ``bound`` is called once, only when levels are about to be built, and
    returns an upper bound on the group order; so a costly bound is never
    computed for a chain that is empty or refused.  Each level's generators
    fix the earlier base points, so its orbit lies in the orbit of the true
    point stabilizer, and the product of the orbit lengths never exceeds
    |G|.  Once that product equals the bound after an orbit grows, every
    orbit is a full stabilizer orbit, so the build stops there (``stopped``)
    with no more sifting: the order, every membership answer and every
    stored orbit are those of the same build run to completion.
    """

    def __init__(
        self,
        gens: np.ndarray,
        p: int,
        n: int,
        limit: int,
        bound: Callable[[], int],
    ):
        self.p = p
        self.n = n
        self.limit = limit
        self.dtype = np.min_scalar_type(-(p - 1))
        self.bound: Optional[int] = None
        self.stopped = False
        self.eye = np.eye(n, dtype=np.int64)
        self.levels: list[_Level] = []
        gens = gens[~self._is_id(gens)]
        if len(gens):
            # with only identities the chain is empty and no code is computed
            gens = np.array(list({g.tobytes(): g for g in gens}.values()))
            _check_codes(p, n)
            self.bound = bound()
            top = _Level(self._pick_base(gens), p, self.dtype)
            for g in gens:
                top.admit(g, _inv(g, p))
            self.levels.append(top)
            try:
                # levels appended on the way are completed after the others
                i = 0
                while i < len(self.levels):
                    self._complete(i)
                    i += 1
            except _Reached:
                self.stopped = True

    def order(self) -> int:
        return math.prod(len(lvl.points) for lvl in self.levels)

    def contains(self, arrays: np.ndarray) -> np.ndarray:
        """Membership of each matrix in the stack ``arrays``."""
        residues = np.array(arrays, dtype=np.int64) % self.p
        self._sift(residues, 0)
        return self._is_id(residues)

    # -- orbits -----------------------------------------------------------

    def _pick_base(self, gens: np.ndarray) -> np.ndarray:
        """The first standard basis vector that some generator in ``gens`` moves.

        Both callers pass a stack holding a non-identity matrix.
        """
        return self.eye[np.flatnonzero((gens != self.eye).any(axis=(0, 1)))[0]]

    def _grow(self, idx: int) -> None:
        """Extend the orbit of level ``idx`` and its transversal to its generators.

        Raises ``_Reached`` once the orbit product then equals the bound.
        """
        lvl = self.levels[idx]
        if lvl.closed == len(lvl.gens):
            return
        budget = self.limit - sum(
            len(other.points) for k, other in enumerate(self.levels) if k != idx
        )
        steps = []
        stored, chunks = _orbit(lvl, self.p, budget + 1, steps)
        if stored > budget:
            raise _over_limit(self.limit)
        lvl.closed = len(lvl.gens)
        if not chunks:
            return
        p, old = self.p, len(lvl.points)
        points = np.concatenate([lvl.points, *chunks])
        trans = np.empty((len(points), self.n, self.n), dtype=self.dtype)
        trans_inv = np.empty_like(trans)
        trans[:old], trans_inv[:old] = lvl.trans, lvl.trans_inv
        for first, parents, j in steps:
            rows = slice(first, first + parents.size)
            trans[rows] = (lvl.gens[j] @ trans[parents].astype(np.int64)) % p
            trans_inv[rows] = (trans_inv[parents].astype(np.int64) @ lvl.gens_inv[j]) % p
        lvl.points, lvl.trans, lvl.trans_inv = points, trans, trans_inv
        if self.order() == self.bound:
            raise _Reached

    # -- sifting ----------------------------------------------------------

    def _is_id(self, stack: np.ndarray) -> np.ndarray:
        return np.all(stack == self.eye, axis=(1, 2))

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
        p, n = self.p, self.n
        per_block = max(1, _BLOCK_ENTRIES // (n * n))
        for g0 in range(0, len(lvl.gens), per_block):
            gens = lvl.gens[g0 : g0 + per_block]
            batch = max(1, per_block // len(gens))
            for a in range(0, len(lvl.points), batch):
                # row i * len(gens) + j of each stack belongs to (v_i, s_j)
                block = lvl.points[a : a + batch].astype(np.int64)
                images = (gens @ block.T).transpose(2, 0, 1) % p
                found = lvl.index.find(_codes(images.reshape(-1, n), p))
                trans = lvl.trans[a : a + batch, None].astype(np.int64)
                moved = (gens[None] @ trans) % p
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
            self.levels.append(_Level(self._pick_base(h[None]), self.p, self.dtype))
        h_inv = _inv(h, self.p)
        for lvl in self.levels[i + 1 : j + 1]:
            lvl.admit(h, h_inv)
        for idx in range(i + 1, j + 1):
            self._grow(idx)


class GeneratedGroup:
    """A matrix group given by generators, with its stabilizer chain.

    The constructor checks the generators with
    ``ff_linalg._check_generators`` and builds the chain (see ``_Chain``),
    which works on integer-coded vector orbits, keeps each strong generator
    and transversal element with its inverse, and drops identity and
    repeated generators itself.  The group is then immutable, and its chain
    is reached only by ``order``, ``contains_array`` and ``in``.
    ``limit``, an integer >= 0, caps the number of orbit vectors stored over
    all levels; it is checked after each batch of images, so storage never
    passes it by more than one batch before ``ResourceLimit`` is raised.
    Each stored vector keeps itself and two n x n transversal matrices in
    the narrowest integer dtype that holds p - 1: n + 2 n^2 bytes at
    p <= 127 (twice that up to p = 32767, four times below 2^31), plus its
    entry in the code index.  ``ResourceLimit`` is also raised when a chain
    is to be built and p^n does not fit in 64 bits, so a vector code can
    never wrap; a group of identities has an empty chain and computes no
    code.

    ``bound`` is a callable that returns an upper bound on the order, or
    None; it is called only when levels are about to be built: the
    derived-subgroup test passes the bound of a group of isometries, and
    the CLI's ``order`` solves for the invariant forms only then (with a
    lone pairing it hands the group to that test and abandons this build
    before any level).  Without it the build stops at ``_det_bound``.  A
    stopped chain stores the same orbits and gives the same answers as the
    same build run to completion, which is the build given a bound it
    cannot reach; a group that never reaches its bound gets that full build.
    """

    def __init__(
        self, gens: Sequence[Matrix], limit: int = 10**7, bound: Optional[Callable[[], Optional[int]]] = None
    ):
        self.gens, self.dim, self.p, self._dets = _check_generators(gens)
        if not isinstance(limit, (int, np.integer)) or limit < 0:
            raise InvalidInput(f"limit must be an integer >= 0, got {limit!r}")
        arrays = np.array([g.array for g in self.gens], dtype=np.int64)
        self._chain = _Chain(arrays, self.p, self.dim, limit, lambda: (bound and bound()) or self._det_bound())

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
        """The exact order."""
        return self._chain.order()

    def contains_array(self, a: np.ndarray) -> bool:
        """Membership of the n x n integer array ``a``, read mod p; other entries raise InvalidInput."""
        residues = Matrix(a, self.p).array
        if residues.shape != (self.dim, self.dim):
            raise InvalidInput(f"expected a {self.dim}x{self.dim} array, got shape {residues.shape}")
        return bool(self._chain.contains(residues[None])[0])

    def __contains__(self, m: Matrix) -> bool:
        if not isinstance(m, Matrix) or m.p != self.p or m.array.shape != (self.dim, self.dim):
            return False
        return self.contains_array(m.array)

    def __repr__(self) -> str:
        return f"GeneratedGroup({len(self.gens)} gens, dim {self.dim}, F_{self.p})"


def group_order(group: GeneratedGroup) -> int:
    """Exact order of the generated group, read from the chain its constructor built.

    Nothing in the package calls it: it is kept as the entry point the
    benchmark's convolution jobs import (``perfbench/child.py``).
    """
    return group.order()


# ---------------------------------------------------------------------------
# irreducibility


# Spaces with at most this many lines are decided by walking the lines;
# larger ones by the meataxe, which gives up after _MAX_TRIALS random
# group-algebra elements.
_EXHAUSTIVE_CAP = 3000
_MAX_TRIALS = 64


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    witness: Optional[Subspace]
    method: str
    trials: int = 0


def _spin(seed: np.ndarray, gens: np.ndarray, p: int) -> Subspace:
    """Smallest subspace containing the rows of ``seed`` and closed under ``gens``.

    Each round maps the basis rows added by the last round by every
    generator at once and adds the images that leave the span.
    """
    n = seed.shape[-1]
    space = Subspace(seed, n, p)
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


def is_irreducible(generators: Sequence[Matrix], seed: int = 0) -> IrreducibilityReport:
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

    Larger spaces use the meataxe search: spin kernel vectors of singular
    elements of the group algebra, with Norton's criterion giving an
    unconditional certificate when a nullity-one element is found; a group
    of scalars, where that search finds nothing, is reported reducible with
    the witness span(e_1) before any trial.  The meataxe draws its
    group-algebra elements from a ``Random(seed)``.  Raises Inconclusive if
    ``_MAX_TRIALS`` trials pass without a verdict.  No chain is built;
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
    if all(np.array_equal(g, g[0, 0] * eye) for g in gens):
        # every group-algebra element is then scalar, so the meataxe would
        # never spin a vector; every line is invariant
        return IrreducibilityReport(False, Subspace(eye[:1], n, p), "scalar")

    gens_t = gens.transpose(0, 2, 1)
    rng = Random(seed)
    for trial in range(1, _MAX_TRIALS + 1):
        theta = _random_algebra_element(gens, p, rng)
        for a in range(p):
            shifted = (theta - a * eye) % p
            nullspace = _kernel_basis(shifted, p)
            nullity = nullspace.shape[0]
            if nullity == 0 or nullity == n:
                continue
            for v in nullspace:
                space = _spin(v, gens, p)
                if space.dim < n:
                    return IrreducibilityReport(False, space, "meataxe", trial)
            if nullity == 1:
                # Norton: the kernel vector spins to V; check the transpose side
                conull = _kernel_basis(shifted.T, p)
                tspace = _spin(conull[0], gens_t, p)
                if tspace.dim == n:
                    return IrreducibilityReport(True, None, "meataxe-norton", trial)
                ann = _kernel_basis(tspace.basis, p)
                return IrreducibilityReport(
                    False, Subspace(ann, n, p), "meataxe-dual", trial
                )
    raise Inconclusive(
        f"no irreducibility verdict after {_MAX_TRIALS} random trials", _MAX_TRIALS
    )


def _random_algebra_element(gens, p: int, rng: Random) -> np.ndarray:
    n = gens[0].shape[0]
    theta = (rng.randrange(p) * np.eye(n, dtype=np.int64)) % p
    for _ in range(rng.randrange(2, 4)):
        word = np.eye(n, dtype=np.int64)
        for _ in range(rng.randrange(1, 4)):
            word = (word @ gens[rng.randrange(len(gens))]) % p
        theta = (theta + rng.randrange(1, p) * word) % p
    return theta


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
    p = a.p
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
