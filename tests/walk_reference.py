"""The witness-orbit walk on a position index, kept as a test oracle.

This is the walk that ``monodromy.group_engine._orbit_reaches`` made
before it marked vectors only as seen: the chain's orbit loop, on a level
of its own based at the witness vector, giving every new vector an orbit
position in a code index.  The index is a dense position table when
p^n <= 2^20 and sorted runs of codes otherwise, searched by binary search;
``SortedIndex`` alone also stands in for a chain index that never turns
dense.  Tests compare the engine against it; the library does not import
it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from monodromy.errors import ResourceLimit
from monodromy.ff_linalg import Matrix, _codes

_BLOCK_ENTRIES = 1 << 13
_DENSE_CODES = 1 << 20


class DenseIndex:
    """Code -> orbit position, as a table over every code (-1: not in the orbit)."""

    def __init__(self, size: int):
        self.table = np.full(size, -1, dtype=np.int32)

    def find(self, codes: np.ndarray) -> np.ndarray:
        return self.table[codes]

    def add(self, codes: np.ndarray, positions: np.ndarray) -> None:
        self.table[codes] = positions


class SortedIndex:
    """Code -> orbit position by binary search over sorted runs of codes.

    A new run is merged into the last one while that one is at most twice
    its size, so m codes sit in O(log m) runs.  It takes, and ignores, the
    size of the space that a ``group_engine._CodeIndex`` takes, so a test
    can build a chain on it in place of that index.
    """

    def __init__(self, size: int = 0):
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


def reference_orbit_reaches(gens: Sequence[Matrix], base: np.ndarray, size: int, limit: int) -> bool:
    """Whether the orbit of ``base`` under ``gens`` has ``size`` vectors; the caller knows it has at most that many.

    Each round maps the last round's vectors by every generator, a batch
    at a time, and gives each new code the next orbit position.  Stops once
    min(size, limit + 1) vectors are stored, and raises ResourceLimit when
    more than ``limit`` are, or when p^n >= 2^63.
    """
    p, n = gens[0].p, len(base)
    if p**n >= 2**63:
        raise ResourceLimit(f"vector codes of F_{p}^{n} do not fit in 64 bits")
    cap = min(size, limit + 1)
    arrays = np.array([g.array for g in gens], dtype=np.int64)
    index = DenseIndex(p**n) if p**n <= _DENSE_CODES else SortedIndex()
    index.add(_codes(base[None], p), np.zeros(1, dtype=np.int64))
    dtype = np.min_scalar_type(-(p - 1))
    frontier = base[None].astype(dtype)
    batch = max(1, _BLOCK_ENTRIES // n)
    total = 1
    while total < cap:
        chunks = []
        for a in range(0, len(frontier), batch):
            block = frontier[a : a + batch].astype(np.int64)
            for g in arrays:
                images = (block @ g.T) % p
                codes = _codes(images, p)
                fresh = np.flatnonzero(index.find(codes) < 0)
                if fresh.size:
                    index.add(codes[fresh], np.arange(total, total + fresh.size))
                    chunks.append(images[fresh].astype(dtype))
                    total += fresh.size
                if total >= cap:
                    break
            if total >= cap:
                break
        if not chunks:
            break
        frontier = np.concatenate(chunks)
    if total > limit:
        raise ResourceLimit(f"orbit storage exceeded the configured cap of {limit} vectors")
    return total == size
