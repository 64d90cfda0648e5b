"""The vector-at-a-time Schreier-Sims engine, kept as a test oracle.

This is the stabilizer-chain code that ``monodromy.group_engine`` used
before its orbits, transversals and sifts were batched over integer codes.
It runs the same algorithm (greedy largest-orbit base, every Schreier
generator sifted) one vector and one matrix at a time, with transversal
inverses computed by row reduction.  Tests compare the batched engine
against it; the library does not import it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from monodromy.errors import ResourceLimit
from monodromy.ff_linalg import Matrix, _inv


class _Level:
    __slots__ = ("base", "gens", "transversal", "invcache")

    def __init__(self, base: np.ndarray):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.transversal: dict[bytes, np.ndarray] = {}
        self.invcache: dict[bytes, np.ndarray] = {}


def _orbit_size(gens: Sequence[np.ndarray], start: np.ndarray, p: int, cap: int) -> int:
    seen = {start.tobytes()}
    queue = [start]
    while queue:
        v = queue.pop()
        for g in gens:
            w = (g @ v) % p
            key = w.tobytes()
            if key not in seen:
                seen.add(key)
                queue.append(w)
                if len(seen) >= cap:
                    return len(seen)
    return len(seen)


class ReferenceGroup:
    """Order and membership of the group generated by ``gens``, slowly."""

    def __init__(self, gens: Sequence[Matrix], limit: int = 10**7):
        self.p = gens[0].p
        self.dim = gens[0].n
        self.limit = limit
        self._eye = np.eye(self.dim, dtype=np.int64)
        self._levels: list[_Level] = []
        nontrivial = []
        seen = set()
        for g in gens:
            key = g.array.tobytes()
            if not g.is_identity() and key not in seen:
                seen.add(key)
                nontrivial.append(np.array(g.array, dtype=np.int64))
        if nontrivial:
            root = _Level(self._pick_base(nontrivial))
            root.gens = nontrivial
            self._levels.append(root)
            self._complete_level(0)

    def order(self) -> int:
        out = 1
        for lvl in self._levels:
            out *= len(lvl.transversal)
        return out

    def contains_array(self, a: np.ndarray) -> bool:
        residue, _ = self._strip(np.asarray(a, dtype=np.int64) % self.p, 0)
        return self._is_id(residue)

    def _is_id(self, a: np.ndarray) -> bool:
        return bool(np.array_equal(a, self._eye))

    def _pick_base(self, gens: Sequence[np.ndarray]) -> np.ndarray:
        best = None
        best_size = 0
        sizing_cap = min(self.limit, 200_000)
        for i in range(self.dim):
            e = self._eye[i].copy()
            if all(np.array_equal((g @ e) % self.p, e) for g in gens):
                continue
            size = _orbit_size(gens, e, self.p, sizing_cap)
            if size > best_size:
                best, best_size = e, size
        if best is None:
            raise ValueError("generators act trivially on all basis vectors")
        return best

    def _rebuild_orbit(self, idx: int) -> None:
        lvl = self._levels[idx]
        p = self.p
        lvl.transversal = {lvl.base.tobytes(): self._eye}
        lvl.invcache = {}
        queue = [lvl.base]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            u_v = lvl.transversal[v.tobytes()]
            for g in lvl.gens:
                w = (g @ v) % p
                key = w.tobytes()
                if key not in lvl.transversal:
                    lvl.transversal[key] = (g @ u_v) % p
                    queue.append(w)
        if sum(len(lvl.transversal) for lvl in self._levels) > self.limit:
            raise ResourceLimit(
                f"orbit storage exceeded the configured cap of {self.limit} vectors"
            )

    def _transversal_inverse(self, lvl: _Level, key: bytes) -> np.ndarray:
        inv = lvl.invcache.get(key)
        if inv is None:
            inv = _inv(lvl.transversal[key], self.p)
            lvl.invcache[key] = inv
        return inv

    def _strip(self, g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        p = self.p
        for idx in range(start, len(self._levels)):
            lvl = self._levels[idx]
            img = (g @ lvl.base) % p
            key = img.tobytes()
            if key not in lvl.transversal:
                return g, idx
            g = (self._transversal_inverse(lvl, key) @ g) % p
        return g, len(self._levels)

    def _complete_level(self, i: int) -> None:
        lvl = self._levels[i]
        self._rebuild_orbit(i)
        p = self.p
        orbit = [(np.frombuffer(key, dtype=np.int64), key) for key in lvl.transversal]
        for v, key in orbit:
            u_v = lvl.transversal[key]
            for s in lvl.gens:
                w = (s @ v) % p
                u_w_inv = self._transversal_inverse(lvl, w.tobytes())
                schreier = (u_w_inv @ ((s @ u_v) % p)) % p
                if self._is_id(schreier):
                    continue
                h, j = self._strip(schreier, i + 1)
                if self._is_id(h):
                    continue
                if j == len(self._levels):
                    new = _Level(self._pick_base([h]))
                    new.gens.append(h)
                    self._levels.append(new)
                hkey = h.tobytes()
                for l in range(i + 1, j + 1):
                    target = self._levels[l]
                    if not any(g.tobytes() == hkey for g in target.gens):
                        target.gens.append(h)
                for l in range(j, i, -1):
                    self._complete_level(l)
