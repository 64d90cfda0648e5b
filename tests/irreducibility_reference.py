"""Exhaustive irreducibility by spinning every line, kept as a test oracle.

This is the exhaustive branch that ``monodromy.group_engine.is_irreducible``
used before it spun one line per G-orbit: an incremental echelon basis, a
queue-based spin and a per-coordinate line enumerator, every line spun in
order until one spans a proper subspace.  Tests compare verdict, method and
witness with the library; the library does not import it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from monodromy.ff_linalg import Matrix, Subspace, _echelon_reduce
from monodromy.group_engine import IrreducibilityReport


class _SpinBasis:
    """Row space under incremental echelon reduction, its rows and pivots
    kept in preallocated arrays and cleared in place."""

    def __init__(self, ambient: int, p: int):
        self.ambient = ambient
        self.p = p
        self._store = np.zeros((ambient, ambient), dtype=np.int64)
        self._pivot_store = np.zeros(ambient, dtype=np.intp)
        self.rows = self._store[:0]
        self.pivots = self._pivot_store[:0]

    def add(self, vec: np.ndarray) -> bool:
        v = _echelon_reduce(vec, self.rows, self.pivots, self.p)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = (v * pow(int(v[piv]), -1, self.p)) % self.p
        self.rows -= self.rows[:, piv, None] * v
        self.rows %= self.p
        dim = self.dim
        self._store[dim], self._pivot_store[dim] = v, piv
        self.rows, self.pivots = self._store[: dim + 1], self._pivot_store[: dim + 1]
        return True

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def subspace(self) -> Subspace:
        return Subspace(self.rows, self.ambient, self.p)


def _spin(seed_vec: np.ndarray, gens: Sequence[np.ndarray], p: int) -> _SpinBasis:
    """Smallest subspace containing the seed and closed under the generators."""
    n = seed_vec.shape[0]
    basis = _SpinBasis(n, p)
    basis.add(seed_vec)
    # copies: the basis clears its rows in place as it grows
    queue = list(basis.rows.copy())
    while queue and basis.dim < n:
        v = queue.pop()
        for g in gens:
            if basis.add(g @ v):
                queue.append(basis.rows[-1].copy())
    return basis


def _lines(n: int, p: int):
    """One representative per line of F_p^n (leading coefficient 1)."""
    for lead in range(n):
        tail = n - lead - 1
        for idx in range(p**tail):
            v = np.zeros(n, dtype=np.int64)
            v[lead] = 1
            rest = idx
            for k in range(tail):
                v[lead + 1 + k] = rest % p
                rest //= p
            yield v


def exhaustive_irreducibility(generators: Sequence[Matrix]) -> IrreducibilityReport:
    """Spin every line of F_p^n in order under the generators; the first proper span is the witness."""
    n, p = generators[0].n, generators[0].p
    gens = [np.array(g.array, dtype=np.int64) for g in generators]
    if n == 1:
        return IrreducibilityReport(True, None, "dimension-one")
    for v in _lines(n, p):
        basis = _spin(v, gens, p)
        if 0 < basis.dim < n:
            return IrreducibilityReport(False, basis.subspace(), "exhaustive")
    return IrreducibilityReport(True, None, "exhaustive")
