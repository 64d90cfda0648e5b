"""Brute-force group closures, kept as test oracles for small groups.

``naive_closure`` grows the group a frontier at a time, multiplying whole
blocks of matrices by every generator at once; tests check orders and
membership against it.  ``reference_closure`` is the loop it replaced: a
depth-first walk from the identity, one product at a time, keyed by the
bytes of each matrix, and the oracle for ``naive_closure`` itself.  The
library imports neither.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from monodromy.errors import ResourceLimit
from monodromy.ff_linalg import Matrix

# frontier matrices are multiplied in blocks of about this many int64 entries
_BLOCK_ENTRIES = 1 << 13


def naive_closure(gens: Sequence[Matrix], limit: int = 200_000) -> set[Matrix]:
    """Every element of the generated group, grown a frontier at a time.

    A block of frontier matrices is multiplied by every generator in one
    product, and each product is looked up in a set keyed by the bytes of
    its int64 entries, from which the matrices are read back.  Raises
    ResourceLimit when the group has more than ``limit`` elements; the
    limit is checked after each block, so storage passes it by at most one
    block.
    """
    p = gens[0].p
    n = gens[0].n
    stack = np.array([g.array for g in gens], dtype=np.int64)

    def matrices(keys) -> np.ndarray:
        return np.frombuffer(b"".join(keys), dtype=np.int64).reshape(-1, n, n)

    batch = max(1, _BLOCK_ENTRIES // (len(stack) * n * n))
    frontier = np.eye(n, dtype=np.int64)[None]
    found = {frontier[0].tobytes()}
    while len(frontier):
        fresh = []
        for a in range(0, len(frontier), batch):
            images = (frontier[a : a + batch, None] @ stack).reshape(-1, n, n) % p
            for m in images:
                key = m.tobytes()
                if key not in found:
                    found.add(key)
                    fresh.append(key)
            if len(found) > limit:
                raise ResourceLimit(f"closure exceeded {limit} elements")
        frontier = matrices(fresh)
    return {Matrix(a, p) for a in matrices(found)}


def reference_closure(gens: Sequence[Matrix], limit: int = 200_000) -> set[Matrix]:
    """Every element of the generated group; ResourceLimit past ``limit`` elements."""
    p = gens[0].p
    n = gens[0].n
    gen_arrays = [np.array(g.array, dtype=np.int64) for g in gens]
    eye = np.eye(n, dtype=np.int64)
    seen = {eye.tobytes(): eye}
    queue = [eye]
    while queue:
        m = queue.pop()
        for g in gen_arrays:
            nxt = (m @ g) % p
            key = nxt.tobytes()
            if key not in seen:
                seen[key] = nxt
                queue.append(nxt)
                if len(seen) > limit:
                    raise ResourceLimit(f"closure exceeded {limit} elements")
    return {Matrix(a, p) for a in seen.values()}
