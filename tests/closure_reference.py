"""The matrix-at-a-time group closure, kept as a test oracle.

This is the loop ``monodromy.group_engine.naive_closure`` ran before it
multiplied whole frontiers by every generator at once: a depth-first walk
from the identity, one product at a time, keyed by the bytes of each
matrix.  Tests compare the batched closure against it; the library does
not import it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from monodromy.errors import ResourceLimit
from monodromy.ff_linalg import Matrix


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
