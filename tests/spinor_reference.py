"""Spinor norms by constructive reflection factorization, kept as a test oracle.

This is the algorithm ``monodromy.classical_groups.spinor_norm`` used
before it computed the discriminant of Wall's form: each round pins one
anisotropic vector v, orthogonal to the previously pinned ones, by
reflecting in g v - v when that displacement is anisotropic, and otherwise
in g v + v followed by v (one of the two is always anisotropic, since their
norms sum to 4<v,v>).  At most 2*dim reflections are used, and the norm is
the product of the square classes of <r,r> over the roots.  Tests compare
the library against it; the library does not import it.
"""

from __future__ import annotations

import numpy as np

from monodromy.classical_groups import (
    FormSpace,
    _vector_stream,
    is_isometry,
    reflection,
    square_class,
)
from monodromy.ff_linalg import Matrix


def apply(m: Matrix, vec) -> np.ndarray:
    """``m`` applied to a column vector (1-D int array), reduced mod p."""
    return (m.array @ np.asarray(vec, dtype=np.int64)) % m.p


def reference_spinor_norm(g: Matrix, space: FormSpace) -> int:
    """Spinor norm of an orthogonal isometry from a reflection factorization."""
    if space.parity != "symmetric":
        raise ValueError("spinor norm is defined on orthogonal groups")
    if not is_isometry(g, space):
        raise ValueError("matrix does not preserve the pairing")
    p = space.p
    n = space.dim
    one = Matrix.identity(n, p)
    gram = space.gram.array
    residue = g
    norm = 1
    pinned: list[np.ndarray] = []
    reflections_used = 0
    while residue != one:
        if reflections_used >= 2 * n:
            raise AssertionError(f"no reflection factorization within {2 * n} reflections")
        v = None
        for cand in _vector_stream(n, p):
            if space.q(cand) == 0:
                continue
            if any((cand @ gram @ u) % p for u in pinned):
                continue
            if (apply(residue, cand) != cand).any():
                v = cand
                break
        if v is None:
            raise AssertionError("residue is not the identity but fixes every candidate vector")
        image = apply(residue, v)
        diff = (image - v) % p
        if space.q(diff) != 0:
            norm *= square_class(space.q(diff), p)
            residue = reflection(space, diff) @ residue
            reflections_used += 1
        else:
            total = (image + v) % p
            norm *= square_class(space.q(total), p) * square_class(space.q(v), p)
            residue = reflection(space, v) @ reflection(space, total) @ residue
            reflections_used += 2
        pinned.append(v)
    return norm
