"""The form spaces the tests use, and the isometries and vectors they build in them.

``dot``, ``diagonal`` and ``hyperbolic`` make the standard symmetric
spaces from their Gram matrices.  ``reflection``, ``transvection`` and
``siegel_shear`` build the drop-1 and isotropic-shear isometries of a
space, and ``random_isometry`` multiplies seeded random ones;
``without_drop_one`` is a fixed set of such products with no generator of
drop one.  The vectors come in a fixed scan order (``vector_stream``:
sparse vectors first, then every nonzero vector by code), so a seeded
test builds the same group on every run.  The library does not import this module.
"""

from __future__ import annotations

from random import Random

import numpy as np

from monodromy.classical_groups import FormSpace
from monodromy.errors import InvalidInput
from monodromy.ff_linalg import Matrix, _vectors


def dot(dim: int, p: int) -> FormSpace:
    """Standard symmetric space with the identity Gram matrix."""
    return FormSpace(Matrix.identity(dim, p), "symmetric")


def diagonal(dim: int, p: int, d: int) -> FormSpace:
    """Symmetric space with Gram matrix diag(1, ..., 1, d).

    With d a nonsquare (``nonsquare``) it has the other discriminant from
    ``dot``: the minus type in dimension 4, where ``dot`` is the plus type.
    """
    g = np.eye(dim, dtype=np.int64)
    g[-1, -1] = d
    return FormSpace(Matrix(g, p), "symmetric")


def nonsquare(p: int) -> int:
    """The least nonsquare mod the odd prime p."""
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def hyperbolic(dim: int, p: int) -> FormSpace:
    """Symmetric space of maximal Witt index, even ``dim``: <e_i, f_j> = delta_ij."""
    m = dim // 2
    g = np.zeros((dim, dim), dtype=np.int64)
    g[:m, m:] = np.eye(m, dtype=np.int64)
    g[m:, :m] = np.eye(m, dtype=np.int64)
    return FormSpace(Matrix(g, p), "symmetric")


def vector_stream(n: int, p: int):
    """All vectors of F_p^n, cheap sparse ones first."""
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        yield eye[i]
    for i in range(n):
        for j in range(i + 1, n):
            for c in range(1, p):
                yield (eye[i] + c * eye[j]) % p
    yield from nonzero_vectors(n, p)


def nonzero_vectors(n: int, p: int):
    """Every nonzero vector of F_p^n in counting order, coordinate 0 fastest."""
    total = p**n
    for start in range(1, total, 256):
        yield from _vectors(np.arange(start, min(start + 256, total)), n, p)


def anisotropic_vectors(space: FormSpace, count: int) -> list[np.ndarray]:
    """The first ``count`` anisotropic vectors in a fixed scan order."""
    out = []
    seen = set()
    for v in vector_stream(space.dim, space.p):
        if space.q(v) == 0:
            continue
        key = v.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(v)
        if len(out) == count:
            break
    return out


def isotropic_vectors(space: FormSpace, count: int) -> list[np.ndarray]:
    """The first ``count`` nonzero isotropic vectors in a fixed scan order."""
    out = []
    for v in nonzero_vectors(space.dim, space.p):
        if space.q(v) == 0:
            out.append(v)
            if len(out) == count:
                break
    return out


def reflection(space: FormSpace, root: np.ndarray) -> Matrix:
    """The reflection x -> x - 2<x,r>/<r,r> r in an anisotropic root r."""
    if space.parity != "symmetric":
        raise InvalidInput("reflections live in orthogonal groups")
    p = space.p
    r = np.asarray(root, dtype=np.int64) % p
    qr = space.q(r)
    if qr == 0:
        raise InvalidInput("root must be anisotropic")
    c = (2 * pow(qr, -1, p)) % p
    row = (c * ((space.gram.array @ r) % p)) % p
    m = (np.eye(space.dim, dtype=np.int64) - np.outer(r, row)) % p
    return Matrix(m, p)


def transvection(space: FormSpace, v: np.ndarray, c: int = 1) -> Matrix:
    """The symplectic transvection x -> x + c <v,x> v."""
    if space.parity != "alternating":
        raise InvalidInput("transvections live in symplectic groups")
    p = space.p
    v = np.asarray(v, dtype=np.int64) % p
    if not v.any():
        raise InvalidInput("direction must be nonzero")
    row = ((c % p) * ((space.gram.array.T @ v) % p)) % p
    m = (np.eye(space.dim, dtype=np.int64) + np.outer(v, row)) % p
    return Matrix(m, p)


def siegel_shear(space: FormSpace, u: np.ndarray, w: np.ndarray) -> Matrix:
    """The isotropic shear x -> x + <x,u> w - <x,w> u.

    Needs u, w spanning a totally isotropic plane (so a symmetric space must
    have Witt index >= 2).
    """
    p = space.p
    u = np.asarray(u, dtype=np.int64) % p
    w = np.asarray(w, dtype=np.int64) % p
    if space.q(u) or space.q(w) or space.pair(u, w):
        raise InvalidInput("u and w must span a totally isotropic plane")
    gt = space.gram.array.T
    m = (
        np.eye(space.dim, dtype=np.int64)
        + np.outer(w, (gt @ u) % p)
        - np.outer(u, (gt @ w) % p)
    ) % p
    return Matrix(m, p)


def random_isometry(space: FormSpace, rng, length: int = 6) -> Matrix:
    """Product of ``length`` random reflections or transvections."""
    p = space.p
    out = Matrix.identity(space.dim, p)
    if space.parity == "symmetric":
        pool = anisotropic_vectors(space, 4 * space.dim)
        for _ in range(length):
            out = out @ reflection(space, pool[rng.randrange(len(pool))])
    else:
        n = space.dim
        for _ in range(length):
            v = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            if not v.any():
                v[rng.randrange(n)] = 1
            out = out @ transvection(space, v, rng.randrange(1, p))
    return out


def without_drop_one() -> tuple[FormSpace, list[Matrix]]:
    """Sp(8, 3) and two products of six seeded random transvections, each of drop more than one.

    F_3^8 has 3280 lines, more than ``is_irreducible`` walks, so with no
    generator g of rank(g - 1) = 1 it cannot decide this group.
    """
    space = FormSpace.symplectic(8, 3)
    rng = Random(8)
    gens = [random_isometry(space, rng) for _ in range(2)]
    assert all((g - Matrix.identity(8, 3)).rank() > 1 for g in gens)
    return space, gens
