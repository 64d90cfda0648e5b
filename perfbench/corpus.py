"""Seeded inputs and expected answers for the benchmark, independent of the library.

Everything here is plain integer arithmetic mod p written for the benchmark:
it never imports ``monodromy``, so a change to the engine under test can
change neither the inputs nor the answers they are checked against.
"""

from __future__ import annotations

from random import Random

import numpy as np


# ---------------------------------------------------------------------------
# closed-form group orders


def sp_order(dim: int, p: int) -> int:
    """|Sp(dim, p)| = p^(m^2) * prod_{i=1..m} (p^(2i) - 1), dim = 2m."""
    m = dim // 2
    out = p ** (m * m)
    for i in range(1, m + 1):
        out *= p ** (2 * i) - 1
    return out


def o_order(dim: int, p: int, witt_sign: int = 1) -> int:
    """|O(dim, p)| for odd p; ``witt_sign`` picks O+ or O- in even dimension."""
    m = dim // 2
    if dim % 2:
        out = 2 * p ** (m * m)
        for i in range(1, m + 1):
            out *= p ** (2 * i) - 1
        return out
    out = 2 * p ** (m * (m - 1)) * (p**m - witt_sign)
    for i in range(1, m):
        out *= p ** (2 * i) - 1
    return out


def gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


# ---------------------------------------------------------------------------
# linear algebra mod p


def rank_mod(a: np.ndarray, p: int) -> int:
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    rank = 0
    for j in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i, j]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, j]), -1, p)) % p
        for i in range(rows):
            if i != rank and m[i, j]:
                m[i] = (m[i] - m[i, j] * m[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def inv_mod(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    aug = np.concatenate([np.array(a, dtype=np.int64) % p, np.eye(n, dtype=np.int64)], axis=1)
    for j in range(n):
        pivot = next(i for i in range(j, n) if aug[i, j])
        aug[[j, pivot]] = aug[[pivot, j]]
        aug[j] = (aug[j] * pow(int(aug[j, j]), -1, p)) % p
        for i in range(n):
            if i != j and aug[i, j]:
                aug[i] = (aug[i] - aug[i, j] * aug[j]) % p
    return aug[:, n:]


def _random_invertible(n: int, p: int, rng: Random) -> np.ndarray:
    while True:
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if rank_mod(a, p) == n:
            return a


def _splits(a: np.ndarray, p: int) -> bool:
    """Whether the characteristic polynomial of ``a`` splits over F_p."""
    n = a.shape[0]
    eye = np.eye(n, dtype=np.int64)
    total = 0
    for eig in range(1, p):
        b = (a - eig * eye) % p
        power = eye
        for _ in range(n):
            power = (power @ b) % p
        total += n - rank_mod(power, p)
    return total == n


def _irreducible(mats: list[np.ndarray], p: int) -> bool:
    """Exhaustive line spinning: no line spins to a proper nonzero subspace."""
    n = mats[0].shape[0]
    for lead in range(n):
        tail = n - lead - 1
        for idx in range(p**tail):
            v = np.zeros(n, dtype=np.int64)
            v[lead] = 1
            for k in range(tail):
                v[lead + 1 + k] = (idx // p**k) % p
            span = [v]
            frontier = [v]
            while frontier and len(span) < n:
                w = frontier.pop()
                for m in mats:
                    img = (m @ w) % p
                    if rank_mod(np.stack(span + [img]), p) > len(span):
                        span.append(img)
                        frontier.append(img)
            if len(span) < n:
                return False
    return True


# ---------------------------------------------------------------------------
# convolution corpus (the shape of acceptance criterion 5)


def _conv_tuple(rng: Random, n: int, p: int) -> dict | None:
    r = rng.randrange(2, 6)
    mats = []
    for _ in range(r):
        jordan = np.zeros((n, n), dtype=np.int64)
        pos = 0
        while pos < n:
            size = rng.randrange(1, n - pos + 1)
            eig = rng.randrange(1, p)
            for i in range(size):
                jordan[pos + i, pos + i] = eig
                if i + 1 < size:
                    jordan[pos + i, pos + i + 1] = 1
            pos += size
        g = _random_invertible(n, p, rng)
        mats.append((inv_mod(g, p) @ jordan @ g) % p)
    eye = np.eye(n, dtype=np.int64)
    product = eye
    for m in mats:
        product = (product @ m) % p
    nontrivial = sum(1 for m in mats if not np.array_equal(m, eye))
    if nontrivial < 2 or not _splits(product, p):
        return None
    if n > 1 and not _irreducible(mats, p):
        return None
    # rank of MC_{-1}: sum of rk(A_i - 1) minus the fixed space of -A_infinity
    infinity = inv_mod(product, p)
    fixed = n - rank_mod((-infinity - eye) % p, p)
    expected_rank = sum(rank_mod((m - eye) % p, p) for m in mats) - fixed
    return {
        "kind": "conv",
        "p": p,
        "labels": [i if i < p else f"t{i}" for i in range(r)],
        "matrices": [m.tolist() for m in mats],
        "expected_rank": expected_rank,
        "gl_order": gl_order(n, p),
    }


# (rank, prime): count among the 100 tuples that acceptance criterion 5
# accepts (its generator and category filter, Random(2024)).  The ranks
# come out 52:31:17, because the filter rejects more tuples of higher rank.
# The pairs are dealt in these proportions rather than drawn, so every seed
# gets the same mix of cheap and costly jobs and run-to-run differences come
# from the program, not from the mix.
CONV_MIX = {
    (1, 3): 15, (1, 5): 14, (1, 7): 23,
    (2, 3): 5, (2, 5): 11, (2, 7): 15,
    (3, 3): 3, (3, 5): 5, (3, 7): 9,
}
_CONV_DEAL = [pair for pair, count in CONV_MIX.items() for _ in range(count)]


def conv_corpus(rng: Random, count: int) -> list[dict]:
    """``count`` tuples, their (rank, prime) taken evenly spaced from the criterion 5 mix."""
    out = []
    while len(out) < count:
        n, p = _CONV_DEAL[len(out) * len(_CONV_DEAL) // count]
        job = _conv_tuple(rng, n, p)
        if job is not None:
            out.append(job)
    return out


# ---------------------------------------------------------------------------
# random generator sets (the shape of acceptance criterion 7)


def _gram(kind: str, dim: int) -> np.ndarray:
    m = dim // 2
    g = np.zeros((dim, dim), dtype=np.int64)
    if kind == "dot":
        return np.eye(dim, dtype=np.int64)
    g[:m, m:] = np.eye(m, dtype=np.int64)
    g[m:, :m] = -np.eye(m, dtype=np.int64) if kind == "symplectic" else np.eye(m, dtype=np.int64)
    return g


# (name, form, dim, p, |isometry group|, |derived subgroup|)
SWEEP_SPACES = [
    ("Sp4(3)", "symplectic", 4, 3, sp_order(4, 3), sp_order(4, 3)),
    ("Sp2(5)", "symplectic", 2, 5, sp_order(2, 5), sp_order(2, 5)),
    ("O4+(5)", "hyperbolic", 4, 5, o_order(4, 5, +1), o_order(4, 5, +1) // 4),
    ("O5(5)", "dot", 5, 5, o_order(5, 5), o_order(5, 5) // 4),
]


def _random_vector(rng: Random, dim: int, p: int) -> np.ndarray:
    while True:
        v = np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
        if v.any():
            return v


def _transvection(gram, v, c, p):
    return (np.eye(len(v), dtype=np.int64) + c * np.outer(v, gram.T @ v)) % p


def _reflection(gram, r, p):
    c = (2 * pow(int(r @ gram @ r) % p, -1, p)) % p
    return (np.eye(len(r), dtype=np.int64) - c * np.outer(r, gram @ r)) % p


def _anisotropic(rng, gram, p):
    while True:
        v = _random_vector(rng, gram.shape[0], p)
        if (v @ gram @ v) % p:
            return v


def _isotropic(rng, gram, p):
    while True:
        v = _random_vector(rng, gram.shape[0], p)
        if not (v @ gram @ v) % p:
            return v


def _isometry_product(rng, gram, p, parity):
    dim = gram.shape[0]
    out = np.eye(dim, dtype=np.int64)
    for _ in range(rng.randrange(2, 6)):
        if parity == "alternating":
            step = _transvection(gram, _random_vector(rng, dim, p), rng.randrange(1, p), p)
        else:
            step = _reflection(gram, _anisotropic(rng, gram, p), p)
        out = (out @ step) % p
    return out


def _random_generator(rng: Random, gram: np.ndarray, p: int, parity: str) -> np.ndarray:
    dim = gram.shape[0]
    roll = rng.random()
    if parity == "alternating":
        if roll < 0.6:
            return _transvection(gram, _random_vector(rng, dim, p), rng.randrange(1, p), p)
        return _isometry_product(rng, gram, p, parity)
    if roll < 0.45:
        return _reflection(gram, _anisotropic(rng, gram, p), p)
    if roll < 0.7:
        # isotropic shear x -> x + <x,u> w - <x,w> u on a totally isotropic plane
        for _ in range(60):
            u = _isotropic(rng, gram, p)
            w = _isotropic(rng, gram, p)
            if (u @ gram @ w) % p:
                continue
            shear = (np.eye(dim, dtype=np.int64) + np.outer(w, gram.T @ u) - np.outer(u, gram.T @ w)) % p
            if not np.array_equal(shear, np.eye(dim, dtype=np.int64)):
                return shear
    return _isometry_product(rng, gram, p, parity)


def xval_corpus(rng: Random, per_space: int, spaces=SWEEP_SPACES) -> list[dict]:
    out = []
    for name, kind, dim, p, full_order, derived_order in spaces:
        gram = _gram(kind, dim) % p
        parity = "alternating" if kind == "symplectic" else "symmetric"
        for j in range(per_space):
            # one to four generators, in rotation like the ranks above
            gens = [_random_generator(rng, gram, p, parity) for _ in range(1 + j % 4)]
            for g in gens:
                if not np.array_equal((g.T @ gram @ g) % p, gram):
                    raise AssertionError(f"generator for {name} is not an isometry")
            out.append({
                "kind": "xval",
                "space": name,
                "parity": parity,
                "p": p,
                "gram": gram.tolist(),
                "generators": [g.tolist() for g in gens],
                "s0": [i for i in range(len(gens)) if rng.random() < 0.25],
                "r": rng.randrange(1, 4),
                "full_order": full_order,
                "derived_order": derived_order,
            })
    return out


def sweep_corpus(seed: int, conv_jobs: int, xval_per_space: int, spaces=SWEEP_SPACES) -> list[dict]:
    """The sweep-lib corpus: ``conv_jobs`` tuples and the generator sets, shuffled.

    Shuffling spreads every job group over the whole run, so each group's
    mean time samples the same stretch of a noisy machine as the others.
    """
    rng = Random(seed)
    jobs = conv_corpus(rng, conv_jobs) + xval_corpus(rng, xval_per_space, spaces)
    rng.shuffle(jobs)
    return jobs
