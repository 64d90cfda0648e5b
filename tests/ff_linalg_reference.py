"""Earlier forms of ``monodromy.ff_linalg`` routines, kept as test oracles.

``jordan_type_full_scan`` is ``jordan_type`` as it was before it stopped
once the blocks found fill the space: it runs one rank computation for each
of the p - 1 candidate eigenvalues.  Tests compare its blocks and its
NonSplitSpectrum with the library.  ``det_numpy_loop`` is the numpy
elimination ``_det`` ran before it moved to Python ints.

The integer primitives have oracles too.  ``multiplicative_order_divisor_scan``
is ``group_engine._multiplicative_order`` as it was before it divided the
primes of p - 1 out of p - 1: the first d in the ascending divisors of
p - 1 with a^d = 1.  ``nonzero_vectors_per_index`` is
``classical_groups._nonzero_vectors`` before it decoded blocks of codes:
one vector per index, its digits taken one Python division at a time.
``primes_below`` is a sieve of Eratosthenes for ``is_prime``.  The library
imports none of them.
"""

from __future__ import annotations

import math

import numpy as np

from monodromy.errors import NonSplitSpectrum
from monodromy.ff_linalg import JordanData, Matrix, _rank


def jordan_type_full_scan(a: Matrix) -> JordanData:
    n = a.n
    p = a.p
    if a.det() == 0:
        raise ValueError("matrix is singular")
    blocks = []
    total = 0
    eye = np.eye(n, dtype=np.int64)
    for eig in range(1, p):
        b = (a.array - eig * eye) % p
        r1 = _rank(b, p)
        if r1 == n:
            continue
        ranks = [n, r1]
        power = b
        while ranks[-1] != ranks[-2]:
            power = (power @ b) % p
            ranks.append(_rank(power, p))
        for k in range(1, len(ranks) - 1):
            geq_k = ranks[k - 1] - ranks[k]
            geq_k1 = ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0
            for _ in range(geq_k - geq_k1):
                blocks.append((eig, k))
                total += k
    if total != n:
        raise NonSplitSpectrum(
            f"generalized eigenspaces span {total} of {n} dimensions over F_{p}"
        )
    return JordanData(blocks, p)


def det_numpy_loop(a: np.ndarray, p: int) -> int:
    m = np.array(a, dtype=np.int64) % p
    n = m.shape[0]
    det = 1
    for j in range(n):
        nz = np.nonzero(m[j:, j])[0]
        if nz.size == 0:
            return 0
        i = j + int(nz[0])
        if i != j:
            m[[j, i]] = m[[i, j]]
            det = -det
        piv = int(m[j, j])
        det = (det * piv) % p
        inv = pow(piv, -1, p)
        below = np.nonzero(m[j + 1:, j])[0]
        if below.size:
            rows = j + 1 + below
            factors = (m[rows, j] * inv) % p
            m[rows] = (m[rows] - np.outer(factors, m[j])) % p
    return det % p


def sorted_divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def multiplicative_order_divisor_scan(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    for d in sorted_divisors(p - 1):
        if pow(a, d, p) == 1:
            return d
    raise AssertionError("unreachable")


def nonzero_vectors_per_index(n: int, p: int):
    for idx in range(1, p**n):
        yield np.array([(idx // p**k) % p for k in range(n)], dtype=np.int64)


def primes_below(limit: int) -> list[int]:
    sieve = [True] * limit
    sieve[:2] = [False] * min(2, limit)
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, limit, d))
    return [n for n, prime in enumerate(sieve) if prime]
