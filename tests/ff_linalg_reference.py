"""Earlier forms of ``monodromy.ff_linalg`` routines, kept as test oracles.

``jordan_type_full_scan`` is ``jordan_type`` as it was before it stopped
once the blocks found fill the space: it runs one rank computation for each
of the p - 1 candidate eigenvalues.  Tests compare its blocks and its
NonSplitSpectrum with the library.  ``det_numpy_loop`` is the numpy
elimination ``_det`` ran before it moved to Python ints.  The library
imports neither.
"""

from __future__ import annotations

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
