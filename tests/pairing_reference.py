"""The pair search of ``classical_groups.invariant_pairing`` over all of F_p, kept as a test oracle.

This is the loop the pair search ran before it tried only b = 0..n and
the b solved from each parity condition: every b in F_p, for each pair of
basis forms i <= j.  Tests compare ``classical_groups._pair_form``
against it; the library does not import it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from monodromy.ff_linalg import Matrix


def pair_form_full_scan(basis: Sequence[Matrix]) -> Optional[tuple[int, int, int, Matrix]]:
    """(i, j, b, B_i + b B_j) for the first non-degenerate symmetric or alternating form."""
    p = basis[0].p
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            for b in range(p):
                cand = basis[i] + b * basis[j]
                if cand.det() == 0:
                    continue
                if cand.T == cand or cand.T == -cand:
                    return i, j, b, cand
    return None
