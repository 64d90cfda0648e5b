"""The commutator probe: a non-commuting reflection/shear pair and their commutator.

The certificate's orthogonal case asks for a reflection and an isotropic
shear among the generators.  When such a pair does not commute, their
commutator is unipotent with one Jordan block of size 3, so its order is
exactly p.
``commutator_probe`` finds the first such pair and returns the
three-dimensional subspace the pair acts on, with the restrictions of the
reflection, the shear and the commutator to it.  No report reads it;
tests check the identity on it.  The library does not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from monodromy.certifier import Hypotheses
from monodromy.classical_groups import ISOTROPIC_SHEAR, REFLECTION
from monodromy.errors import InvalidInput
from monodromy.ff_linalg import Matrix, _kernel_basis, _rref, _solve
from monodromy.group_engine import element_order


@dataclass(frozen=True)
class ProbeWitness:
    """A non-commuting reflection/shear pair and their commutator, of order p.

    ``basis`` rows span the three-dimensional subspace (x, y, z) on which
    the pair acts in the canonical triangular shape; ``restrictions`` holds
    the restricted matrices of the reflection, the shear, and their
    commutator in that basis.
    """

    reflection_index: int
    shear_index: int
    commutator: Matrix
    order: int
    basis: Matrix
    restrictions: dict


def commutator_probe(h: Hypotheses) -> Optional[ProbeWitness]:
    """The first non-commuting reflection/shear pair among the generators.

    Let rho be the reflection in the root z, sigma the isotropic shear,
    N = sigma - 1 and x = N z.  The pair commutes exactly when x = 0; such
    pairs are skipped.  Otherwise ker N is the orthogonal complement of the
    isotropic space im N, which does not hold the anisotropic z, so some
    shear-fixed y has (rho - 1) y = z after rescaling.  Then (x, y, z) has
    rank 3, and the commutator rho_z rho_(z+x) is unipotent with one Jordan
    block of size 3, so its order is exactly p.  The witness holds that
    basis and the restrictions to it.  Returns None when every pair
    commutes.
    """
    space = h.space
    p = space.p
    mats = h.generators
    classes = h.classes
    refl_idx = [i for i, c in enumerate(classes) if c.tag == REFLECTION]
    shear_idx = [i for i, c in enumerate(classes) if c.tag == ISOTROPIC_SHEAR]
    if not refl_idx or not shear_idx:
        raise InvalidInput("need a reflection and an isotropic shear among generators")
    eye = np.eye(space.dim, dtype=np.int64)
    for i in refl_idx:
        rho = mats[i]
        rho_shift = (rho.array - eye) % p
        # the root z of the reflection, scaled to 1 at its pivot k, so
        # (rho - 1) v = (rho_shift[k] @ v) z
        root_rows, pivots = _rref(rho_shift.T, p)
        z, k = root_rows[0], pivots[0]
        for j in shear_idx:
            sigma = mats[j]
            shift = (sigma.array - eye) % p
            x = (shift @ z) % p
            if not x.any():
                continue
            cand = next(v for v in _kernel_basis(shift, p) if (rho_shift[k] @ v) % p)
            y = (cand * pow(int((rho_shift[k] @ cand) % p), -1, p)) % p
            basis_rows = np.stack([x, y, z])
            comm = rho @ sigma @ rho @ sigma.inv()
            # span(x, y, z) is invariant under rho and sigma, so each solve succeeds;
            # column b holds the coordinates of m applied to basis row b
            restrictions = {
                name: Matrix(_solve(basis_rows.T, (m.array @ basis_rows.T) % p, p), p)
                for name, m in (("reflection", rho), ("shear", sigma), ("commutator", comm))
            }
            return ProbeWitness(
                reflection_index=i,
                shear_index=j,
                commutator=comm,
                order=element_order(comm),
                basis=Matrix(basis_rows, p),
                restrictions=restrictions,
            )
    return None
