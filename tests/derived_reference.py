"""Generators of the derived subgroup, built explicitly, kept as a test oracle.

``monodromy.classical_groups.derived_containment`` decides containment by order
arithmetic; this is the construction it replaced: transvections in the
alternating case, closed reflection commutators in the symmetric case, each
accepted only once its Schreier-Sims order matches the derived order.
Tests sift these generators through a group to check the order identity,
and add generators to them to reach each subgroup class that
``derived_containment`` returns; the library does not import it.
"""

from __future__ import annotations

import numpy as np

from monodromy.classical_groups import FormSpace, isometry_group_orders
from monodromy.ff_linalg import Matrix
from monodromy.group_engine import GeneratedGroup

from form_spaces import anisotropic_vectors, reflection, transvection

_DERIVED_CACHE: dict[tuple, list[Matrix]] = {}


def derived_subgroup_generators(space: FormSpace) -> list[Matrix]:
    """Generators of the derived subgroup of the full isometry group.

    Alternating case: symplectic transvections in enough directions to
    generate Sp(V).  Symmetric case: commutators of reflections, closed
    under conjugation.  Either way the construction is accepted only once
    its Schreier-Sims order matches the known derived order, so correctness
    does not rest on the generating-set recipe.
    """
    key = (space.parity, space.p, space.dim, space.gram.array.tobytes())
    cached = _DERIVED_CACHE.get(key)
    if cached is not None:
        return cached

    orders = isometry_group_orders(space)
    target = orders.derived_order
    n, p = space.dim, space.p
    eye = np.eye(n, dtype=np.int64)

    if space.parity == "alternating":
        directions = [eye[i] for i in range(n)]
        directions += [(eye[i] + eye[j]) % p for i in range(n) for j in range(i + 1, n)]
        gens = [transvection(space, v) for v in directions]
        for _ in range(6):
            if GeneratedGroup(gens).order() == target:
                _DERIVED_CACHE[key] = gens
                return gens
            new_dirs = [
                (g.array @ v) % p for g in gens[: 4 * n] for v in directions
            ]
            directions += new_dirs
            gens = gens + [transvection(space, v) for v in new_dirs]
        raise AssertionError("transvection closure did not reach the symplectic group")

    # grow the reflection pool until it generates the full orthogonal group
    count = max(8, 4 * n)
    while True:
        refls = [reflection(space, r) for r in anisotropic_vectors(space, count)]
        if GeneratedGroup(refls).order() == orders.full_order:
            break
        if count > p**n:
            raise AssertionError("reflections failed to generate the orthogonal group")
        count *= 2

    gens: list[Matrix] = []
    seen: set[Matrix] = set()
    for i in range(min(len(refls), 12)):
        for j in range(i + 1, min(len(refls), 12)):
            c = refls[i] @ refls[j] @ refls[i] @ refls[j]
            if not c.is_identity() and c not in seen:
                seen.add(c)
                gens.append(c)
    for _ in range(8):
        order = GeneratedGroup(gens).order()
        if order == target:
            _DERIVED_CACHE[key] = gens
            return gens
        if order > target:
            raise AssertionError("derived construction overshot the target order")
        extra = []
        for r in refls:
            for g in gens:
                c = r @ g @ r.inv()
                if c not in seen:
                    seen.add(c)
                    extra.append(c)
        gens = gens + extra
    raise AssertionError("derived subgroup construction did not converge")
