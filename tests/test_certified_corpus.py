"""A seeded corpus of generator sets built to pass every check of ``certify``.

Symplectic sets are random transvections, at least n of them in dimension
n, since fewer leave the span of their directions invariant; orthogonal
sets are random reflections plus random isotropic shears, with total drop
at least n, at r = 2.  Every set goes through ``cross_validate``: each
must agree with the exact computation, and each certified one must contain
the derived subgroup.  Sets whose witness orbit is not full are decided by
the stabilizer chain, so the corpus checks the chain too.  Every witness
walk is checked against the walk on a position index
(``walk_reference``).
"""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

import form_spaces
import monodromy.classical_groups as classical
from monodromy import FormSpace, Hypotheses, cross_validate
from monodromy.ff_linalg import _vectors
from walk_reference import reference_orbit_reaches

SETS_PER_SPACE = 60


def _nonzero(n: int, p: int) -> np.ndarray:
    return _vectors(np.arange(1, p**n), n, p)


def _symplectic_sets(space: FormSpace, rng: Random):
    vectors = _nonzero(space.dim, space.p)
    for _ in range(SETS_PER_SPACE):
        count = rng.randrange(space.dim, space.dim + 3)
        yield [
            form_spaces.transvection(space, vectors[rng.randrange(len(vectors))], rng.randrange(1, space.p))
            for _ in range(count)
        ]


def _orthogonal_sets(space: FormSpace, rng: Random):
    p, n, gram = space.p, space.dim, space.gram.array
    vectors = _nonzero(n, p)
    norms = np.einsum("ij,jk,ik->i", vectors, gram, vectors) % p
    anisotropic, isotropic = vectors[norms != 0], vectors[norms == 0]
    for _ in range(SETS_PER_SPACE):
        reflections = rng.randrange(1, 4)
        shears = rng.randrange(max(1, -(-(n - reflections) // 2)), 4)
        gens = [form_spaces.reflection(space, anisotropic[rng.randrange(len(anisotropic))]) for _ in range(reflections)]
        for _ in range(shears):
            u = isotropic[rng.randrange(len(isotropic))]
            # isotropic w orthogonal to u and off the line of u
            orthogonal = isotropic[((isotropic @ gram @ u) % p == 0) & _off_line(isotropic, u, p)]
            gens.append(form_spaces.siegel_shear(space, u, orthogonal[rng.randrange(len(orthogonal))]))
        yield gens


def _off_line(rows: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """Whether each row is independent of the nonzero vector u."""
    k = int(np.flatnonzero(u)[0])
    scaled = (rows * u[k] - np.outer(rows[:, k], u)) % p
    return scaled.any(axis=1)


SPACES = {
    "symmetric": [
        ("O5(5)", lambda: form_spaces.dot(5, 5)),
        ("O6+(5)", lambda: form_spaces.hyperbolic(6, 5)),
        ("O5(7)", lambda: form_spaces.dot(5, 7)),
    ],
    "alternating": [
        ("Sp4(5)", lambda: FormSpace.symplectic(4, 5)),
        ("Sp4(7)", lambda: FormSpace.symplectic(4, 7)),
        ("Sp6(3)", lambda: FormSpace.symplectic(6, 3)),
    ],
}


@pytest.mark.parametrize("parity", sorted(SPACES))
def test_certified_sets_agree_and_contain_the_derived_subgroup(parity, monkeypatch):
    walk, walked = classical._orbit_reaches, []

    def checked_walk(gens, base, size, limit):
        full = walk(gens, base, size, limit)
        assert full == reference_orbit_reaches(gens, base, size, limit)
        walked.append(full)
        return full

    monkeypatch.setattr(classical, "_orbit_reaches", checked_walk)
    certified = {}
    for seed, (name, make) in enumerate(SPACES[parity]):
        space = make()
        rng = Random(1000 + seed)
        if parity == "symmetric":
            sets, r = _orthogonal_sets(space, rng), 2
        else:
            sets, r = _symplectic_sets(space, rng), 1
        certified[name] = 0
        for gens in sets:
            report = cross_validate(Hypotheses(space, gens, r=r))
            assert report.agreement, (name, gens)
            if report.certificate.certified:
                assert report.exact_contains_derived, (name, gens)
                certified[name] += 1
    assert sum(certified.values()) >= 100, certified
    # full orbits and short ones, which leave the decision to the chain
    assert walked.count(True) >= 50 and walked.count(False) >= 5, (walked.count(True), walked.count(False))
