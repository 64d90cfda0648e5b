"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Every tolerance here is exact.
"""

import itertools
from contextlib import contextmanager
from random import Random

import numpy as np
import pytest

from monodromy.certifier import Hypotheses, certify, cross_validate
from monodromy.classical_groups import (
    FormSpace,
    ISOTROPIC_SHEAR,
    REFLECTION,
    TRANSVECTION,
    classify_element,
    isometry_group_orders,
    spinor_norm,
)
from monodromy.convolution import INFINITY, middle_convolve, predict_rank
from monodromy.errors import ResourceLimit
from monodromy.families import dim_formula, hyperelliptic_system, twist_family_system
from monodromy.ff_linalg import (
    Matrix,
    invariant_forms,
    jordan_type,
)
from monodromy.group_engine import (
    GeneratedGroup,
    element_order,
    group_order,
    is_irreducible,
)

from closure_reference import naive_closure
from convolution_reference import map_local_jordan
from ff_linalg_reference import kernel, random_invertible
import form_spaces
from form_spaces import (
    anisotropic_vectors,
    isotropic_vectors,
    random_isometry,
    reflection,
    siegel_shear,
    transvection,
)
from probe_reference import commutator_probe
from tests.test_convolution import in_category, random_split_tuple


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


# the group orders below were computed with the brute-force closure and
# Schreier-Sims oracles before being pinned
SP_ORDERS = {
    (1, 3): 24,
    (1, 5): 120,
    (1, 7): 336,
    (2, 3): 51840,
    (2, 5): 9360000,
    (3, 3): 9170703360,
}


def test_criterion_1_hyperelliptic_full_symplectic():
    with verdict("criterion 1 (hyperelliptic monodromy is the full symplectic group)"):
        for (genus, p), expected in SP_ORDERS.items():
            system = hyperelliptic_system(genus, p)
            order = group_order(GeneratedGroup(system.generators))
            assert order == expected, (genus, p, order)
            assert order == isometry_group_orders(system.space).full_order
            if expected <= 100_000:
                assert len(naive_closure(system.generators)) == expected
            assert all(c.tag == TRANSVECTION for c in system.classifications)
            forms = invariant_forms(system.generators)
            assert len(forms) == 1
            assert forms[0].T == -forms[0]
            assert system.space.parity == "alternating"


def test_criterion_2_twist_family_dimensions():
    with verdict("criterion 2 (twist-family dimensions)"):
        for d, p in itertools.product((2, 3, 4), (5, 7)):
            roots = list(range(2, 2 + d - 1))
            system = twist_family_system(roots, p)
            expected = 2 * d if d % 2 == 0 else 2 * d - 1
            assert system.tuple.rank == expected, (d, p)
            if d % 2 == 0:
                assert expected == dim_formula(2, d + 1, 0)
            else:
                assert expected == dim_formula(3, d, 0)


def test_criterion_3_twist_family_classifications():
    with verdict("criterion 3 (reflections at multiplicative points, shears at roots)"):
        for d, p in itertools.product((2, 3, 4), (5, 7)):
            roots = list(range(2, 2 + d - 1))
            system = twist_family_system(roots, p)
            for label, cls in zip(system.tuple.punctures, system.classifications):
                expected = REFLECTION if label in (0, 1) else ISOTROPIC_SHEAR
                assert cls.tag == expected, (d, p, label, cls)
            tags = [c.tag for c in system.classifications]
            assert tags.count(REFLECTION) == 2
            assert tags.count(ISOTROPIC_SHEAR) == d - 1


# exact subgroup classes per (d, p), computed once with the exact engine
# and pinned as regression values
TWIST_CLASSES = {
    (2, 5): "KerSpinor",
    (3, 5): "KerSpinor",
    (2, 7): "KerSpinor",
    (3, 7): "KerSpinor",
}
TWIST_ORDERS = {
    (2, 5): 14400,
    (3, 5): 9360000,
    (2, 7): 112896,
    (3, 7): 276595200,
}

_twist_reports = {}


def _twist_report(d, p):
    key = (d, p)
    if key not in _twist_reports:
        roots = list(range(2, 2 + d - 1))
        system = twist_family_system(roots, p)
        h = Hypotheses(system.space, system.generators, frozenset(), 2)
        _twist_reports[key] = (system, cross_validate(h))
    return _twist_reports[key]


def test_criterion_4_twist_family_certificates():
    with verdict("criterion 4 (orthogonal certificates cross-validated exactly)"):
        for d, p in itertools.product((2, 3), (5, 7)):
            system, report = _twist_report(d, p)
            assert report.certificate.certified, (d, p)
            assert report.certificate.conclusion.kind == "OrthogonalBig"
            assert report.exact_contains_derived, (d, p)
            assert report.exact_class in {"FullO", "KerSpinor", "KerSpinorDet"}
            assert report.exact_class != "SO"
            assert report.agreement
            assert report.exact_class == TWIST_CLASSES[(d, p)]
            assert report.exact_order == TWIST_ORDERS[(d, p)]


def test_criterion_5_convolution_contract_corpus():
    with verdict("criterion 5 (local calculus on a randomized corpus)"):
        rng = Random(2024)
        checked = 0
        while checked < 100:
            p = rng.choice([3, 5, 7])
            n = rng.randrange(1, 4)
            r = rng.randrange(2, 6)
            t = random_split_tuple(rng, p, n, r)
            if not in_category(t):
                continue
            checked += 1

            out = middle_convolve(t, -1)
            data = t.local_data()
            inf = data.pop(INFINITY)
            assert out.rank == predict_rank(list(data.values()), inf, -1)
            for lab in t.punctures:
                got = jordan_type(out.matrix_at(lab)).nontrivial()
                want = map_local_jordan(jordan_type(t.matrix_at(lab)), -1)
                assert got == want

            identity_grade = middle_convolve(t, 1)
            assert identity_grade.rank == t.rank
            for lab in t.punctures:
                assert jordan_type(identity_grade.matrix_at(lab)) == jordan_type(
                    t.matrix_at(lab)
                )

            twice = middle_convolve(out, -1)
            assert twice.rank == t.rank
            for lab in t.punctures:
                assert jordan_type(twice.matrix_at(lab)) == jordan_type(
                    t.matrix_at(lab)
                )
            assert group_order(GeneratedGroup(twice.matrices)) == group_order(
                GeneratedGroup(t.matrices)
            )


def test_criterion_6_commutator_probe():
    with verdict("criterion 6 (commutator probe finds order >= p witnesses)"):
        for d, p in itertools.product((2, 3), (5, 7)):
            system, _ = _twist_report(d, p)
            witness = commutator_probe(Hypotheses(system.space, system.generators))
            assert witness is not None, (d, p)
            assert witness.order >= p, (d, p, witness.order)


def _sweep_spaces():
    return [
        ("Sp4(F3)", FormSpace.symplectic(4, 3)),
        ("Sp2(F5)", FormSpace.symplectic(2, 5)),
        ("O4(F5)", form_spaces.hyperbolic(4, 5)),
        ("O5(F5)", form_spaces.dot(5, 5)),
    ]


def _random_generator(space, rng):
    p = space.p
    roll = rng.random()
    if space.parity == "alternating":
        if roll < 0.6:
            v = np.array([rng.randrange(p) for _ in range(space.dim)], dtype=np.int64)
            if not v.any():
                v[0] = 1
            return transvection(space, v, rng.randrange(1, p))
        return random_isometry(space, rng, length=rng.randrange(2, 6))
    if roll < 0.45:
        pool = anisotropic_vectors(space, 3 * space.dim)
        return reflection(space, pool[rng.randrange(len(pool))])
    if roll < 0.7:
        iso = isotropic_vectors(space, 40)
        for _ in range(60):
            u = iso[rng.randrange(len(iso))]
            w = iso[rng.randrange(len(iso))]
            if space.pair(u, w) == 0 and (np.any(u != w) and np.any((u + w) % p != 0)):
                shear = siegel_shear(space, u, w)
                if not shear.is_identity():
                    return shear
        # fall through when the space has no isotropic planes to offer
    return random_isometry(space, rng, length=rng.randrange(2, 6))


def test_criterion_7_soundness_sweep():
    with verdict("criterion 7 (soundness sweep: no refuted certificates)"):
        rng = Random(7)
        total = 0
        certified = 0
        for name, space in _sweep_spaces():
            for trial in range(50):
                total += 1
                gens = tuple(
                    _random_generator(space, rng)
                    for _ in range(rng.randrange(1, 5))
                )
                k = len(gens)
                s0 = frozenset(i for i in range(k) if rng.random() < 0.25)
                r = rng.randrange(1, 4)
                h = Hypotheses(space, gens, s0, r)
                cert = certify(h)
                if cert.certified or trial % 5 == 0:
                    report = cross_validate(h)
                    assert report.agreement, (name, trial)
                    if cert.certified:
                        certified += 1
        assert total >= 200
        assert certified > 0  # the sweep must actually exercise certificates


def test_criterion_8_property_suites():
    with verdict("criterion 8 (per-module property suites)"):
        rng = Random(8)

        # rank-nullity, exhaustively at small sizes
        for p, n in ((3, 2), (5, 2)):
            for entries in itertools.product(range(p), repeat=n * n):
                m = Matrix(np.array(entries, dtype=np.int64).reshape(n, n), p)
                assert m.cols == m.rank() + kernel(m).dim

        # conjugation invariance of the Jordan data
        for _ in range(25):
            p = rng.choice([3, 5, 7])
            n = rng.randrange(2, 5)
            d = _random_split_matrix(n, p, rng)
            g = random_invertible(n, p, rng)
            assert jordan_type(g.inv() @ d @ g) == jordan_type(d)

        # spinor norm is multiplicative
        space = form_spaces.dot(4, 5)
        for _ in range(25):
            a = random_isometry(space, rng)
            b = random_isometry(space, rng)
            assert spinor_norm(a @ b, space) == spinor_norm(a, space) * spinor_norm(
                b, space
            )

        # engine order agrees with brute-force closure for orders <= 1e5
        cases = [
            [Matrix([[1, 1], [0, 1]], 3), Matrix([[1, 0], [1, 1]], 3)],
            [Matrix([[1, 1], [0, 1]], 5), Matrix([[1, 0], [1, 1]], 5)],
            [Matrix([[1, 1], [0, 1]], 7), Matrix([[1, 0], [1, 1]], 7)],
            [reflection(form_spaces.dot(3, 5), r) for r in anisotropic_vectors(form_spaces.dot(3, 5), 12)],
        ]
        for gens in cases:
            closure = naive_closure(gens)
            assert len(closure) <= 100_000
            assert group_order(GeneratedGroup(gens)) == len(closure)


def _random_split_matrix(n, p, rng):
    blocks = []
    left = n
    while left:
        size = rng.randrange(1, left + 1)
        blocks.append((rng.randrange(1, p), size))
        left -= size
    m = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for eig, size in blocks:
        for i in range(size):
            m[pos + i, pos + i] = eig
            if i + 1 < size:
                m[pos + i, pos + i + 1] = 1
        pos += size
    g = random_invertible(n, p, rng)
    return g.inv() @ Matrix(m, p) @ g
