"""Certificates, cross-validation, and the commutator probe."""

import math
from random import Random

import numpy as np
import pytest

import monodromy.classical_groups as classical_groups
from monodromy.certifier import (
    Hypotheses,
    certify,
    cross_validate,
    _has_prime_factor_at_most,
)
from monodromy.classical_groups import FormSpace, classify_element
from monodromy.errors import InvalidInput, NotAnIsometry
from monodromy.families import hyperelliptic_system, twist_family_system
from monodromy.ff_linalg import Matrix, jordan_type
from monodromy.group_engine import GeneratedGroup

import form_spaces
from ff_linalg_reference import kernel
from form_spaces import anisotropic_vectors, random_isometry, reflection, siegel_shear, transvection
from probe_reference import commutator_probe


def family_hypotheses(system, r):
    return Hypotheses(system.space, system.generators, frozenset(), r)


def isotropic_plane(space, rng):
    """A random totally isotropic plane (u, w); the space must have Witt index >= 2."""
    p = space.p
    while True:
        u = random_vector(space, rng)
        if space.q(u):
            continue
        perp = kernel(Matrix([(u @ space.gram.array) % p], p)).basis
        for _ in range(10 * p):
            w = random_vector(space, rng, perp)
            if space.q(w) == 0 and Matrix(np.stack([u, w]), p).rank() == 2:
                return u, w


def random_vector(space, rng, within=None):
    """A random non-zero vector, in the row space of ``within`` when given."""
    p = space.p
    while True:
        if within is None:
            v = np.array([rng.randrange(p) for _ in range(space.dim)], dtype=np.int64)
        else:
            coeffs = np.array([rng.randrange(p) for _ in range(len(within))], dtype=np.int64)
            v = (coeffs @ within) % p
        if v.any():
            return v


def random_root(space, rng, within=None):
    """A random anisotropic vector, in the row space of ``within`` when given."""
    while True:
        v = random_vector(space, rng, within)
        if space.q(v):
            return v


class TestCertify:
    def test_hyperelliptic_certifies_full_sp(self):
        system = hyperelliptic_system(1, 3)
        cert = certify(family_hypotheses(system, 1))
        assert cert.certified
        assert cert.conclusion.kind == "FullSp"

    def test_twist_family_certifies_orthogonal_big(self):
        system = twist_family_system([2], 5)
        cert = certify(family_hypotheses(system, 2))
        assert cert.certified
        assert cert.conclusion.kind == "OrthogonalBig"
        assert cert.conclusion.refinement == "unrefined"

    def test_identity_only_fails_irreducibility(self):
        space = FormSpace.symplectic(2, 5)
        h = Hypotheses(space, (Matrix.identity(2, 5),), frozenset(), 1)
        cert = certify(h)
        assert not cert.certified
        assert cert.conclusion.reason == "irreducibility"

    def test_symmetric_needs_p_at_least_five(self):
        # a perfectly good generator set over F_3 must still be refused
        space = form_spaces.dot(3, 3)
        gens = tuple(
            reflection(space, r) for r in anisotropic_vectors(space, 4)
        )
        cert = certify(Hypotheses(space, gens, frozenset(), 1))
        assert not cert.certified
        assert cert.conclusion.reason == "prime_bound"

    def test_drop_bound_failure(self):
        system = twist_family_system([2], 5)
        cert = certify(family_hypotheses(system, 1))  # shears have drop 2
        assert not cert.certified
        assert cert.conclusion.reason == "drop_bound"

    def test_missing_witness(self):
        # derived generators of Sp are irreducible with small drops but the
        # generator set contains no transvection
        space = FormSpace.symplectic(2, 5)
        rng = Random(0)
        gens = []
        for _ in range(3):
            g = random_isometry(space, rng, length=4)
            while (g - Matrix.identity(2, 5)).rank() > 2 or g.is_identity():
                g = random_isometry(space, rng, length=4)
            gens.append(g)
        h = Hypotheses(space, tuple(gens), frozenset(), 2)
        cert = certify(h)
        if not cert.certified:
            assert cert.conclusion.reason in (
                "witness_elements",
                "order_or_pseudoreflection",
                "irreducibility",
            )

    def test_exempt_bound(self):
        system = hyperelliptic_system(1, 3)
        h = Hypotheses(system.space, system.generators, frozenset({0}), 1)
        cert = certify(h)
        assert not cert.certified
        assert cert.conclusion.reason == "exempt_bound"

    def test_monotone_in_exempt_set(self):
        # moving a generator into the exempt set can only flip the order
        # check to pass and the size bound to fail
        system = twist_family_system([2, 3], 5)
        base = certify(family_hypotheses(system, 2))
        withs0 = certify(
            Hypotheses(system.space, system.generators, frozenset({2}), 2)
        )
        names = lambda cert, name: next(
            c.passed for c in cert.checks if c.name == name
        )
        assert names(base, "order_or_pseudoreflection") <= names(
            withs0, "order_or_pseudoreflection"
        )
        assert names(withs0, "exempt_bound") <= names(base, "exempt_bound")

    def test_prime_factor_test_matches_factorial_gcd(self):
        for k in range(1, 40):
            factorial = math.factorial(k)
            for m in list(range(1, 1500)) + [7**5, 2**31 - 1, 31 * 37, 41 * 43 * 47]:
                want = math.gcd(m, factorial) != 1
                assert _has_prime_factor_at_most(m, k) == want, (m, k)

    def test_order_check_at_a_large_r(self):
        # (r+1)! is named, not written out, past 1558!, the last with at most
        # 4300 digits; the orders are checked against it all the same
        system = twist_family_system([2], 7)
        for r, text in ((1557, str(math.factorial(1558))), (1558, "(1559)!")):
            check = certify(family_hypotheses(system, r)).checks[3]
            assert check.name == "order_or_pseudoreflection"
            assert check.detail == f"(r+1)!={text} offenders=2:order=7"


    def test_order_overflow_is_an_offender(self, monkeypatch):
        import monodromy.group_engine as engine

        monkeypatch.setattr(engine, "_ORDER_CAP", 2)
        space = FormSpace.symplectic(2, 5)
        # non-split spectrum, order 3: powering passes the cap
        cert = certify(Hypotheses(space, [Matrix([[0, 4], [1, 4]], 5)], r=2))
        check = next(c for c in cert.checks if c.name == "order_or_pseudoreflection")
        assert not check.passed
        assert check.detail.endswith(" offenders=0:order-overflow")


class TestIsometryCheck:
    """``Hypotheses`` checks each generator once; what takes a ``Hypotheses`` trusts it."""

    @pytest.mark.parametrize(
        "generator", [Matrix.identity(2, 5), Matrix.identity(3, 7)], ids=["size", "modulus"]
    )
    def test_generator_of_another_space(self, generator):
        with pytest.raises(NotAnIsometry, match="does not match the space"):
            Hypotheses(form_spaces.dot(3, 5), [generator])

    def test_generator_that_moves_the_pairing(self):
        with pytest.raises(NotAnIsometry, match="does not preserve the pairing"):
            Hypotheses(form_spaces.dot(2, 5), [Matrix([[2, 0], [0, 1]], 5)])

    @pytest.mark.parametrize("r", ["1", 1.0, None, 0], ids=repr)
    def test_r_must_be_a_positive_integer(self, r):
        # "1" used to raise a bare TypeError from the comparison, and 1.0 passed
        with pytest.raises(InvalidInput, match="r must be an integer >= 1"):
            Hypotheses(form_spaces.dot(3, 5), [Matrix.identity(3, 5)], frozenset(), r)

    def test_numpy_integer_r_is_accepted(self):
        gens = [Matrix.identity(3, 5)]
        h = Hypotheses(form_spaces.dot(3, 5), gens, frozenset(), np.int64(2))
        assert h == Hypotheses(form_spaces.dot(3, 5), gens, frozenset(), 2)

    @pytest.mark.parametrize("index", [1.5, "a", None, 4, -1], ids=repr)
    def test_exempt_indices_must_be_integers_in_range(self, index):
        # 1.5 used to be counted by exempt_bound yet exempt no generator
        system = twist_family_system([2, 3], 5)
        with pytest.raises(InvalidInput, match="exempt index"):
            Hypotheses(system.space, system.generators, frozenset({index}), 2)

    def test_numpy_integer_exempt_index_is_accepted(self):
        system = twist_family_system([2, 3], 5)
        h = Hypotheses(system.space, system.generators, frozenset({np.int64(1)}), 2)
        assert h == Hypotheses(system.space, system.generators, frozenset({1}), 2)

    def test_classes_are_those_of_the_generators(self):
        system = twist_family_system([2, 3], 5)
        h = family_hypotheses(system, 2)
        assert h.classes == tuple(classify_element(g, system.space) for g in system.generators)

    def test_cross_validate_checks_each_generator_once(self, monkeypatch):
        system = twist_family_system([2, 3], 5)
        calls = []

        def counted(g, space, check=classical_groups.is_isometry):
            calls.append(g)
            return check(g, space)

        monkeypatch.setattr(classical_groups, "is_isometry", counted)
        report = cross_validate(family_hypotheses(system, 2))
        assert report.agreement
        assert len(system.generators) == 4
        assert calls == list(system.generators)


class TestGroupsBuilt:
    """``certify`` builds no ``GeneratedGroup``; ``cross_validate`` builds one only without a full witness orbit."""

    @staticmethod
    def _count_groups(monkeypatch) -> list:
        built = []
        init = GeneratedGroup.__init__

        def counted(group, *args, **kwargs):
            built.append(group)
            init(group, *args, **kwargs)

        monkeypatch.setattr(GeneratedGroup, "__init__", counted)
        return built

    @pytest.mark.parametrize(
        "system,r",
        [
            (lambda: hyperelliptic_system(2, 5), 1),
            (lambda: twist_family_system([2, 3], 5), 2),
            # O+(4,7): symmetric spaces of dimension 4 walk the orbit at p >= 5
            (lambda: twist_family_system([2], 7), 2),
        ],
        ids=["Sp(4,5)", "O(5,5)", "O(4,7)"],
    )
    def test_one_group_per_cross_validation(self, system, r, monkeypatch):
        h = family_hypotheses(system(), r)
        built = self._count_groups(monkeypatch)
        cert = certify(h)
        assert cert.certified and built == []
        report = cross_validate(h)
        assert report.agreement and report.exact_contains_derived and built == []
        # the witness orbit gives the order a full build gives
        assert report.exact_order == GeneratedGroup(h.generators).order()

    def test_one_stopped_chain_without_a_witness(self, monkeypatch):
        # O+(4,3) has no witness: the one chain stops at the bound |O+(4,3)|,
        # and the order is read from it
        space = form_spaces.dot(4, 3)
        e = np.eye(4, dtype=np.int64)
        gens = [reflection(space, v) for v in (e[0], e[0] + e[1], e[0] + e[2], e.sum(axis=0))]
        h = Hypotheses(space, gens, frozenset(), 1)
        built = self._count_groups(monkeypatch)
        report = cross_validate(h)
        assert not report.certificate.certified and report.agreement
        assert report.exact_contains_derived and report.exact_class == "FullO"
        assert len(built) == 1 and built[0].stopped
        assert report.exact_order == built[0].order() == 1152


class TestCrossValidate:
    def test_hyperelliptic_g1_f5(self):
        system = hyperelliptic_system(1, 5)
        report = cross_validate(family_hypotheses(system, 1))
        assert report.certificate.conclusion.kind == "FullSp"
        assert report.exact_order == 120
        assert report.exact_contains_derived
        assert report.agreement

    def test_twist_d2_f5(self):
        system = twist_family_system([2], 5)
        report = cross_validate(family_hypotheses(system, 2))
        assert report.certificate.conclusion.kind == "OrthogonalBig"
        assert report.exact_contains_derived
        assert report.exact_class in {"FullO", "KerSpinor", "KerSpinorDet"}
        assert report.exact_class != "SO"
        assert report.agreement
        # the refined conclusion carries the exact class
        assert report.certificate.conclusion.refinement == report.exact_class

    def test_single_transvection_not_big_and_agreeing(self):
        space = FormSpace.symplectic(2, 5)
        h = Hypotheses(space, (transvection(space, np.array([1, 0])),), frozenset(), 1)
        report = cross_validate(h)
        assert not report.certificate.certified
        assert report.exact_order == 5
        assert not report.exact_contains_derived
        assert report.agreement  # not-certified cannot disagree


class TestInconclusive:
    def test_irreducibility_without_a_verdict_fails_its_check(self, monkeypatch):
        import monodromy.group_engine as engine

        # F_3^8 has 3280 lines, above the exhaustive cap, so the meataxe decides
        monkeypatch.setattr(engine, "_MAX_TRIALS", 0)
        cert = certify(family_hypotheses(hyperelliptic_system(4, 3), 1))
        check = next(c for c in cert.checks if c.name == "irreducibility")
        assert not check.passed and check.detail == "inconclusive after 0 trials"
        assert str(cert.conclusion) == "NotCertified(irreducibility)"


class TestCommutatorProbe:
    def test_needs_a_reflection_and_a_shear(self):
        # a hyperelliptic tuple holds transvections only
        system = hyperelliptic_system(2, 5)
        with pytest.raises(InvalidInput, match="need a reflection and an isotropic shear"):
            commutator_probe(family_hypotheses(system, 1))

    def test_twist_d2_f5_witness(self):
        system = twist_family_system([2], 5)
        witness = commutator_probe(Hypotheses(system.space, system.generators))
        assert witness is not None
        assert witness.order >= 5

    def test_restriction_shapes(self):
        p = 5
        system = twist_family_system([2, 3], p)
        witness = commutator_probe(Hypotheses(system.space, system.generators))
        assert witness is not None
        rho = witness.restrictions["reflection"]
        sigma = witness.restrictions["shear"]
        comm = witness.restrictions["commutator"]
        assert rho == Matrix([[1, 0, 0], [0, 1, 0], [0, 1, p - 1]], p)
        assert sigma == Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]], p)
        assert comm == Matrix([[1, 1, p - 2], [0, 1, 0], [0, 0, 1]], p)

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("roots", [[2], [2, 3]])
    def test_restrictions_are_the_action_on_the_basis(self, roots, p):
        system = twist_family_system(roots, p)
        witness = commutator_probe(Hypotheses(system.space, system.generators))
        assert witness is not None
        mats = system.tuple.matrices
        acting = {
            "reflection": mats[witness.reflection_index],
            "shear": mats[witness.shear_index],
            "commutator": witness.commutator,
        }
        assert set(witness.restrictions) == set(acting)
        basis_t = witness.basis.array.T
        for name, m in acting.items():
            r = witness.restrictions[name].array
            assert np.array_equal((basis_t @ r) % p, (m.array @ basis_t) % p), name

    def test_commutator_matches_restriction_order(self):
        system = twist_family_system([2], 7)
        witness = commutator_probe(Hypotheses(system.space, system.generators))
        assert witness is not None
        assert witness.order >= 7
        mats = system.tuple.matrices
        rho = mats[witness.reflection_index]
        sigma = mats[witness.shear_index]
        assert witness.commutator == rho @ sigma @ rho @ sigma.inv()
        assert rho @ sigma != sigma @ rho

    def test_commuting_pairs_are_skipped(self):
        # a reflection whose root lies in the fixed space of the shear
        # commutes with it and can never be returned as a witness
        system = twist_family_system([2, 3], 5)
        mats = system.tuple.matrices
        space = system.space
        shear_idx = [
            i
            for i, c in enumerate(system.classifications)
            if c.tag == "IsotropicShear"
        ]
        sigma = mats[shear_idx[0]]
        eye = Matrix.identity(space.dim, space.p)
        fixed = kernel(sigma - eye)
        root = None
        for row in fixed.basis:
            if space.q(row) != 0:
                root = row
                break
        assert root is not None
        rho = reflection(space, root)
        assert rho @ sigma == sigma @ rho  # root inside the fixed space


class TestAgreementIdentity:
    """A certified orthogonal group contains Omega exactly when its class is big.

    ``cross_validate`` reads agreement from containment alone; an orthogonal
    certificate needs a generator tagged Reflection, of determinant -1, so
    a certified group that contains Omega has a determinant -1 pair in its
    (det, theta) image.
    """

    @pytest.mark.parametrize(
        "space",
        [form_spaces.hyperbolic(4, 5), form_spaces.dot(5, 5), form_spaces.dot(4, 7)],
        ids=["O4+(5)", "O5(5)", "dot(4,7)"],
    )
    def test_certified_class_is_big_exactly_when_derived(self, space):
        rng = Random(10 * space.dim + space.p)
        shear = siegel_shear(space, *isotropic_plane(space, rng))
        certified = 0
        for _ in range(30):
            gens = [reflection(space, random_root(space, rng)) for _ in range(rng.randrange(1, 4))]
            g = random_isometry(space, rng, length=3)
            gens.append(g @ shear @ g.inv())
            if rng.random() < 0.5:
                gens.append(random_isometry(space, rng, length=2))
            rng.shuffle(gens)
            report = cross_validate(Hypotheses(space, gens, r=2))
            assert report.agreement
            if report.certificate.conclusion.kind == "OrthogonalBig":
                certified += 1
                big = report.exact_class in {"FullO", "KerSpinor", "KerSpinorDet"}
                assert big == report.exact_contains_derived, report.exact_class
        assert certified


class TestReflectionShearIdentity:
    """The facts that let ``commutator_probe`` return the first non-commuting pair.

    For a reflection rho in the root z and an isotropic shear sigma with
    N = sigma - 1 and x = N z: the pair commutes exactly when x = 0;
    otherwise <x, z> = 0, some shear-fixed vector is moved by rho,
    (x, y, z) has rank 3, and the commutator is unipotent with one Jordan
    block of size 3, of order p.
    """

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize(
        "kind, dim", [("dot", 4), ("dot", 5), ("dot", 6), ("hyperbolic", 4), ("hyperbolic", 6)]
    )
    def test_random_reflection_shear_pairs(self, kind, dim, p):
        rng = Random(100 * p + dim)
        space = getattr(form_spaces, kind)(dim, p)
        shear = siegel_shear(space, *isotropic_plane(space, rng))
        eye = Matrix.identity(dim, p)
        for _ in range(12):
            g = random_isometry(space, rng, length=4)
            sigma = g @ shear @ g.inv()
            fixed = kernel(sigma - eye).basis
            # in dimension 4 the fixed space of a shear is its isotropic image
            in_fixed = dim > 4 and rng.random() < 0.3
            z = random_root(space, rng, fixed if in_fixed else None)
            rho = reflection(space, z)
            x = ((sigma - eye).array @ z) % p
            witness = commutator_probe(Hypotheses(space, [rho, sigma]))
            assert (rho @ sigma == sigma @ rho) == (not x.any())
            if not x.any():
                assert witness is None
                continue
            assert space.pair(x, z) == 0
            assert any(space.pair(v, z) for v in fixed)
            assert witness.basis.rank() == 3
            x_w, y_w, z_w = witness.basis.array
            assert np.array_equal(x_w, ((sigma - eye).array @ z_w) % p)
            assert not ((sigma - eye).array @ y_w % p).any()
            assert np.array_equal(((rho - eye).array @ y_w) % p, z_w)
            assert witness.order == p
            blocks = sorted(jordan_type(witness.commutator).blocks)
            assert blocks == [(1, 1)] * (dim - 3) + [(1, 3)]
            basis_t = witness.basis.array.T
            for name, m in (("reflection", rho), ("shear", sigma), ("commutator", witness.commutator)):
                r = witness.restrictions[name].array
                assert np.array_equal((basis_t @ r) % p, (m.array @ basis_t) % p), name


class TestSoundnessSample:
    def test_no_unsound_certificates_on_sp2_f5(self):
        rng = Random(5)
        space = FormSpace.symplectic(2, 5)
        for _ in range(25):
            gens = []
            for _ in range(rng.randrange(1, 4)):
                if rng.random() < 0.6:
                    v = np.array([rng.randrange(5) for _ in range(2)], dtype=np.int64)
                    if not v.any():
                        v[0] = 1
                    gens.append(transvection(space, v, rng.randrange(1, 5)))
                else:
                    gens.append(random_isometry(space, rng, length=4))
            h = Hypotheses(space, tuple(gens), frozenset(), rng.randrange(1, 3))
            report = cross_validate(h)
            assert report.agreement
