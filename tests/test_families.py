"""The hyperelliptic and quadratic-twist family builders."""

import pytest

from monodromy.classical_groups import (
    ElementClass,
    FormSpace,
    ISOTROPIC_SHEAR,
    REFLECTION,
    TRANSVECTION,
    invariant_pairing,
)
from monodromy.errors import BadLocus, FamilyCheckFailed, MonodromyError, NegativeDimension
from monodromy.families import (
    dim_formula,
    hyperelliptic_system,
    kummer_tuple,
    twist_family_system,
)
from monodromy.ff_linalg import JordanData, Matrix, Subspace, invariant_forms
from monodromy.group_engine import GeneratedGroup, is_irreducible

import form_spaces


class TestKummerTuple:
    def test_two_points_trivial_infinity(self):
        t = kummer_tuple([0, 1], 5)
        assert t.rank == 1
        assert all(m == Matrix([[4]], 5) for m in t.matrices)
        assert t.infinity_matrix.is_identity()

    def test_four_points_over_f3_uses_symbols(self):
        t = kummer_tuple([0, 1, 2, "t3"], 3)
        assert len(t.punctures) == 4
        assert t.infinity_matrix.is_identity()

    def test_odd_count_gives_minus_one_at_infinity(self):
        t = kummer_tuple([0, 1, 2], 5)
        assert t.infinity_matrix == Matrix([[4]], 5)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            kummer_tuple([0], 5)


def test_a_huge_modulus_fails_fast_everywhere():
    """A modulus past the int64 bound fails at once; a trial division on it would not end."""
    q = 10**18 + 3
    for build in (
        lambda: Matrix([[1]], q),
        lambda: Subspace([[1]], 1, q),
        lambda: JordanData([(1, 1)], q),
        lambda: kummer_tuple([0, 1], q),
        lambda: hyperelliptic_system(1, q),
        lambda: twist_family_system([2], q),
    ):
        with pytest.raises(ValueError, match="too large"):
            build()
    # the largest prime p with (p - 1)^2 < 2^63
    assert Matrix([[1]], 3037000493).p == 3037000493


class TestHyperellipticSystem:
    def test_genus_one_f3(self):
        system = hyperelliptic_system(1, 3)
        assert system.expected_dim == 2
        assert system.space.parity == "alternating"
        group = GeneratedGroup(system.generators)
        assert group.order() == 24

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_all_punctures_are_transvections(self, p):
        system = hyperelliptic_system(1, p)
        assert all(c.tag == TRANSVECTION for c in system.classifications)

    def test_pairing_space_is_a_line(self):
        system = hyperelliptic_system(2, 3)
        assert len(invariant_forms(system.tuple.matrices)) == 1
        assert system.space.gram.det() != 0

    def test_product_identity(self):
        system = hyperelliptic_system(2, 5)
        acc = Matrix.identity(system.tuple.rank, 5)
        for m in system.tuple.matrices:
            acc = acc @ m
        assert (acc @ system.tuple.infinity_matrix).is_identity()

    def test_custom_points(self):
        system = hyperelliptic_system(1, 7, [2, 5])
        assert system.tuple.punctures == (2, 5)

    def test_irreducible_and_contains_derived(self):
        from monodromy.classical_groups import derived_containment

        system = hyperelliptic_system(1, 5)
        assert is_irreducible(system.generators).irreducible
        assert derived_containment(system.generators, system.space) == (True, None)

    def test_wrong_point_count(self):
        with pytest.raises(ValueError):
            hyperelliptic_system(2, 5, [0, 1])


class TestTwistFamilySystem:
    @pytest.mark.parametrize(
        "roots,p,expected_dim",
        [
            ([2], 5, 4),  # d = 2 even: 2d
            ([2, 3], 5, 5),  # d = 3 odd: 2d - 1
            ([2, 3, 4], 5, 8),  # d = 4 even
            ([2], 7, 4),
            ([2, 3], 7, 5),
        ],
    )
    def test_dimensions(self, roots, p, expected_dim):
        system = twist_family_system(roots, p)
        assert system.tuple.rank == expected_dim
        assert system.expected_dim == expected_dim

    def test_dimension_matches_reduction_divisor_formula(self):
        for roots, p in [([2], 5), ([2, 3], 5)]:
            d = len(roots) + 1
            system = twist_family_system(roots, p)
            if d % 2 == 0:
                # multiplicative locus {0,1}; additive: the d roots and infinity
                assert system.expected_dim == dim_formula(2, d + 1, 0)
            else:
                # multiplicative locus {0,1,infinity}; additive: the d roots
                assert system.expected_dim == dim_formula(3, d, 0)

    def test_classifications(self):
        system = twist_family_system([2, 3], 5)
        tags = {
            lab: cls.tag
            for lab, cls in zip(system.tuple.punctures, system.classifications)
        }
        assert tags == {
            0: REFLECTION,
            1: REFLECTION,
            2: ISOTROPIC_SHEAR,
            3: ISOTROPIC_SHEAR,
        }

    def test_symmetric_line_of_forms(self):
        system = twist_family_system([2], 5)
        assert system.space.parity == "symmetric"
        assert len(invariant_forms(system.tuple.matrices)) == 1
        assert system.space.gram.det() != 0

    def test_irreducible(self):
        system = twist_family_system([2, 3], 5)
        assert is_irreducible(system.generators).irreducible

    def test_shears_are_unipotent_of_order_p(self):
        from monodromy.group_engine import element_order

        system = twist_family_system([2, 3], 7)
        for lab, cls in zip(system.tuple.punctures, system.classifications):
            if cls.tag == ISOTROPIC_SHEAR:
                assert element_order(system.tuple.matrix_at(lab)) == 7

    def test_bad_locus(self):
        with pytest.raises(BadLocus):
            twist_family_system([0, 2], 5)
        with pytest.raises(BadLocus):
            twist_family_system([1], 7)
        with pytest.raises(BadLocus):
            twist_family_system([], 5)
        with pytest.raises(BadLocus, match="twist roots repeat"):
            twist_family_system([2, 2], 5)

    def test_needs_p_at_least_five(self):
        with pytest.raises(ValueError):
            twist_family_system([2], 3)

    def test_product_identity(self):
        system = twist_family_system([2, 3], 5)
        acc = Matrix.identity(system.tuple.rank, 5)
        for m in system.tuple.matrices:
            acc = acc @ m
        assert (acc @ system.tuple.infinity_matrix).is_identity()


class TestDimFormula:
    def test_even_d_row(self):
        for d in (2, 4, 6):
            assert dim_formula(2, d + 1, 0) == 2 * d

    def test_odd_d_row(self):
        for d in (3, 5):
            assert dim_formula(3, d, 0) == 2 * d - 1

    def test_negative_regime(self):
        with pytest.raises(NegativeDimension):
            dim_formula(0, 1, 0)

    def test_genus_term(self):
        assert dim_formula(2, 3, 1) == 8


class TestInvariantPairing:
    def test_rank_one_kummer_pairing_is_the_symmetric_scalar_form(self):
        space = invariant_pairing(invariant_forms(kummer_tuple([0, 1], 5).matrices))
        assert space.parity == "symmetric"
        assert space.dim == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: kummer_tuple([0, 1], 5),
            lambda: kummer_tuple([0, 1, 2], 7),
            *(
                lambda g=g, p=p: hyperelliptic_system(g, p).tuple
                for g, p in [(1, 3), (1, 5), (2, 5), (2, 7), (3, 3)]
            ),
            *(
                lambda r=r, p=p: twist_family_system(r, p).tuple
                for r, p in [([2], 5), ([2, 3], 5), ([2], 7), ([2, 3], 7)]
            ),
        ],
    )
    def test_a_lone_form_is_its_own_pairing(self, build):
        # the oracle for the line-of-forms path the families and the CLI take
        forms = invariant_forms(build().matrices)
        assert len(forms) == 1
        assert invariant_pairing(forms) == FormSpace.from_gram(forms[0])

    def test_no_forms_or_a_degenerate_line_has_no_pairing(self):
        assert invariant_pairing([]) is None
        e33 = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 5)
        assert invariant_pairing([e33]) is None


class TestFamilyChecks:
    """A family whose output fails a defining check raises a typed error."""

    @pytest.mark.parametrize(
        "build,name,replacement,message",
        [
            (
                lambda: hyperelliptic_system(2, 5),
                "middle_convolve",
                lambda t, lam: t,
                "convolution rank disagrees with 2g",
            ),
            (
                lambda: hyperelliptic_system(2, 5),
                "invariant_pairing",
                lambda forms: form_spaces.dot(forms[0].n, forms[0].p),
                "hyperelliptic pairing must be alternating",
            ),
            (
                lambda: hyperelliptic_system(2, 5),
                "invariant_forms",
                lambda gens: [Matrix.identity(gens[0].n, gens[0].p)] * 2,
                "hyperelliptic invariant-form space has dimension 2, expected 1",
            ),
            (
                lambda: hyperelliptic_system(2, 5),
                "classify_element",
                lambda m, space: ElementClass("Other", 0),
                "every finite local matrix must be a transvection",
            ),
            (
                lambda: twist_family_system([2, 3], 5),
                "classify_element",
                lambda m, space: ElementClass(TRANSVECTION, 1),
                "puncture 0 classified Transvection, wanted Reflection",
            ),
        ],
    )
    def test_raises_family_check_failed(self, build, name, replacement, message, monkeypatch):
        import monodromy.families as families

        monkeypatch.setattr(families, name, replacement)
        with pytest.raises(FamilyCheckFailed, match=message) as excinfo:
            build()
        assert isinstance(excinfo.value, MonodromyError)
