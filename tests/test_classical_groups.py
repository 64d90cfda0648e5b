"""Element taxonomy, spinor norms, and isometry-group orders."""

import itertools
from random import Random

import numpy as np
import pytest

from monodromy.classical_groups import (
    FormSpace,
    IDENTITY,
    ISOTROPIC_SHEAR,
    OTHER,
    REFLECTION,
    TRANSVECTION,
    classify_element,
    derived_containment,
    is_isometry,
    isometry_group_orders,
    spinor_norm,
    square_class,
    _norm_class_size,
    _witness,
)
from monodromy.errors import InvalidInput, NotAnIsometry
from monodromy.ff_linalg import Matrix
from monodromy.families import twist_family_system
from monodromy.group_engine import GeneratedGroup
from closure_reference import naive_closure
from derived_reference import derived_subgroup_generators
from ff_linalg_reference import nonzero_vectors_per_index, random_invertible
import form_spaces
from form_spaces import (
    anisotropic_vectors,
    isotropic_vectors,
    nonzero_vectors,
    random_isometry,
    reflection,
    siegel_shear,
    transvection,
)
from spinor_reference import apply, reference_spinor_norm


def brute_force_isometries(space, chunk=200_000):
    """All isometries by scanning every matrix; only for tiny spaces."""
    n, p = space.dim, space.p
    g = space.gram.array
    found = []
    batch = []
    for entries in itertools.product(range(p), repeat=n * n):
        batch.append(entries)
        if len(batch) == chunk:
            found.extend(_filter_isometries(batch, g, n, p))
            batch = []
    if batch:
        found.extend(_filter_isometries(batch, g, n, p))
    return found


def _filter_isometries(batch, g, n, p):
    arr = np.array(batch, dtype=np.int64).reshape(-1, n, n)
    prod = np.einsum("nji,jk,nkl->nil", arr, g, arr) % p
    mask = (prod == g).all(axis=(1, 2))
    return [Matrix(m, p) for m in arr[mask]]


def siegel_element_on_hyperbolic_o4(p=5):
    """f1 -> f1 + e2, f2 -> f2 - e1, fixing e1, e2 (basis order e1 e2 f1 f2)."""
    m = np.eye(4, dtype=np.int64)
    m[1, 2] = 1
    m[0, 3] = -1
    return Matrix(m, p)


class TestFormSpace:
    def test_standard_models(self):
        assert FormSpace.symplectic(4, 3).parity == "alternating"
        assert form_spaces.dot(3, 5).parity == "symmetric"
        assert form_spaces.hyperbolic(4, 5).parity == "symmetric"

    def test_alternating_needs_even_dim(self):
        with pytest.raises(ValueError):
            FormSpace.symplectic(3, 5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            FormSpace(Matrix([[1, 0], [0, 0]], 5), "symmetric")

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_odd_size_alternating_is_degenerate(self, p):
        # det A = det(-A^T) = (-1)^n det A, so an odd-size antisymmetric A is singular
        rng = Random(p)
        for n in (1, 3, 5):
            for _ in range(20):
                a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
                gram = Matrix(np.triu(a, 1) - np.triu(a, 1).T, p)
                with pytest.raises(ValueError, match="the pairing must be non-degenerate"):
                    FormSpace(gram, "alternating")

    def test_parity_validation(self):
        with pytest.raises(ValueError, match="not antisymmetric"):
            FormSpace(Matrix([[0, 1], [1, 0]], 5), "alternating")
        with pytest.raises(ValueError, match="not symmetric"):
            FormSpace(Matrix([[0, 1], [4, 0]], 5), "symmetric")
        with pytest.raises(ValueError, match="unknown parity"):
            FormSpace(Matrix.identity(2, 5), "hermitian")
        with pytest.raises(ValueError, match="must be square"):
            FormSpace(Matrix([[1, 0, 0], [0, 1, 0]], 5), "symmetric")
        FormSpace(Matrix([[0, 1], [4, 0]], 5), "alternating")

    def test_evaluate(self):
        space = FormSpace(Matrix([[0, 1], [4, 0]], 5), "alternating")
        assert space.pair([1, 0], [0, 1]) == 1
        assert space.pair([0, 1], [1, 0]) == 4
        assert space.q([1, 1]) == 0

    def test_from_gram_infers_parity(self):
        assert FormSpace.from_gram(Matrix([[0, 1], [4, 0]], 5)).parity == "alternating"
        assert FormSpace.from_gram(Matrix.identity(2, 5)).parity == "symmetric"


class TestDrop:
    def test_identity(self):
        assert classify_element(Matrix.identity(3, 5), form_spaces.dot(3, 5)).drop == 0

    def test_diagonal_reflection(self):
        assert classify_element(Matrix.diagonal([-1, 1, 1], 5), form_spaces.dot(3, 5)).drop == 1

    def test_siegel_element(self):
        space = form_spaces.hyperbolic(4, 5)
        sigma = siegel_element_on_hyperbolic_o4()
        assert is_isometry(sigma, space)
        assert classify_element(sigma, space).drop == 2

    def test_non_isometry_rejected(self):
        with pytest.raises(NotAnIsometry):
            classify_element(Matrix([[2, 0], [0, 1]], 5), form_spaces.dot(2, 5))


class TestClassify:
    def test_transvection(self):
        space = FormSpace.from_gram(Matrix([[0, 1], [4, 0]], 5))
        cls = classify_element(Matrix([[1, 1], [0, 1]], 5), space)
        assert cls.tag == TRANSVECTION and cls.drop == 1

    def test_reflection(self):
        cls = classify_element(Matrix.diagonal([-1, 1, 1], 5), form_spaces.dot(3, 5))
        assert cls.tag == REFLECTION and cls.drop == 1

    def test_siegel_element_is_isotropic_shear(self):
        space = form_spaces.hyperbolic(4, 5)
        sigma = siegel_element_on_hyperbolic_o4()
        cls = classify_element(sigma, space)
        assert cls.tag == ISOTROPIC_SHEAR and cls.drop == 2
        # the isotropy of the image, spelled out: e1, e2 span it
        assert space.pair([1, 0, 0, 0], [0, 1, 0, 0]) == 0
        assert space.q([1, 0, 0, 0]) == 0 and space.q([0, 1, 0, 0]) == 0

    def test_identity_and_other(self):
        space = form_spaces.dot(3, 5)
        assert classify_element(Matrix.identity(3, 5), space).tag == IDENTITY
        assert classify_element(Matrix.scalar(-1, 3, 5), space).tag == OTHER

    def test_no_transvections_or_shears_in_o3_f5(self):
        # exhaustive over the whole group, via reflection closure
        space = form_spaces.dot(3, 5)
        refls = [reflection(space, r) for r in anisotropic_vectors(space, 40)]
        group = naive_closure(refls)
        assert len(group) == 240
        tags = {classify_element(m, space).tag for m in group}
        assert TRANSVECTION not in tags
        assert ISOTROPIC_SHEAR not in tags  # symmetric shears need dim >= 4

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize(
        "make,dim",
        [(FormSpace.symplectic, n) for n in (2, 4, 6)] + [(form_spaces.dot, n) for n in range(2, 7)],
    )
    def test_drop_one_tag_follows_the_determinant(self, make, dim, p):
        # g^T G g = G gives det(g)^2 = 1, so a drop-1 isometry is tagged by
        # whether its determinant is -1
        space = make(dim, p)
        rng = Random(1000 * p + dim)
        drop_one = 0
        for _ in range(30):
            g = random_isometry(space, rng, rng.randrange(0, 3)) @ random_isometry(
                space, rng, rng.randrange(0, 3)
            )
            det = g.det()
            assert det in (1, p - 1)
            cls = classify_element(g, space)
            if cls.drop == 1:
                drop_one += 1
                assert cls.tag == (REFLECTION if det == p - 1 else TRANSVECTION)
        assert drop_one


# in dimensions 3 and 4 the unreduced builder products (up to n p^4 and
# n p^3) and the chained pairing (n^2 p^3) overflow int64 at this modulus,
# while the bound n (p-1)^2 < 2^63 of Matrix holds with room to spare
LARGE_P = 2_000_003


def _random_gram(n, p, rng, parity):
    """A random non-degenerate symmetric or alternating Gram matrix."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    g[i][i] = rng.randrange(p) if parity == "symmetric" else 0
                else:
                    g[i][j] = rng.randrange(1, p)
                    g[j][i] = g[i][j] if parity == "symmetric" else (-g[i][j]) % p
        gram = Matrix(g, p)
        if gram.det():
            return FormSpace(gram, parity), g


def _python_pair(g, p, u, v):
    n = len(g)
    return sum(int(u[i]) * g[i][j] * int(v[j]) for i in range(n) for j in range(n)) % p


def _python_map(n, p, image):
    """The matrix whose column j is ``image(e_j)``, in Python integers."""
    cols = [image([int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] % p for j in range(n)] for i in range(n)]


class TestNormClassSize:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_a_count_of_every_vector(self, n, p):
        # every vector of F_p^n, counted by its norm, on random symmetric grams
        rng = Random(10 * p + n)
        vecs = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
        for _ in range(4):
            space, g = _random_gram(n, p, rng, "symmetric")
            norms = np.einsum("ki,ij,kj->k", vecs, np.array(g, dtype=np.int64), vecs) % p
            counts = np.bincount(norms, minlength=p)
            for c in range(1, p):
                assert _norm_class_size(space, c) == counts[c], (g, c)


class TestBuilders:
    def test_evaluate_exact_at_large_modulus(self):
        rng = Random(1)
        space, g = _random_gram(3, LARGE_P, rng, "symmetric")
        for _ in range(30):
            u = [rng.randrange(LARGE_P) for _ in range(3)]
            v = [rng.randrange(LARGE_P) for _ in range(3)]
            assert space.pair(u, v) == _python_pair(g, LARGE_P, u, v)

    @pytest.mark.parametrize("n", [3, 4])
    def test_reflection_exact_at_large_modulus(self, n):
        p = LARGE_P
        rng = Random(1)
        space, g = _random_gram(n, p, rng, "symmetric")
        for _ in range(30):
            r = [rng.randrange(p) for _ in range(n)]
            qr = _python_pair(g, p, r, r)
            if qr == 0:
                continue
            c = 2 * pow(qr, -1, p)
            s = reflection(space, np.array(r))
            expected = _python_map(
                n, p, lambda x: [x[i] - c * _python_pair(g, p, r, x) * r[i] for i in range(n)]
            )
            assert s.array.tolist() == expected
            assert is_isometry(s, space)

    def test_transvection_exact_at_large_modulus(self):
        p = LARGE_P
        rng = Random(1)
        space, g = _random_gram(4, p, rng, "alternating")
        for _ in range(30):
            v = [rng.randrange(p) for _ in range(4)]
            c = rng.randrange(1, p)
            t = transvection(space, np.array(v), c)
            expected = _python_map(
                4, p, lambda x: [x[i] + c * _python_pair(g, p, v, x) * v[i] for i in range(4)]
            )
            assert t.array.tolist() == expected
            assert is_isometry(t, space)

    def test_siegel_shear_exact_at_large_modulus(self):
        # conjugate the hyperbolic form by a random A, so A^-1 e1 and A^-1 e2
        # span a totally isotropic plane of a non-diagonal Gram matrix
        p = LARGE_P
        rng = Random(1)
        hyp = form_spaces.hyperbolic(4, p).gram
        for _ in range(10):
            a = random_invertible(4, p, rng)
            gram = a.T @ hyp @ a
            space = FormSpace.from_gram(gram)
            g = gram.array.tolist()
            a_inv = a.inv().array
            u, w = a_inv[:, 0].tolist(), a_inv[:, 1].tolist()
            s = siegel_shear(space, np.array(u), np.array(w))
            expected = _python_map(
                4,
                p,
                lambda x: [
                    x[i] + _python_pair(g, p, u, x) * w[i] - _python_pair(g, p, w, x) * u[i]
                    for i in range(4)
                ],
            )
            assert s.array.tolist() == expected
            assert is_isometry(s, space)

    def test_reflection_is_involution_fixing_perp(self):
        space = form_spaces.dot(3, 5)
        for r in anisotropic_vectors(space, 10):
            s = reflection(space, r)
            assert is_isometry(s, space)
            assert (s @ s).is_identity()
            assert classify_element(s, space).tag == REFLECTION
            assert np.array_equal(apply(s, r), (-np.asarray(r)) % 5)

    def test_transvection_preserves_form(self):
        space = FormSpace.symplectic(4, 3)
        rng = Random(0)
        for _ in range(20):
            v = np.array([rng.randrange(3) for _ in range(4)], dtype=np.int64)
            if not v.any():
                continue
            t = transvection(space, v, rng.randrange(1, 3))
            assert is_isometry(t, space)
            assert classify_element(t, space).tag == TRANSVECTION

    def test_siegel_shear_builder(self):
        space = form_spaces.hyperbolic(4, 5)
        e1 = np.array([1, 0, 0, 0])
        e2 = np.array([0, 1, 0, 0])
        s = siegel_shear(space, e1, e2)
        assert is_isometry(s, space)
        assert classify_element(s, space).tag == ISOTROPIC_SHEAR

    def test_isotropic_vectors_in_counting_order(self):
        # coordinate 0 is the fastest digit, as in idx = sum v_k p^k
        space = form_spaces.hyperbolic(4, 3)
        counting = (np.array(t[::-1]) for t in itertools.product(range(3), repeat=4))
        expected = [v for v in counting if v.any() and space.q(v) == 0]
        assert len(expected) == 32
        found = isotropic_vectors(space, 100)
        assert [v.tolist() for v in found] == [v.tolist() for v in expected]

    @pytest.mark.parametrize("n, p", [(1, 3), (2, 5), (3, 3), (3, 7), (4, 3)])
    def test_nonzero_vectors_match_the_per_index_decode(self, n, p):
        found = [v.tolist() for v in nonzero_vectors(n, p)]
        assert found == [v.tolist() for v in nonzero_vectors_per_index(n, p)]

    def test_random_isometry_is_isometry(self):
        rng = Random(1)
        for space in (form_spaces.dot(3, 5), FormSpace.symplectic(2, 7)):
            for _ in range(10):
                assert is_isometry(random_isometry(space, rng), space)


class TestSpinorNorm:
    def test_identity_is_trivial(self):
        assert spinor_norm(Matrix.identity(3, 5), form_spaces.dot(3, 5)) == 1

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: spinor_norm(Matrix.identity(2, 5), FormSpace.symplectic(2, 5)),
             InvalidInput, "defined on orthogonal groups"),
            # an array is not a Matrix: no bare AttributeError escapes
            (lambda: spinor_norm(np.eye(2, dtype=np.int64), form_spaces.dot(2, 5)),
             NotAnIsometry, "does not match the space"),
            (lambda: classify_element(np.eye(2, dtype=np.int64), form_spaces.dot(2, 5)),
             NotAnIsometry, "does not match the space"),
            (lambda: derived_containment([np.eye(2, dtype=np.int64)], form_spaces.dot(2, 5)),
             NotAnIsometry, "does not match the space"),
        ],
        ids=["alternating", "array-spinor", "array-classify", "array-derived"],
    )
    def test_typed_rejections(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_non_isometry_rejected(self):
        space = form_spaces.dot(2, 5)
        with pytest.raises(NotAnIsometry, match="does not preserve the pairing"):
            spinor_norm(Matrix([[2, 0], [0, 1]], 5), space)
        with pytest.raises(NotAnIsometry, match="does not match the space"):
            spinor_norm(Matrix.identity(2, 7), space)

    def test_single_reflection_square_classes(self):
        space = form_spaces.dot(3, 5)
        square_root = np.array([1, 0, 0])  # q = 1, a square
        nonsquare_root = np.array([1, 1, 0])  # q = 2, a nonsquare mod 5
        assert square_class(1, 5) == 1 and square_class(2, 5) == -1
        assert spinor_norm(reflection(space, square_root), space) == 1
        assert spinor_norm(reflection(space, nonsquare_root), space) == -1

    def test_depends_only_on_root_square_class(self):
        space = form_spaces.dot(3, 5)
        for r in anisotropic_vectors(space, 20):
            s = reflection(space, r)
            assert spinor_norm(s, space) == square_class(space.q(r), 5)

    def test_minus_identity_o3_f5(self):
        # explicit 3-reflection factorization through the orthogonal basis
        space = form_spaces.dot(3, 5)
        eye = np.eye(3, dtype=np.int64)
        product = reflection(space, eye[0]) @ reflection(space, eye[1]) @ reflection(
            space, eye[2]
        )
        assert product == Matrix.scalar(-1, 3, 5)
        assert spinor_norm(Matrix.scalar(-1, 3, 5), space) == 1

    @pytest.mark.parametrize(
        "space",
        [
            form_spaces.dot(3, 5),
            form_spaces.dot(4, 5),
            form_spaces.hyperbolic(4, 7),
            # the twist family's own non-diagonal Gram matrices, O(8,5) included
            twist_family_system([2], 5).space,
            twist_family_system([2, 3], 5).space,
            twist_family_system([2, 3], 7).space,
            twist_family_system([2, 3, 4], 5).space,
        ],
    )
    def test_agrees_with_random_factorizations(self, space):
        # oracle: build gamma as an explicit product of reflections with
        # known roots; the spinor norm must equal the product of the root
        # square classes, whatever factorization spinor_norm itself found
        rng = Random(2)
        pool = anisotropic_vectors(space, 30)
        for _ in range(40):
            expected = 1
            g = Matrix.identity(space.dim, space.p)
            for _ in range(rng.randrange(1, 7)):
                r = pool[rng.randrange(len(pool))]
                g = g @ reflection(space, r)
                expected *= square_class(space.q(r), space.p)
            assert spinor_norm(g, space) == expected

    def test_multiplicative(self):
        rng = Random(3)
        space = form_spaces.dot(4, 5)
        for _ in range(25):
            a = random_isometry(space, rng)
            b = random_isometry(space, rng)
            assert spinor_norm(a @ b, space) == spinor_norm(a, space) * spinor_norm(
                b, space
            )

    @pytest.mark.parametrize(
        "kind, arg, p",
        [("dot", n, p) for n in range(1, 7) for p in (3, 5, 7, 11)]
        + [("hyperbolic", n, p) for n in (2, 4, 6) for p in (3, 5, 7)]
        + [("twist", roots, p) for roots in ((2,), (2, 3)) for p in (5, 7)],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_matches_reflection_factorization_reference(self, kind, arg, p):
        # oracle: the factorization search spinor_norm used before it took
        # the discriminant of Wall's form, on random isometries of length
        # 0-9, on -1, and on Siegel shears alone and times an isometry
        if kind == "twist":
            space = twist_family_system(list(arg), p).space
        else:
            space = getattr(form_spaces, kind)(arg, p)
        rng = Random(4)
        elements = [random_isometry(space, rng, length) for length in range(10) for _ in range(3)]
        elements.append(Matrix.scalar(-1, space.dim, space.p))
        shears = _siegel_shears(space, 4)
        elements += shears + [s @ random_isometry(space, rng, 3) for s in shears]
        for g in elements:
            assert spinor_norm(g, space) == reference_spinor_norm(g, space)


def _siegel_shears(space, count):
    """Up to ``count`` Siegel shears on isotropic planes found by scanning."""
    iso = isotropic_vectors(space, 40)
    out = []
    for i, u in enumerate(iso):
        for w in iso[i + 1:]:
            independent = Matrix(np.stack([u, w]), space.p).rank() == 2
            if independent and space.pair(u, w) == 0:
                out.append(siegel_shear(space, u, w))
                if len(out) == count:
                    return out
    return out


class TestGroupOrders:
    def test_sp2_f3_brute_force(self):
        space = FormSpace.symplectic(2, 3)
        assert len(brute_force_isometries(space)) == 24
        assert isometry_group_orders(space).full_order == 24

    def test_o3_f5_brute_force(self):
        space = form_spaces.dot(3, 5)
        assert len(brute_force_isometries(space)) == 240
        assert isometry_group_orders(space).full_order == 240

    @pytest.mark.parametrize(
        "space,expected",
        [
            (FormSpace.symplectic(2, 3), 24),
            (FormSpace.symplectic(2, 5), 120),
            (FormSpace.symplectic(4, 3), 51840),
            (form_spaces.dot(3, 3), 48),
            (form_spaces.dot(3, 5), 240),
            (form_spaces.hyperbolic(2, 5), 8),  # O_2^+: dihedral of order 2(p-1)
            (form_spaces.dot(2, 5), 8),  # disc -1 is a square mod 5: plus type
            (FormSpace.from_gram(Matrix.diagonal([1, 2], 5)), 12),  # minus type
            (form_spaces.hyperbolic(4, 5), 28800),
            (form_spaces.dot(4, 5), 28800),  # disc 1: plus type
            (FormSpace.from_gram(Matrix.diagonal([1, 1, 1, 2], 5)), 31200),
            (form_spaces.dot(5, 5), 18720000),
        ],
    )
    def test_order_formulas(self, space, expected):
        assert isometry_group_orders(space).full_order == expected

    def test_sp4_f3_closure_cross_check(self):
        space = FormSpace.symplectic(4, 3)
        gens = derived_subgroup_generators(space)
        assert len(naive_closure(gens)) == 51840

    @pytest.mark.parametrize(
        "space",
        [
            FormSpace.symplectic(2, 3),
            FormSpace.symplectic(2, 5),
            form_spaces.dot(2, 3),
            form_spaces.hyperbolic(2, 3),
            form_spaces.dot(3, 3),
            FormSpace.symplectic(4, 3),
            form_spaces.dot(4, 3),
            form_spaces.hyperbolic(4, 3),
            form_spaces.hyperbolic(4, 5),
            FormSpace.from_gram(Matrix.diagonal([1, 1, 1, 2], 5)),
        ],
    )
    def test_order_matches_group_closure(self, space):
        # enumerate the full isometry group from pseudoreflection generators
        if space.parity == "alternating":
            gens = _all_transvections(space)
        else:
            gens = [reflection(space, r) for r in anisotropic_vectors(space, 80)]
        orders = isometry_group_orders(space)
        assert len(naive_closure(gens)) == orders.full_order

    def test_derived_index(self):
        assert isometry_group_orders(FormSpace.symplectic(4, 5)).index_classes == 1
        assert isometry_group_orders(form_spaces.dot(4, 5)).index_classes == 4


def _all_transvections(space):
    out = []
    seen = set()
    n, p = space.dim, space.p
    for entries in itertools.product(range(p), repeat=n):
        v = np.array(entries, dtype=np.int64)
        if not v.any():
            continue
        t = transvection(space, v, 1)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _class_of(gens, space):
    """The class ``derived_containment`` gives a group known to contain Omega."""
    derived, cls = derived_containment(gens, space)
    assert derived
    return cls


class TestSubgroupClass:
    def test_reflections_of_both_square_classes_give_full_o(self):
        space = form_spaces.dot(3, 5)
        gens = list(derived_subgroup_generators(space)) + [
            reflection(space, np.array([1, 0, 0])),  # square class +1
            reflection(space, np.array([1, 1, 0])),  # square class -1
        ]
        assert _class_of(gens, space) == "FullO"

    def test_omega_generators_plus_square_reflection_give_ker_spinor(self):
        space = form_spaces.dot(3, 5)
        gens = list(derived_subgroup_generators(space))
        gens.append(reflection(space, np.array([1, 0, 0])))
        assert _class_of(gens, space) == "KerSpinor"

    def test_omega_generators_alone(self):
        space = form_spaces.dot(3, 5)
        gens = derived_subgroup_generators(space)
        assert _class_of(gens, space) == "Omega"

    def test_so_image(self):
        space = form_spaces.dot(3, 5)
        # product of reflections in roots of different square classes:
        # determinant +1, spinor norm -1
        g = reflection(space, np.array([1, 0, 0])) @ reflection(
            space, np.array([1, 1, 0])
        )
        gens = list(derived_subgroup_generators(space)) + [g]
        assert _class_of(gens, space) == "SO"


def _settles(space: FormSpace, gens: list[Matrix]) -> bool:
    return _witness(space, gens, [classify_element(g, space) for g in gens]) is not None


# |N| on the spaces that _witness leaves on the chain, by (n, p, d, c)
_CHAIN_ORDERS = {
    # O(3,3): the class of three reflections (in an orthogonal basis)
    # gives (Z/2)^3, of order 8, against 2 |Omega(3,3)| = 24
    (3, 3, 1, 1): 8, (3, 3, 1, 2): 24, (3, 3, 2, 1): 24, (3, 3, 2, 2): 8,
    # O+(4,3): each class gives 192, against 2 |Omega| = 576
    (4, 3, 1, 1): 192, (4, 3, 1, 2): 192,
    # O-(4,3): 720 = 2 |Omega|; the proof settles it, but the rule is
    # simpler with every symmetric space of dimension 3 or 4 over F_3 on the chain
    (4, 3, 2, 1): 720, (4, 3, 2, 2): 720,
}


class TestGenerationOracle:
    """The generation statements behind ``_witness``, on every small space it might settle.

    A full witness orbit puts in G every reflection of one norm c (every
    transvection of one parameter).  The group N they generate must then
    contain the derived subgroup wherever ``_witness`` settles the space.
    Each N here is built from all its generators.
    """

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [3, 4])
    def test_reflections_of_one_norm_contain_omega_where_settled(self, n, p):
        nonsquare = form_spaces.nonsquare(p)
        for d in (1, nonsquare):  # both discriminants: both Witt types at n = 4
            space = form_spaces.diagonal(n, p, d)
            omega = isometry_group_orders(space).derived_order
            for c in (1, nonsquare):
                roots = [v for v in nonzero_vectors(n, p) if space.q(v) == c]
                assert len(roots) == _norm_class_size(space, c)
                # r_v = r_-v: one generator per pair of roots
                gens = list({reflection(space, v): None for v in roots})
                order = GeneratedGroup(gens).order()
                if _settles(space, gens):
                    # (det, spinor norm) maps N onto {(1, 1), (-1, c)}
                    assert order == 2 * omega, (n, p, d, c)
                else:
                    assert order == _CHAIN_ORDERS.get((n, p, d, c)), (n, p, d, c)
                    assert order == len(naive_closure(gens))

    def test_sp_2_3_is_settled_by_each_transvection_parameter(self):
        # SL(2,3)'s normal subgroups are 1, +-1, Q_8 and SL(2,3); only the
        # last holds elements of order 3
        space = FormSpace.symplectic(2, 3)
        for c in (1, 2):
            gens = [transvection(space, v, c) for v in nonzero_vectors(2, 3)]
            assert _settles(space, gens)
            assert GeneratedGroup(gens).order() == len(naive_closure(gens)) == 24
            assert isometry_group_orders(space).full_order == 24
