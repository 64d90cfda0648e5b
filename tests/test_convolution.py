"""The convolution functor and its local-data calculus."""

from random import Random

import numpy as np
import pytest

import monodromy.ff_linalg as ff
from monodromy.convolution import (
    INFINITY,
    PuncturedTuple,
    _fixed_rows,
    map_local_jordan,
    middle_convolve,
    predict_rank,
    twist_quadratic,
)
from monodromy.errors import InvalidInput, NotInCategory
from monodromy.families import hyperelliptic_system, kummer_tuple
from monodromy.ff_linalg import (
    JordanData,
    Matrix,
    Subspace,
    invariant_forms,
    jordan_type,
    random_invertible,
)
from monodromy.group_engine import GeneratedGroup, is_irreducible
from convolution_reference import reference_fixed_space, reference_middle_convolve


def kummer(points, p):
    return PuncturedTuple(points, [Matrix([[p - 1]], p)] * len(points))


def product_is_identity(t):
    acc = Matrix.identity(t.rank, t.p)
    for m in t.matrices:
        acc = acc @ m
    return (acc @ t.infinity_matrix).is_identity()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: PuncturedTuple([0, 1], [Matrix.identity(2, 5)]), "one matrix per puncture"),
        (lambda: PuncturedTuple([], []), "need at least one puncture"),
        (lambda: PuncturedTuple([0, 1], [Matrix.identity(2, 5), Matrix.identity(3, 5)]),
         "must share size and modulus"),
        (lambda: map_local_jordan(JordanData([(2, 1)], 5), 10), "lambda must be nonzero"),
        (lambda: twist_quadratic(kummer([0], 5), [1, 2, 1]), "twist points repeat"),
    ],
    ids=["lengths", "no-puncture", "mixed-sizes", "lambda-0", "repeated-twist"],
)
def test_typed_rejections(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


class TestPuncturedTuple:
    def test_canonical_order_residues_then_symbols(self):
        p = 5
        mats = [Matrix([[2]], p), Matrix([[3]], p), Matrix([[4]], p)]
        t = PuncturedTuple([3, "s", 0], mats)
        assert t.punctures == (0, 3, "s")
        assert t.matrix_at(0) == Matrix([[4]], p)
        assert t.matrix_at(3) == Matrix([[2]], p)

    def test_infinity_is_product_inverse(self):
        rng = Random(0)
        for _ in range(10):
            mats = [random_invertible(2, 5, rng) for _ in range(3)]
            t = PuncturedTuple([0, 1, 2], mats)
            assert product_is_identity(t)

    def test_rejects_duplicates_and_bad_labels(self):
        p = 5
        with pytest.raises(ValueError):
            PuncturedTuple([0, 0], [Matrix([[1]], p)] * 2)
        with pytest.raises(ValueError):
            PuncturedTuple([7], [Matrix([[1]], p)])
        with pytest.raises(ValueError):
            PuncturedTuple(["has space"], [Matrix([[1]], p)])

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="puncture matrices must be invertible"):
            PuncturedTuple([0], [Matrix([[0]], 5)])
        # one singular matrix among invertible ones makes the product singular
        rng = Random(1)
        mats = [random_invertible(3, 7, rng) for _ in range(3)]
        mats.insert(1, Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 7))
        with pytest.raises(ValueError, match="puncture matrices must be invertible"):
            PuncturedTuple([0, 1, 2, 3], mats)


class TestKummerConvolution:
    def test_rank_two_with_transvection_pair(self):
        t = kummer([0, 1], 5)
        out = middle_convolve(t, -1)
        assert out.rank == 2
        for m in out.matrices:
            assert jordan_type(m).blocks == ((1, 2),)
        forms = invariant_forms(out.matrices)
        assert len(forms) == 1
        assert forms[0].T == -forms[0]  # alternating

    def test_twice_recovers_rank_and_local_data(self):
        t = kummer([0, 1], 5)
        once = middle_convolve(t, -1)
        twice = middle_convolve(once, -1)
        assert twice.rank == t.rank
        for lab in t.punctures:
            assert jordan_type(twice.matrix_at(lab)) == jordan_type(t.matrix_at(lab))
        g_in = GeneratedGroup(t.matrices).order()
        g_out = GeneratedGroup(twice.matrices).order()
        assert g_in == g_out

    def test_mc_one_is_identity_grade(self):
        t = kummer([0, 1, 2], 7)
        out = middle_convolve(t, 1)
        assert out.rank == t.rank
        for lab in t.punctures:
            assert jordan_type(out.matrix_at(lab)) == jordan_type(t.matrix_at(lab))

    def test_not_in_category(self):
        p = 5
        t = PuncturedTuple([0, 1], [Matrix([[p - 1]], p), Matrix([[1]], p)])
        with pytest.raises(NotInCategory):
            middle_convolve(t, -1)

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError):
            middle_convolve(kummer([0, 1], 5), 0)

    def test_modulus_too_large_for_the_block_space_rejected(self):
        # the 1x1 inputs pass Matrix's bound, but products on the
        # 3-dimensional block space sum 3 (p-1)^2 > 2^63
        with pytest.raises(ValueError, match="too large"):
            middle_convolve(kummer([0, 1, 2], 2**31 - 1), -1)

    def test_exact_at_the_product_bound(self):
        # 1753413037 is the largest prime p with 3 (p-1)^2 < 2^63, so the
        # products on the 3-dimensional block space reach the int64 edge
        p = 1753413037
        t = kummer_tuple([0, 1, 2], p)
        for lam in (-1, 2, p - 2):
            assert middle_convolve(t, lam) == reference_middle_convolve(t, lam)

    def test_output_product_identity(self):
        out = middle_convolve(kummer([0, 1, 2, 3], 5), -1)
        assert product_is_identity(out)

    def test_output_irreducible(self):
        out = middle_convolve(kummer([0, 1, 2, 3], 5), -1)
        assert is_irreducible(out.matrices).irreducible


class TestPredictRank:
    def test_kummer_scalars(self):
        for g in (1, 2, 3):
            p = 7
            local = [JordanData([(p - 1, 1)], p)] * (2 * g)
            inf = JordanData([(1, 1)], p)
            assert predict_rank(local, inf, -1) == 2 * g

    def test_lambda_one_formula(self):
        p = 5
        local = [JordanData([(1, 2), (2, 1)], p), JordanData([(1, 1), (1, 2)], p)]
        inf = JordanData([(1, 1), (4, 2)], p)
        # plain formula evaluation: sum of fixed-space codimensions (2 and 1)
        # minus the eigenvalue-1 block count at infinity
        assert predict_rank(local, inf, 1) == (2 + 1) - 1

    def test_legendre_twist_d3(self):
        # rank-2 base: transvections at 0 and 1, -1 twists at two roots,
        # infinity carries a single eigenvalue -1 block of size 2
        p = 5
        u2 = JordanData([(1, 2)], p)
        minus = JordanData([(4, 1), (4, 1)], p)
        inf = JordanData([(4, 2)], p)
        assert predict_rank([u2, u2, minus, minus], inf, -1) == 5

    def test_dimension_mismatch_rejected(self):
        p = 5
        with pytest.raises(ValueError):
            predict_rank([JordanData([(1, 1)], p)], JordanData([(1, 2)], p), -1)


class TestMapLocalJordan:
    def test_scalar_minus_one_becomes_transvection_block(self):
        p = 5
        data = JordanData([(p - 1, 1)], p)
        assert map_local_jordan(data, -1).blocks == ((1, 2),)

    def test_doubled_scalar_blocks(self):
        p = 5
        data = JordanData([(p - 1, 1), (p - 1, 1)], p)
        assert map_local_jordan(data, -1).blocks == ((1, 2), (1, 2))

    def test_generic_eigenvalue_scales(self):
        p = 7
        lam = 3
        a = 2  # not 1 and not 1/lam = 5
        assert map_local_jordan(JordanData([(a, 1)], p), lam).blocks == ((6, 1),)

    def test_unipotent_shrinks(self):
        p = 5
        assert map_local_jordan(JordanData([(1, 3)], p), 2).blocks == ((2, 2),)

    def test_trivial_blocks_dropped(self):
        p = 5
        data = JordanData([(1, 1), (1, 1), (4, 1)], p)
        assert map_local_jordan(data, -1).blocks == ((1, 2),)

    def test_lambda_one_returns_nontrivial_part(self):
        p = 5
        data = JordanData([(1, 1), (2, 2)], p)
        assert map_local_jordan(data, 1).blocks == ((2, 2),)


class TestTwistQuadratic:
    def test_insert_new_point(self):
        p = 5
        t = middle_convolve(kummer([0, 1], p), -1)
        out = twist_quadratic(t, [2])
        assert out.punctures == (0, 1, 2)
        assert out.matrix_at(2) == Matrix.scalar(-1, 2, p)
        assert product_is_identity(out)

    def test_twist_twice_is_identity(self):
        p = 5
        t = middle_convolve(kummer([0, 1], p), -1)
        assert twist_quadratic(twist_quadratic(t, [2, 3]), [2, 3]) == t

    def test_twist_at_existing_transvection_raises_drop(self):
        p = 5
        t = middle_convolve(kummer([0, 1], p), -1)
        out = twist_quadratic(t, [0])
        m = out.matrix_at(0)
        assert m == -t.matrix_at(0)
        assert (m - Matrix.identity(2, p)).rank() == 2  # drop jumps to 2

    def test_infinity_picks_up_sign(self):
        p = 5
        t = middle_convolve(kummer([0, 1], p), -1)
        out = twist_quadratic(t, [2])
        assert out.infinity_matrix == -t.infinity_matrix


def random_split_tuple(rng, p, n, punctures):
    """Random tuple with split local spectra (conjugated Jordan forms)."""
    mats = []
    for _ in range(punctures):
        blocks = []
        left = n
        while left:
            size = rng.randrange(1, left + 1)
            eig = rng.randrange(1, p)
            blocks.append((eig, size))
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
        mats.append(g.inv() @ Matrix(m, p) @ g)
    labels = [i if i < p else f"t{i}" for i in range(punctures)]
    return PuncturedTuple(labels, mats)


def in_category(t):
    try:
        jordan_type(t.infinity_matrix)
    except Exception:
        return False  # corpus keeps every local spectrum split
    if t.rank == 1:
        return t.nontrivial_count() >= 2
    if t.nontrivial_count() < 2:
        return False
    return is_irreducible(t.matrices).irreducible


class TestLocalCalculusContract:
    """Randomized contract checks; the acceptance suite runs the full corpus."""

    def test_quadratic_corpus_matches_predict_rank(self):
        rng = Random(10)
        accepted = 0
        while accepted < 25:
            p = rng.choice([3, 5, 7])
            n = rng.randrange(1, 4)
            r = rng.randrange(2, 6)
            t = random_split_tuple(rng, p, n, r)
            if not in_category(t):
                continue
            accepted += 1
            out = middle_convolve(t, -1)
            data = t.local_data()
            inf = data.pop(INFINITY)
            assert out.rank == predict_rank(list(data.values()), inf, -1)
            assert product_is_identity(out)
            for lab in t.punctures:
                got = jordan_type(out.matrix_at(lab)).nontrivial()
                want = map_local_jordan(jordan_type(t.matrix_at(lab)), -1)
                assert got == want, (p, n, r, lab)

    def test_composition_law(self):
        # convolving by l2 then l1 matches convolving once by l1*l2,
        # in rank and in every finite local datum
        rng = Random(42)
        done = 0
        while done < 8:
            p = rng.choice([5, 7])
            n = rng.randrange(1, 3)
            r = rng.randrange(2, 5)
            t = random_split_tuple(rng, p, n, r)
            if not in_category(t):
                continue
            l1 = rng.randrange(2, p)
            l2 = rng.randrange(2, p)
            if (l1 * l2) % p == 1:
                continue
            try:
                via_two = middle_convolve(middle_convolve(t, l2), l1)
                direct = middle_convolve(t, (l1 * l2) % p)
            except NotInCategory:
                continue
            done += 1
            assert via_two.rank == direct.rank
            for lab in t.punctures:
                assert jordan_type(via_two.matrix_at(lab)) == jordan_type(
                    direct.matrix_at(lab)
                )

    def test_general_lambda_block_map(self):
        # for lambda of order > 2 the finite punctures still transform by
        # the three-case block map; the infinity bookkeeping follows the
        # lambda-eigenspace orientation of the derived infinity matrix
        rng = Random(11)
        accepted = 0
        while accepted < 15:
            p = rng.choice([5, 7])
            n = rng.randrange(1, 4)
            r = rng.randrange(2, 6)
            t = random_split_tuple(rng, p, n, r)
            if not in_category(t):
                continue
            lam = rng.randrange(2, p - 1)
            accepted += 1
            out = middle_convolve(t, lam)
            eye = np.eye(n, dtype=np.int64)
            codims = sum((m - Matrix.identity(n, p)).rank() for m in t.matrices)
            inf_eigen = n - (t.infinity_matrix - Matrix.scalar(lam, n, p)).rank()
            assert out.rank == codims - inf_eigen
            assert product_is_identity(out)
            for lab in t.punctures:
                got = jordan_type(out.matrix_at(lab)).nontrivial()
                want = map_local_jordan(jordan_type(t.matrix_at(lab)), lam)
                assert got == want, (p, n, r, lam, lab)


def _outcome(convolve, t, lam):
    """The emitted tuple, or the class and message of the error raised."""
    try:
        return convolve(t, lam)
    except Exception as exc:
        return type(exc), str(exc)


class TestReferenceOracle:
    """``middle_convolve`` against the stacked-system construction it replaced."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("lam", [1, -1, 2, 3])
    def test_matches_reference(self, p, lam):
        if lam % p == 0:
            pytest.skip("lambda must be nonzero mod p")
        rng = Random(p * 10 + lam)
        emitted = raised = 0
        for n in range(1, 6):
            for r in range(1 if n >= 2 else 2, 8):
                t = random_split_tuple(rng, p, n, r)
                # the same tuple with an identity puncture in front
                mats = [Matrix.identity(n, p)] + list(t.matrices[1:])
                for case in (t, PuncturedTuple(t.punctures, mats)):
                    got = _outcome(middle_convolve, case, lam)
                    assert got == _outcome(reference_middle_convolve, case, lam), (n, r)
                    if isinstance(got, tuple):
                        raised += 1
                        continue
                    emitted += 1
                    again = _outcome(middle_convolve, got, lam)
                    assert again == _outcome(reference_middle_convolve, got, lam), (n, r)
        assert emitted and raised


def tuple_with_infinity(rng, p, n, r, lam, d):
    """Random tuple whose infinity matrix is diagonalizable with lambda of multiplicity d."""
    others = [x for x in range(1, p) if x != lam % p]
    diag = [lam % p] * d + [rng.choice(others) for _ in range(n - d)]
    g = random_invertible(n, p, rng)
    infinity = g.inv() @ Matrix.diagonal(diag, p) @ g
    mats = [random_invertible(n, p, rng) for _ in range(r - 1)]
    product = Matrix.identity(n, p)
    for m in mats:
        product = product @ m
    # the ordered product over all punctures is infinity^-1
    mats.append((infinity @ product).inv())
    labels = [i if i < p else f"t{i}" for i in range(r)]
    return PuncturedTuple(labels, mats)


class TestFixedSpace:
    """``_fixed_rows`` against the r*n x r*n kernel it replaced."""

    def test_matches_reference(self):
        rng = Random(7)
        dims = set()
        for p in (3, 5, 7):
            for lam in (1, -1, 2, 3):
                if lam % p == 0:
                    continue
                for n in range(1, 5):
                    for r in range(1, 6):
                        d = rng.randrange(0, n + 1)
                        t = tuple_with_infinity(rng, p, n, r, lam, d)
                        got = _fixed_rows(t, lam)
                        want = reference_fixed_space(t, lam)
                        assert Subspace(got, r * n, p) == Subspace(want, r * n, p), (p, lam, n, r)
                        if lam % p != 1:
                            assert got.shape[0] == d
                            dims.add(min(d, 2))
        assert dims == {0, 1, 2}


def test_junk_space_is_not_echelon_formed_whole(monkeypatch):
    """The junk space extends the echelon blockwise kernels K by the fixed rows L.

    For the genus-4 hyperelliptic tuple over F_3 (r * n = 8 * 8 = 64) the
    only 64-wide elimination is of the residue of L, dim L = 7 rows, not of
    the 63 x 64 stack of K and L together.
    """
    t = hyperelliptic_system(4, 3).tuple
    shapes = []
    rref = ff._rref

    def recording(a, p):
        shapes.append(np.shape(a))
        return rref(a, p)

    monkeypatch.setattr(ff, "_rref", recording)
    out = middle_convolve(t, -1)
    monkeypatch.setattr(ff, "_rref", rref)
    wide = [rows for rows, cols in shapes if cols == len(t.punctures) * t.rank]
    assert wide and max(wide) <= 7
    assert out == reference_middle_convolve(t, -1)
