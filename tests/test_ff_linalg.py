"""Exact linear algebra over F_p: kernels, Jordan data, invariant forms."""

import functools
import itertools
import math
import operator
import re
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monodromy.ff_linalg as ff
from monodromy.errors import InvalidInput, NonSplitSpectrum
from monodromy.ff_linalg import (
    JordanData,
    Matrix,
    Subspace,
    _det,
    _echelon_reduce,
    _inv,
    _kernel_basis,
    _rank,
    _rref,
    _solve,
    invariant_forms,
    is_prime,
    jordan_type,
)
from ff_linalg_reference import det_numpy_loop, jordan_type_full_scan, kernel, primes_below, random_invertible

# cutoffs that send every elimination to one kernel, and the module's own
PYTHON_INTS, NUMPY = 10**18, 0
SMALL_ENTRIES = ff._SMALL_ENTRIES


@pytest.fixture(params=[PYTHON_INTS, NUMPY], ids=["python-ints", "numpy"])
def elimination_path(request, monkeypatch):
    """Run the test with every ``_rref`` on one kernel."""
    monkeypatch.setattr(ff, "_SMALL_ENTRIES", request.param)


def all_vectors(n, p):
    for entries in itertools.product(range(p), repeat=n):
        yield np.array(entries, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def prime_under_int64_bound(n):
    """The largest prime p with n (p-1)^2 < 2^63, and the next prime above it."""
    top = math.isqrt((2**63 - 1) // n) + 1
    below = next(q for q in range(top, 2, -1) if is_prime(q))
    above = next(q for q in range(top + 1, 2 * top) if is_prime(q))
    return below, above


def echelon_reduce_reference(vec, rows, pivots, p):
    """The per-pivot loop that ``_echelon_reduce`` replaced: one pivot at a time."""
    v = np.asarray(vec, dtype=np.int64) % p
    for row, piv in zip(rows, pivots):
        if v[piv]:
            v = (v - v[piv] * row) % p
    return v


def random_rref(rng, n, p):
    """A random reduced echelon basis of a subspace of F_p^n, and its pivots."""
    pivots = sorted(rng.sample(range(n), rng.randrange(n + 1)))
    rows = np.zeros((len(pivots), n), dtype=np.int64)
    for i, piv in enumerate(pivots):
        rows[i, piv] = 1
        for j in range(piv + 1, n):
            if j not in pivots:
                rows[i, j] = rng.randrange(p)
    return rows, pivots


def python_matmul(a, b, p):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def kernel_basis_reference(a, p):
    """The per-entry loop that filled ``_kernel_basis``'s free columns."""
    r, pivots = _rref(a, p)
    cols = a.shape[1]
    free = [j for j in range(cols) if j not in set(pivots)]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for i, pj in enumerate(pivots):
            basis[k, pj] = (-r[i, j]) % p
    basis, _ = _rref(basis, p)
    return basis


def on_each_kernel(monkeypatch, fn, *args):
    """``fn(*args)`` at the module's cutoff, on Python ints, then on numpy."""
    out = []
    for cutoff in (SMALL_ENTRIES, PYTHON_INTS, NUMPY):
        monkeypatch.setattr(ff, "_SMALL_ENTRIES", cutoff)
        try:
            out.append(fn(*args))
        except ValueError as exc:
            out.append(("ValueError", str(exc)))
    return out


def python_det(a, p):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total % p


class TestMatrix:
    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            Matrix([[1]], 4)
        with pytest.raises(ValueError):
            Matrix([[1]], 2)

    @pytest.mark.parametrize("p", [5.9, 5.0, "x", "5", None, [5]], ids=repr)
    def test_rejects_a_modulus_that_is_not_an_integer(self, p):
        # 5.9 used to be truncated to 5, and "x" raised int()'s bare ValueError
        for make in (lambda: Matrix([[7]], p), lambda: Subspace([[1]], 1, p)):
            with pytest.raises(InvalidInput, match="modulus must be an integer"):
                make()

    def test_numpy_integer_modulus_is_an_int(self):
        m = Matrix([[7]], np.int64(5))
        assert type(m.p) is int and m == Matrix([[2]], 5)

    def test_rejects_entries_that_are_not_int64_integers(self):
        # a float used to be truncated, and a 70-bit integer raised OverflowError
        for entries in ([[1.7]], [[2**70]], [[2**63]], np.array([[2.0]])):
            with pytest.raises(ValueError, match="integers"):
                Matrix(entries, 5)
        assert Matrix([[True, False], [-1, 2**62]], 5) == Matrix([[1, 0], [4, 4]], 5)
        assert Matrix(np.array([[7]], dtype=np.uint8), 5) == Matrix([[2]], 5)
        # empty entries of any dtype still give an empty matrix
        assert Matrix([[]], 5).array.shape == (1, 0)
        assert Matrix(np.zeros((0, 3)), 5).array.shape == (0, 3)

    def test_rejects_modulus_too_large_for_int64(self):
        # at 2^31 - 1 a 3x3 product needs 3 (p-1)^2 > 2^63
        with pytest.raises(ValueError, match="too large"):
            Matrix(np.ones((3, 3), dtype=np.int64), 2**31 - 1)
        Matrix([[5]], 2**31 - 1)
        for n in (1, 2, 3, 4):
            below, above = prime_under_int64_bound(n)
            Matrix(np.ones((n, n), dtype=np.int64), below)
            with pytest.raises(ValueError, match="too large"):
                Matrix(np.ones((n, n), dtype=np.int64), above)
            # a non-square matrix is bounded by its longer side
            with pytest.raises(ValueError, match="too large"):
                Matrix(np.ones((1, n + 1), dtype=np.int64), below)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_just_under_int64_bound(self, data):
        n = data.draw(st.integers(1, 4))
        p, _ = prime_under_int64_bound(n)
        square = st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n
        )
        a, b = data.draw(square), data.draw(square)
        ma, mb = Matrix(a, p), Matrix(b, p)
        assert (ma @ mb).array.tolist() == python_matmul(a, b, p)
        det = python_det(a, p)
        assert ma.det() == det
        if det:
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            assert python_matmul(a, ma.inv().array.tolist(), p) == identity
        else:
            with pytest.raises(ValueError):
                ma.inv()

    def test_entries_reduced(self):
        m = Matrix([[7, -1], [5, 3]], 5)
        assert m == Matrix([[2, 4], [0, 3]], 5)

    def test_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]], 7)
        b = Matrix([[0, 1], [1, 0]], 7)
        assert a @ b == Matrix([[2, 1], [4, 3]], 7)
        assert a + b == Matrix([[1, 3], [4, 4]], 7)
        assert (a - a).is_zero()
        assert (-b) == Matrix([[0, 6], [6, 0]], 7)
        assert 3 * b == Matrix([[0, 3], [3, 0]], 7)

    @pytest.mark.parametrize(
        "a,op,b",
        [
            # numpy used to broadcast these to [2 1; 1 2] and [0 1; 0 1]
            ((1, 1), "+", (2, 2)),
            ((1, 2), "-", (2, 1)),
            ((2, 2), "+", (2, 3)),
            ((2, 2), "@", (3, 3)),
            ((2, 3), "@", (2, 3)),
        ],
    )
    def test_rejects_operands_whose_shapes_do_not_fit(self, a, op, b):
        apply = {"+": operator.add, "-": operator.sub, "@": operator.matmul}[op]
        message = f"shapes {a[0]}x{a[1]} {op} {b[0]}x{b[1]} do not match"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            apply(Matrix(np.ones(a, dtype=np.int64), 5), Matrix(np.ones(b, dtype=np.int64), 5))

    def test_product_of_fitting_rectangles(self):
        wide, tall = Matrix([[1, 2, 3]], 5), Matrix([[1], [1], [1]], 5)
        assert wide @ tall == Matrix([[1]], 5)
        assert (tall @ wide).array.shape == (3, 3)

    def test_inverse_and_power(self):
        rng = Random(1)
        for p in (3, 5, 7):
            for n in (1, 2, 3):
                a = random_invertible(n, p, rng)
                assert (a @ a.inv()).is_identity()
                assert a ** 3 == a @ a @ a
                assert (a ** -2) == (a.inv() @ a.inv())
        assert Matrix.identity(3, 5) ** 0 == Matrix.identity(3, 5)

    def test_det_multiplicative(self):
        rng = Random(2)
        for _ in range(20):
            a = random_invertible(3, 7, rng)
            b = random_invertible(3, 7, rng)
            assert (a @ b).det() == (a.det() * b.det()) % 7

    def test_det_is_eliminated_once(self, monkeypatch):
        calls = []
        eliminate = ff._eliminate

        def counted(*args, **kwargs):
            calls.append(1)
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(ff, "_eliminate", counted)
        a = Matrix([[2, 1], [1, 1]], 7)
        assert a.det() == 1 and len(calls) == 1
        assert a.det() == 1 and len(calls) == 1
        # the kept determinant is not part of equality or the hash
        b = Matrix([[2, 1], [1, 1]], 7)
        assert a == b and hash(a) == hash(b)
        assert Matrix([[1, 1], [1, 1]], 3).det() == 0 and len(calls) == 2
        with pytest.raises(AttributeError, match="immutable"):
            a._det = 3

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 1], [1, 1]], 3).inv()
        # a wide matrix of full rank has right inverses, but no inverse
        with pytest.raises(ValueError, match="not square"):
            Matrix([[1, 0, 0], [0, 1, 0]], 3).inv()

    def test_hashable(self):
        a = Matrix([[1, 0], [0, 1]], 5)
        assert a in {Matrix.identity(2, 5)}


@pytest.mark.usefixtures("elimination_path")
class TestKernel:
    def test_zero_matrix(self):
        ker = kernel(Matrix.zeros(2, 2, 3))
        assert ker.dim == 2

    def test_identity(self):
        ker = kernel(Matrix.identity(2, 5))
        assert ker.dim == 0

    def test_rank_one_over_f3(self):
        # oracle: brute force over all 9 vectors of F_3^2
        m = Matrix([[1, 1], [1, 1]], 3)
        solutions = [v for v in all_vectors(2, 3) if not (m.array @ v % 3).any()]
        assert len(solutions) == 3  # a line
        ker = kernel(m)
        assert ker.dim == 1
        assert np.array_equal(ker.basis, np.array([[1, 2]]))
        for v in solutions:
            assert ker.contains(v)

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3)])
    def test_rank_nullity_exhaustive(self, p, n):
        for entries in itertools.product(range(p), repeat=n * n):
            m = Matrix(np.array(entries, dtype=np.int64).reshape(n, n), p)
            assert m.cols == m.rank() + kernel(m).dim

    def test_rank_nullity_random_rectangular(self):
        rng = Random(3)
        for _ in range(100):
            rows, cols, p = rng.randrange(1, 5), rng.randrange(1, 5), 5
            m = Matrix(
                [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p
            )
            ker = kernel(m)
            assert cols == m.rank() + ker.dim
            for row in ker.basis:
                assert not (m.array @ row % p).any()

    def test_kernel_basis_matches_per_entry_loop(self):
        rng = Random(8)
        for _ in range(150):
            p = rng.choice([3, 5, 7, 11])
            rows, cols = rng.randrange(0, 9), rng.randrange(1, 13)
            rank = rng.randrange(0, min(rows, cols) + 1)
            left = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(rows)])
            right = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rank)])
            a = (left.reshape(rows, rank) @ right.reshape(rank, cols)) % p
            assert np.array_equal(_kernel_basis(a, p), kernel_basis_reference(a, p))


class TestEliminationKernels:
    """The Python-int and numpy eliminations give the same arrays and values."""

    # both sides of the cutoff: 12x13 has 156 entries, 13x13 has 169
    SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (1, 6), (6, 1), (3, 7), (7, 3),
              (2, 2), (4, 4), (5, 5), (4, 8), (12, 13), (13, 13), (5, 40), (20, 20)]

    @staticmethod
    def _inputs(rng, shape, p):
        rows, cols = shape
        yield np.array([[rng.randrange(-2 * p, 2 * p) for _ in range(cols)] for _ in range(rows)],
                       dtype=np.int64).reshape(shape)
        # the chain's narrow storage: int8, negative entries included, also
        # at moduli above int8's range
        yield np.array([[rng.randrange(-128, 128) for _ in range(cols)] for _ in range(rows)],
                       dtype=np.int8).reshape(shape)
        if rows >= 2:  # the last row a combination of the first two
            a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
            c = rng.randrange(p)
            a[-1] = [(int(x) + c * int(y)) % p for x, y in zip(a[0], a[1])]
            yield a
        yield np.eye(rows, cols, dtype=np.int64)
        yield np.zeros(shape, dtype=np.int64)

    @pytest.mark.parametrize("p", [3, 5, 7, 131, 65537, 2**31 - 1])
    def test_rref_det_and_inv_agree(self, monkeypatch, p):
        rng = Random(p)
        dets = set()
        for shape in self.SHAPES:
            for a in self._inputs(rng, shape, p):
                default, ints, numpy = on_each_kernel(monkeypatch, _rref, a, p)
                assert ints[1] == numpy[1] == default[1]
                for r, _ in (default, ints):
                    assert r.dtype == np.int64 and r.shape == a.shape
                    assert np.array_equal(r, numpy[0])
                if shape[0] != shape[1]:
                    continue
                det = _det(a, p)
                assert det == det_numpy_loop(a, p) and type(det) is int
                if shape[0] <= 4:
                    assert det == python_det(a.astype(np.int64).tolist(), p)
                dets.add(det != 0)
                inv, *others = on_each_kernel(monkeypatch, _inv, a, p)
                if det:
                    for other in others:
                        assert np.array_equal(other, inv)
                else:
                    assert inv == ("ValueError", "matrix is singular")
                    assert others == [inv, inv]
        assert dets == {True, False}


@pytest.mark.usefixtures("elimination_path")
class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace([[1, 2], [0, 0]], 2, 5)
        b = Subspace([[2, 4]], 2, 5)
        assert a == b
        assert a.dim == 1

    def test_sum_and_containment(self):
        a = Subspace([[1, 0, 0]], 3, 5)
        b = Subspace([[0, 1, 0]], 3, 5)
        s = a.extend(b.basis)
        assert s.dim == 2
        assert s.contains([3, 4, 0])
        assert not s.contains([0, 0, 1])
        zero = Subspace(np.zeros((0, 3), dtype=np.int64), 3, 5)
        assert s.contains(a.basis) and s.contains(zero.basis)
        assert not a.contains(s.basis)

    def test_rejects_modulus_too_large_for_int64(self):
        below, above = prime_under_int64_bound(3)
        Subspace(np.ones((1, 3), dtype=np.int64), 3, below)
        with pytest.raises(ValueError, match="too large"):
            Subspace(np.ones((1, 3), dtype=np.int64), 3, above)
        rows = np.array([[1, 0, 2]], dtype=np.int64)
        Subspace._from_rref(rows, [0], 3, below)
        with pytest.raises(ValueError, match="too large"):
            Subspace._from_rref(rows, [0], 3, above)
        with pytest.raises(ValueError, match="odd prime"):
            Subspace._from_rref(rows, [0], 3, 9)

    @pytest.mark.parametrize("p", [3, 5, 7, 101])
    def test_extend_matches_echelon_form_of_the_stack(self, p):
        rng = Random(p)

        def check(space, extra):
            got = space.extend(extra)
            want = Subspace(np.concatenate([space.basis, extra]), space.ambient, p)
            assert np.array_equal(got.basis, want.basis)
            assert got.pivots == want.pivots and got == want
            assert got.basis.dtype == np.int64 and not got.basis.flags.writeable

        def random_rows(count, n):
            return np.array(
                [[rng.randrange(p) for _ in range(n)] for _ in range(count)], dtype=np.int64
            ).reshape(count, n)

        for n in (1, 2, 5, 9):
            full = Subspace(np.eye(n, dtype=np.int64), n, p)
            zero = Subspace(np.zeros((0, n), dtype=np.int64), n, p)
            for _ in range(12):
                rows, _ = random_rref(rng, n, p)
                space = Subspace(rows, n, p)
                inside = random_rows(rng.randrange(1, 4), space.dim) @ space.basis % p
                codim = n - space.dim
                for extra in (
                    random_rows(0, n),  # no rows
                    np.zeros((2, n), dtype=np.int64),  # zero rows
                    inside,  # rows already in the space
                    random_rows(rng.randrange(1, n + 1), n),
                    random_rows(codim + 2, n),  # more rows than the codimension
                    np.concatenate([inside, random_rows(1, n)]),
                ):
                    check(space, extra)
                    check(zero, extra)  # the empty space
                    check(full, extra)  # the full space
                    check(space, extra - p)  # rows not reduced mod p

    @pytest.mark.parametrize("small_p", [3, 5, 7, 11, None])
    def test_echelon_reduce_matches_per_pivot_loop(self, small_p):
        # None: the largest prime under the int64 bound for each n
        rng = Random(small_p or 0)
        for _ in range(200):
            n = rng.randrange(1, 5)
            p = small_p or prime_under_int64_bound(n)[0]
            rows, pivots = random_rref(rng, n, p)
            coeffs = [rng.randrange(p) for _ in rows]
            inside = [sum(c * int(r[j]) for c, r in zip(coeffs, rows)) % p for j in range(n)]
            stack = np.array(
                [inside] + [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(4))],
                dtype=np.int64,
            )
            expected = np.stack([echelon_reduce_reference(v, rows, pivots, p) for v in stack])
            assert not expected[0].any()
            assert np.array_equal(_echelon_reduce(stack, rows, pivots, p), expected)
            for v, want in zip(stack, expected):
                assert np.array_equal(_echelon_reduce(v, rows, pivots, p), want)


@pytest.mark.usefixtures("elimination_path")
class TestJordanType:
    def test_identity(self):
        jd = jordan_type(Matrix.identity(3, 5))
        assert jd.blocks == ((1, 1), (1, 1), (1, 1))

    def test_single_unipotent_block(self):
        jd = jordan_type(Matrix([[1, 1], [0, 1]], 5))
        assert jd.blocks == ((1, 2),)

    def test_square_root_of_minus_one(self):
        # char poly x^2 + 1 = (x - 2)(x + 2) mod 5, checked by substitution
        a = Matrix([[0, 4], [1, 0]], 5)
        assert (a @ a) == Matrix.scalar(-1, 2, 5)
        two = Matrix.scalar(2, 2, 5)
        three = Matrix.scalar(3, 2, 5)
        assert ((a - two) @ (a - three)).is_zero()
        assert jordan_type(a).blocks == ((2, 1), (3, 1))

    def test_non_split_raises(self):
        # x^2 + x + 1 is irreducible mod 5 (no root among 0..4)
        assert all(((x * x + x + 1) % 5) != 0 for x in range(5))
        companion = Matrix([[0, 4], [1, 4]], 5)
        with pytest.raises(NonSplitSpectrum):
            jordan_type(companion)

    def test_conjugation_invariance(self):
        rng = Random(4)
        for _ in range(30):
            p = rng.choice([3, 5, 7])
            n = rng.randrange(2, 5)
            a = _random_split(n, p, rng)
            g = random_invertible(n, p, rng)
            assert jordan_type(g.inv() @ a @ g) == jordan_type(a)

    def test_block_sizes_sum_to_dim(self):
        rng = Random(5)
        for _ in range(30):
            p = rng.choice([3, 5])
            n = rng.randrange(1, 5)
            a = _random_split(n, p, rng)
            assert jordan_type(a).dim == n

    def test_matches_full_scan(self):
        rng = Random(9)
        seen = {"split": 0, "non-split": 0}
        for _ in range(120):
            p = rng.choice([3, 5, 7, 11])
            n = rng.randrange(1, 6)
            a = _random_split(n, p, rng) if rng.random() < 0.5 else random_invertible(n, p, rng)
            try:
                want = jordan_type_full_scan(a)
            except NonSplitSpectrum as exc:
                seen["non-split"] += 1
                with pytest.raises(NonSplitSpectrum) as got:
                    jordan_type(a)
                assert str(got.value) == str(exc)
            else:
                seen["split"] += 1
                assert jordan_type(a) == want
        assert min(seen.values()) >= 20

    def test_large_prime_stops_once_blocks_fill_the_space(self, monkeypatch):
        # a scan of all p - 1 candidates would make a million rank computations
        rank = ff._rank
        calls = []

        def counted(b, p):
            calls.append(p)
            if len(calls) > 10:
                raise AssertionError("jordan_type kept scanning")
            return rank(b, p)

        monkeypatch.setattr(ff, "_rank", counted)
        p = 1000003
        assert jordan_type(Matrix([[1, 1], [0, 1]], p)).blocks == ((1, 2),)
        calls.clear()
        assert jordan_type(Matrix.diagonal([3, 2, 2], p)).blocks == ((2, 1), (2, 1), (3, 1))

    def test_reconstructs_power_ranks(self):
        rng = Random(6)
        for _ in range(20):
            p = rng.choice([3, 5])
            n = rng.randrange(2, 5)
            a = _random_split(n, p, rng)
            jd = jordan_type(a)
            for eig in range(1, p):
                for k in range(1, n + 1):
                    shifted = (a - Matrix.scalar(eig, n, p)) ** k
                    # a block (e, s) adds max(s - k, 0) to the rank of (A - e)^k
                    # when e is eig, and s otherwise
                    expected = sum(
                        max(size - k, 0) if e == eig else size for e, size in jd.blocks
                    )
                    assert shifted.rank() == expected


def _random_split(n, p, rng):
    """Random invertible matrix with spectrum inside F_p (conjugated Jordan form)."""
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
    return g.inv() @ Matrix(m, p) @ g


class TestJordanData:
    def test_fixed_dim_counts_eigenvalue_one_blocks(self):
        jd = JordanData([(1, 2), (1, 1), (4, 3)], 5)
        assert jd.dim == 6
        assert jd.fixed_dim == 2
        assert jd.codim_fixed == 4
        assert jd.nontrivial().blocks == ((1, 2), (4, 3))

    def test_tensor(self):
        jd = JordanData([(1, 2), (2, 1)], 5)
        assert jd.tensor(-1).blocks == ((3, 1), (4, 2))

    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(ValueError):
            JordanData([(0, 1)], 5)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: Matrix(np.zeros((2, 2, 2), dtype=np.int64), 5), "two-dimensional"),
            (lambda: JordanData([(2, 0)], 5), "block sizes must be >= 1"),
            (lambda: JordanData([(1, 2)], 5).tensor(10), "cannot tensor by 0"),
        ],
        ids=["3-D matrix", "block-size-0", "tensor-0"],
    )
    def test_typed_rejections(self, call, message):
        with pytest.raises(InvalidInput, match=message):
            call()


@pytest.mark.usefixtures("elimination_path")
class TestInvariantForms:
    def test_identity_fixes_everything(self):
        basis = invariant_forms([Matrix.identity(2, 5)])
        assert len(basis) == 4

    def test_minus_identity_fixes_everything(self):
        basis = invariant_forms([Matrix.scalar(-1, 2, 5)])
        assert len(basis) == 4

    def test_sl2_transvections_brute_force(self):
        # oracle: test all 625 candidate forms directly
        gens = [Matrix([[1, 1], [0, 1]], 5), Matrix([[1, 0], [1, 1]], 5)]
        expected = []
        for entries in itertools.product(range(5), repeat=4):
            m = Matrix(np.array(entries, dtype=np.int64).reshape(2, 2), 5)
            if all(g.T @ m @ g == m for g in gens):
                expected.append(m)
        assert len(expected) == 5  # a line of forms (including zero)
        basis = invariant_forms(gens)
        assert len(basis) == 1
        assert basis[0] == Matrix([[0, 1], [4, 0]], 5)
        assert basis[0] in expected

    def test_every_returned_form_is_exactly_invariant(self):
        rng = Random(7)
        for _ in range(20):
            p = rng.choice([3, 5])
            n = rng.randrange(1, 4)
            gens = [random_invertible(n, p, rng) for _ in range(rng.randrange(1, 3))]
            for m in invariant_forms(gens):
                for g in gens:
                    assert g.T @ m @ g == m

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_at_int64_bound(self, n):
        p, _ = prime_under_int64_bound(n)
        if n == 2:  # SL_2, which fixes one alternating form
            gens = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
        else:  # signed cyclic permutations, which fix the dot form alone
            gens = [[[p - 1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]
        # conjugating spreads the fixed form over entries of size p
        h = random_invertible(n, p, Random(n))
        gens = [h @ Matrix(g, p) @ h.inv() for g in gens]
        forms = invariant_forms(gens)
        assert len(forms) == 1
        m = forms[0].array.tolist()
        for g in gens:
            a = g.array.tolist()
            at = [list(col) for col in zip(*a)]
            assert python_matmul(python_matmul(at, m, p), a, p) == m


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_a_sieve():
    assert [n for n in range(-5, 10**4) if is_prime(n)] == primes_below(10**4)


@pytest.mark.parametrize("p", [3, 5, 131])
def test_solve_returns_a_solution_with_free_variables_zero(p):
    """None exactly when b leaves the column span of a; else a x = b, 0 off the pivots."""
    rng = Random(p)
    outcomes = set()
    for _ in range(300):
        rows, cols, k = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 4)
        # at 131, int8 entries as the chain stores them, negative ones included
        low, high, dtype = (-128, 128, np.int8) if p == 131 else (0, p, np.int64)
        a = np.array([[rng.randrange(low, high) for _ in range(cols)] for _ in range(rows)], dtype=dtype)
        wide = a.astype(np.int64)
        # half the systems are consistent, b = a y; the others mostly not
        b = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(rows + cols)])
        b = (wide @ b[rows:]) % p if rng.randrange(2) else b[:rows]
        x = _solve(a, b, p)
        outcomes.add(x is None)
        if _rank(np.concatenate([wide, b], axis=1), p) > _rank(a, p):
            assert x is None
            continue
        assert x.shape == (cols, k) and x.dtype == np.int64
        assert np.array_equal((wide @ x) % p, b)
        free = [j for j in range(cols) if j not in _rref(a, p)[1]]
        assert not x[free].any()
    assert outcomes == {True, False}


def test_primality_is_tested_once_per_modulus(monkeypatch):
    import monodromy.ff_linalg as ff

    calls = []
    monkeypatch.setattr(ff, "is_prime", lambda n: calls.append(n) or is_prime(n))
    ff._checked_modulus.cache_clear()
    q = 2**31 - 1
    for k in range(1, 335):
        Matrix([[k]], q)
        Subspace([[k]], 1, q)
        JordanData([(k, 1)], q)
    assert calls == [q]
    # a rejected modulus is not remembered: it is tested and rejected again
    for _ in range(2):
        with pytest.raises(ValueError, match="odd prime"):
            Matrix([[1]], 2**31 - 3)
    assert calls == [q, 2**31 - 3, 2**31 - 3]
