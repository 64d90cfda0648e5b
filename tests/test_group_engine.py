"""Group orders, irreducibility, element orders, derived containment."""

import itertools
import math
import subprocess
import sys
import threading
import tracemalloc
from random import Random

import numpy as np
import pytest

from monodromy.classical_groups import (
    OTHER,
    ElementClass,
    FormSpace,
    derived_containment,
    isometry_group_orders,
    classify_element,
    _derived_containment,
    _order_bound,
    _witness,
    _witness_orbit_is_full,
)
from monodromy.errors import InvalidInput, NotAnIsometry, ResourceLimit
from monodromy.families import hyperelliptic_system, twist_family_system
from monodromy.ff_linalg import Matrix, Subspace, _codes, invariant_forms
from monodromy.group_engine import (
    GeneratedGroup,
    IrreducibilityReport,
    _CodeIndex,
    _orbit,
    _orbit_reaches,
    _table_pays,
    element_order,
    group_order,
    is_irreducible,
    _multiplicative_order,
)
from closure_reference import naive_closure, reference_closure
from derived_reference import derived_subgroup_generators
from ff_linalg_reference import multiplicative_order_divisor_scan, random_invertible
import form_spaces
from form_spaces import anisotropic_vectors, random_isometry, reflection, siegel_shear, transvection
from irreducibility_reference import exhaustive_irreducibility
from schreier_sims_reference import ReferenceGroup
from walk_reference import SortedIndex, reference_orbit_reaches

SL2 = lambda p: [Matrix([[1, 1], [0, 1]], p), Matrix([[1, 0], [1, 1]], p)]


class TestGroupOrder:
    def test_trivial_group(self):
        assert group_order(GeneratedGroup([Matrix.identity(3, 5)])) == 1

    def test_sl2_f3(self):
        group = GeneratedGroup(SL2(3))
        assert group.order() == 24
        assert len(naive_closure(SL2(3))) == 24

    def test_minus_identity(self):
        assert group_order(GeneratedGroup([Matrix.scalar(-1, 4, 5)])) == 2

    @pytest.mark.parametrize(
        "gens,expected",
        [
            (SL2(3), 24),
            (SL2(5), 120),
            (SL2(7), 336),
        ],
    )
    def test_sl2_series(self, gens, expected):
        assert group_order(GeneratedGroup(gens)) == expected

    def test_agrees_with_naive_closure(self):
        rng = Random(0)
        checked = 0
        for trial in range(20):
            p = rng.choice([3, 5])
            n = rng.randrange(2, 4)
            gens = [random_invertible(n, p, rng) for _ in range(2)]
            try:
                closure = naive_closure(gens, limit=100_000)
            except ResourceLimit:
                continue  # the agreement contract covers orders <= 1e5
            checked += 1
            assert group_order(GeneratedGroup(gens)) == len(closure)
        assert checked >= 5

    def test_sp4_f3_order(self):
        space = FormSpace.symplectic(4, 3)
        gens = derived_subgroup_generators(space)
        group = GeneratedGroup(gens)
        assert group.order() == 51840
        assert group.order() == len(naive_closure(gens))

    def test_membership(self):
        group = GeneratedGroup(SL2(5))
        assert Matrix([[2, 0], [0, 3]], 5) in group  # det 1
        assert Matrix([[2, 0], [0, 1]], 5) not in group  # det 2

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            GeneratedGroup(SL2(7), limit=3)

    def test_deterministic_across_runs(self):
        a = GeneratedGroup(SL2(5)).order()
        b = GeneratedGroup(SL2(5)).order()
        assert a == b == 120


class TestNaiveClosure:
    """The frontier-batched closure against the matrix-at-a-time loop."""

    @pytest.mark.parametrize("entries", [None, 64])
    def test_matches_reference_closure(self, entries, monkeypatch):
        import closure_reference

        if entries is not None:  # a few frontier matrices per block
            monkeypatch.setattr(closure_reference, "_BLOCK_ENTRIES", entries)
        rng = Random(21)
        space = form_spaces.dot(3, 3)
        cases = [SL2(3), SL2(5), [Matrix.identity(3, 5)], [Matrix.scalar(-1, 4, 5)]]
        cases.append([reflection(space, r) for r in anisotropic_vectors(space, 12)])
        cases += [_random_generators(rng, p, n) for p, n in ((3, 2), (3, 3), (5, 2), (7, 2))]
        for p in (257, 65537):  # keys of two and four bytes per entry
            cases.append([Matrix([[0, p - 1], [1, 0]], p), Matrix.diagonal([2, 1], p)])
        for gens in cases:
            try:
                expected = reference_closure(gens, limit=20_000)
            except ResourceLimit:
                with pytest.raises(ResourceLimit):
                    naive_closure(gens, limit=20_000)
                continue
            assert naive_closure(gens, limit=20_000) == expected, gens
            assert naive_closure(gens, limit=len(expected)) == expected
            if len(expected) > 1:
                with pytest.raises(ResourceLimit):
                    naive_closure(gens, limit=len(expected) - 1)


class TestIrreducibility:
    def test_identity_only_reducible_with_line_witness(self):
        report = is_irreducible([Matrix.identity(2, 5)])
        assert not report.irreducible
        assert report.witness.dim == 1

    def test_line_orbits_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, which every CLI
        # process would pay for; the line orbits are labelled by their least
        # lines and counted with np.bincount, on irreducible inputs and on
        # one that leaves by its witness.  Nor does the CLI's start-up or its ``order`` on a generic GL(3,5)
        # tuple, which stops at the determinant bound, import it.
        code = (
            "import io, sys\n"
            "from monodromy.cli import main\n"
            "text = ('MODULUS 5 RANK 3 PUNCTURES 2\\nAT 0\\n1 2 0\\n0 1 3\\n1 0 1\\n'\n"
            "        'AT 1\\n2 0 1\\n1 1 0\\n0 3 2\\n')\n"
            "out = io.StringIO()\n"
            "assert main(['order'], stdin=io.StringIO(text), stdout=out) == 0\n"
            "assert out.getvalue() == 'ORDER: 1488000\\n'\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "from monodromy.families import twist_family_system\n"
            "from monodromy.group_engine import is_irreducible\n"
            "report = is_irreducible(twist_family_system([2], 7).generators)\n"
            "assert report.irreducible and report.method == 'exhaustive'\n"
            "report = is_irreducible(twist_family_system([2, 3], 5).generators)\n"
            "assert report.irreducible and report.method == 'exhaustive'\n"
            "from monodromy.ff_linalg import Matrix\n"
            "report = is_irreducible([Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]], 5)])\n"
            "assert not report.irreducible and report.witness.dim == 1\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_sl2_f3_irreducible_exhaustively(self):
        # independent oracle: check all 4 lines of F_3^2 by hand
        gens = SL2(3)
        lines = [np.array(v) for v in ((1, 0), (0, 1), (1, 1), (1, 2))]
        for v in lines:
            images = {tuple((g.array @ v) % 3) for g in gens}
            assert images != {tuple(v % 3)} or not all(
                _collinear(np.array(w), v, 3) for w in images
            )
        report = is_irreducible(gens)
        assert report.irreducible
        assert report.method == "exhaustive"

    def test_block_diagonal_reducible_coordinate_witness(self):
        a = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 5)
        b = Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 2]], 5)
        report = is_irreducible([a, b])
        assert not report.irreducible
        w = report.witness
        # invariance of the witness
        for g in (a, b):
            for row in w.basis:
                assert w.contains((g.array @ row) % 5)
        assert 0 < w.dim < 3

    def test_witness_is_invariant_in_general(self):
        rng = Random(1)
        reducible_found = 0
        for _ in range(40):
            p = rng.choice([3, 5])
            n = rng.randrange(2, 4)
            gens = [random_invertible(n, p, rng)]
            report = is_irreducible(gens)
            if report.irreducible:
                continue
            reducible_found += 1
            w = report.witness
            assert 0 < w.dim < n
            for g in gens:
                for row in w.basis:
                    assert w.contains((g.array @ row) % p)
        assert reducible_found > 0

    def test_refuses_a_group_without_a_drop_one_generator_above_the_cap(self):
        gens = form_spaces.without_drop_one()[1]
        with pytest.raises(ResourceLimit, match="F_3\\^8 has 3280 lines, above the cap of 3000"):
            is_irreducible(gens)

    def test_schur_check(self):
        # irreducible implies at most a line of invariant forms
        gens = SL2(5)
        assert is_irreducible(gens).irreducible
        assert len(invariant_forms(gens)) <= 1

    @pytest.mark.parametrize("c", [1, 2])
    def test_scalar_group_above_the_cap_is_reducible(self, c):
        # F_5^6 has 3906 lines, so the exhaustive branch does not run
        report = is_irreducible([Matrix.scalar(c, 6, 5)])
        line = Subspace(np.eye(6, dtype=np.int64)[:1], 6, 5)
        assert report == IrreducibilityReport(False, line, "scalar")

    def test_scalars_keep_their_other_reports(self):
        # within the cap the exhaustive walk finds the same first line
        report = is_irreducible([Matrix.scalar(2, 3, 5)])
        assert report.method == "exhaustive" and report.witness.dim == 1
        # a generator of drop one decides the group by two spins
        gens = [Matrix.scalar(2, 6, 5)] + list(hyperelliptic_system(3, 5).generators)
        assert is_irreducible(gens) == IrreducibilityReport(True, None, "drop-one")
        # a non-scalar group with no such generator is refused
        with pytest.raises(ResourceLimit, match="no generator g has rank"):
            is_irreducible([Matrix.scalar(2, 8, 3)] + form_spaces.without_drop_one()[1])


class TestGeneratorCheck:
    """``GeneratedGroup``, ``invariant_forms`` and ``is_irreducible`` check a generator list alike."""

    @pytest.mark.parametrize(
        "gens,message",
        [
            ([], "need at least one generator"),
            ([np.eye(2, dtype=np.int64)], "each a Matrix"),
            ([Matrix.identity(2, 5), Matrix.identity(3, 5)], "share size and modulus"),
            ([Matrix.identity(2, 5), Matrix.identity(2, 7)], "share size and modulus"),
            ([Matrix.identity(2, 5), Matrix([[1, 1], [1, 1]], 5)], "must be invertible"),
            ([Matrix([[1, 2, 3]], 5)], "not square"),
        ],
        ids=["empty", "array", "size", "modulus", "singular", "wide"],
    )
    def test_each_refuses_the_same_lists(self, gens, message):
        for check in (GeneratedGroup, invariant_forms, is_irreducible):
            with pytest.raises(InvalidInput, match=message):
                check(gens)

    def test_generators_may_be_any_iterable(self):
        gens = SL2(3)
        assert is_irreducible(iter(gens)) == is_irreducible(gens)
        assert GeneratedGroup(iter(gens)).gens == tuple(gens)


class TestGroupArguments:
    """The constructor checks ``limit``, ``contains_array`` its array and ``in`` its operand."""

    @pytest.mark.parametrize("limit", ["x", None, 2.5, -1], ids=repr)
    def test_limit_must_be_a_non_negative_integer(self, limit):
        # "x" and None used to raise a bare TypeError inside the chain build
        with pytest.raises(InvalidInput, match="limit must be an integer >= 0"):
            GeneratedGroup(SL2(5), limit=limit)

    def test_integer_limits_are_accepted(self):
        # a group of identities stores no orbit vector, so it fits any cap
        assert GeneratedGroup([Matrix.identity(3, 5)], limit=0).order() == 1
        assert GeneratedGroup(SL2(5), limit=np.int64(29)).order() == 120

    @pytest.mark.parametrize(
        "array,message",
        [
            (np.eye(2) * 1.7, "integers"),
            (np.eye(3, dtype=np.int64), "expected a 2x2 array"),
            (np.ones((2, 3), dtype=np.int64), "expected a 2x2 array"),
            (np.eye(2, dtype=np.int64)[None], "two-dimensional"),
        ],
        ids=["float", "3x3", "2x3", "3-D"],
    )
    def test_contains_array_refuses_other_arrays(self, array, message):
        # the float array used to be truncated to the identity, a member
        with pytest.raises(InvalidInput, match=message):
            GeneratedGroup(SL2(5)).contains_array(array)

    def test_contains_array_reads_integers_mod_p(self):
        group = GeneratedGroup(SL2(5))
        assert group.contains_array([[6, 0], [0, -4]])
        assert not group.contains_array(np.array([[2, 0], [0, 1]], dtype=np.int8))

    @pytest.mark.parametrize(
        "operand",
        [
            [[1, 0], [0, 1]],
            np.eye(2, dtype=np.int64),
            None,
            Matrix.identity(3, 5),
            Matrix.identity(2, 7),
            Matrix([[1, 0]], 5),
        ],
        ids=["list", "array", "None", "3x3", "mod 7", "1x2"],
    )
    def test_in_is_false_for_anything_but_a_matrix_of_the_group_shape(self, operand):
        assert operand not in GeneratedGroup(SL2(5))


def _collinear(a, b, p):
    return all((a[i] * b[j] - a[j] * b[i]) % p == 0 for i in range(len(a)) for j in range(len(a)))


def _assert_invariant_witness(report, gens, n, p):
    w = report.witness
    assert 0 < w.dim < n
    for g in gens:
        assert w.contains((w.basis @ g.array.T) % p)


def _isometry_generators(rng: Random, p: int, n: int) -> list[Matrix]:
    """Random isometries with a reflection, transvection or isotropic shear."""
    if n % 2 == 0 and rng.randrange(2):
        space = FormSpace.symplectic(n, p)
        v = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        v[rng.randrange(n)] = 1
        gens = [transvection(space, v, rng.randrange(1, p))]
    else:
        space = form_spaces.hyperbolic(n, p) if n % 2 == 0 else form_spaces.dot(n, p)
        pool = anisotropic_vectors(space, 4 * n)
        gens = [reflection(space, pool[rng.randrange(len(pool))])]
    if n >= 4 and n % 2 == 0 and rng.randrange(2):
        e = np.eye(n, dtype=np.int64)
        gens.append(siegel_shear(space, e[0], e[1]))
    return gens + [random_isometry(space, rng) for _ in range(rng.randrange(0, 3))]


def _block_triangular_generators(rng: Random, p: int, n: int) -> list[Matrix]:
    """Generators fixing a random subspace: block triangular, then conjugated."""
    k = rng.randrange(1, n)
    conj = random_invertible(n, p, rng)
    gens = []
    for _ in range(rng.randrange(1, 3)):
        a = random_invertible(n, p, rng).array.copy()
        a[k:, :k] = 0
        m = Matrix(a, p)
        if m.det() == 0:
            m = Matrix.identity(n, p)
        gens.append(conj @ m @ conj.inv())
    return gens


def _line_orbit_sizes(gens: list[Matrix], n: int, p: int) -> list[int]:
    """Sizes of the G-orbits on the lines of F_p^n by breadth-first search over tuples."""

    def normalized(v):
        lead = next(x for x in v if x % p)
        scale = pow(int(lead), -1, p)
        return tuple(int(x * scale % p) for x in v)

    arrays = [g.array for g in gens]
    unseen = {normalized(v) for v in np.ndindex(*(p,) * n) if any(v)}
    sizes = []
    while unseen:
        frontier = [unseen.pop()]
        sizes.append(1)
        while frontier:
            v = np.array(frontier.pop())
            for g in arrays:
                image = normalized((g @ v) % p)
                if image in unseen:
                    unseen.remove(image)
                    frontier.append(image)
                    sizes[-1] += 1
    return sizes


def _singer_cycle(n: int, p: int) -> Matrix:
    """The companion matrix of the first primitive polynomial of degree n over F_p.

    Its order is p^n - 1, so it permutes the nonzero vectors of F_p^n in
    one cycle, and the lines in one orbit.
    """
    order = p**n - 1
    primes = [q for q in range(2, order + 1) if order % q == 0 and all(q % d for d in range(2, q))]
    for tail in itertools.product(range(p), repeat=n):
        if not tail[0]:
            continue
        c = np.zeros((n, n), dtype=np.int64)
        c[1:, :-1] = np.eye(n - 1, dtype=np.int64)
        c[:, -1] = [-x for x in tail]
        m = Matrix(c, p)
        if (m**order).is_identity() and not any((m ** (order // q)).is_identity() for q in primes):
            return m
    raise AssertionError(f"no primitive polynomial of degree {n} over F_{p}")


class TestIrreducibilityOracle:
    """Spinning one line per G-orbit against spinning every line."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_spinning_every_line(self, p):
        rng = Random(p)
        kinds = {True: 0, False: 0}
        for n in range(1, 6):
            if (p**n - 1) // (p - 1) > 3000:
                continue
            builders = [
                lambda: [random_invertible(n, p, rng) for _ in range(rng.randrange(1, 3))],
                lambda: [Matrix.identity(n, p)],
                lambda: _isometry_generators(rng, p, n),
                lambda: _isometry_generators(rng, p, n),
            ]
            if n > 1:
                builders.append(lambda: _block_triangular_generators(rng, p, n))
            for build in builders:
                gens = build()
                report = is_irreducible(gens)
                expected = exhaustive_irreducibility(gens)
                assert report == expected, (p, n, gens)
                kinds[report.irreducible] += 1
        assert kinds[True] and kinds[False]

    def test_matches_at_a_large_prime(self):
        # 2000 lines of F_1999^2, each carrying 1998 nonzero vectors
        p = 1999
        rng = Random(p)
        cases = [SL2(p), _block_triangular_generators(rng, p, 2)]
        cases += [[random_invertible(2, p, rng)] for _ in range(4)]
        verdicts = set()
        for gens in cases:
            report = is_irreducible(gens)
            assert report == exhaustive_irreducibility(gens), gens
            verdicts.add(report.irreducible)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "system",
        [
            lambda: twist_family_system([2, 3], 5),
            lambda: twist_family_system([2], 7),
            lambda: twist_family_system([2, 3], 7),
            lambda: hyperelliptic_system(3, 3),
            lambda: hyperelliptic_system(2, 5),
        ],
    )
    def test_matches_on_families(self, system):
        gens = system().generators
        report = is_irreducible(gens)
        assert report == exhaustive_irreducibility(gens)
        assert report.irreducible and report.method == "exhaustive"

    @pytest.mark.parametrize(
        "build,n,p",
        [
            (lambda: twist_family_system([2], 7).generators, 4, 7),
            (lambda: twist_family_system([2, 3], 5).generators, 5, 5),
            # order 10 in GL(4,3), outside F_9: irreducible, 8 orbits of 5 lines
            (lambda: [_singer_cycle(4, 3) ** 8], 4, 3),
            (lambda: hyperelliptic_system(2, 3).generators, 4, 3),
        ],
        ids=["O(4,7)", "O(5,5)", "Singer^8 in GL(4,3)", "Sp(4,3)"],
    )
    def test_spans_each_orbit_that_fits_in_a_hyperplane(self, monkeypatch, build, n, p):
        # an orbit of more lines than a hyperplane holds spans V unspanned
        import monodromy.group_engine as engine

        gens = build()
        spans = []

        def counted(*args):
            spans.append(1)
            return Subspace(*args)

        monkeypatch.setattr(engine, "_spin", None)
        monkeypatch.setattr(engine, "Subspace", counted)
        report = is_irreducible(gens)
        assert report == IrreducibilityReport(True, None, "exhaustive")
        in_hyperplane = (p ** (n - 1) - 1) // (p - 1)
        sizes = _line_orbit_sizes(gens, n, p)
        assert len(spans) == sum(size <= in_hyperplane for size in sizes)

    @pytest.mark.parametrize("n,p", [(3, 5), (4, 3), (5, 3)])
    def test_hyperplane_orbit_of_exactly_the_bound(self, n, p):
        # a Singer cycle on H = span(e_1 .. e_(n-1)) moves the (p^(n-1) - 1) / (p - 1)
        # lines of H in one orbit; a shear e_n -> e_n + e_1 ties the other
        # lines to H, so H is the only invariant subspace, and it is missed
        # unless an orbit of exactly that many lines is spanned
        h = np.eye(n, dtype=np.int64)
        h[: n - 1, : n - 1] = _singer_cycle(n - 1, p).array
        shear = np.eye(n, dtype=np.int64)
        shear[0, n - 1] = 1
        gens = [Matrix(h, p), Matrix(shear, p)]
        sizes = _line_orbit_sizes(gens, n, p)
        assert (p ** (n - 1) - 1) // (p - 1) in sizes
        report = is_irreducible(gens)
        assert report == exhaustive_irreducibility(gens)
        assert report.witness == Subspace(np.eye(n, dtype=np.int64)[: n - 1], n, p)

    @pytest.mark.parametrize("n,p", [(5, 3), (4, 5), (3, 13), (7, 3)])
    def test_singer_cycle_is_one_orbit(self, n, p):
        gens = [_singer_cycle(n, p)]
        assert _line_orbit_sizes(gens, n, p) == [(p**n - 1) // (p - 1)]
        report = is_irreducible(gens)
        assert report == exhaustive_irreducibility(gens)
        assert report == IrreducibilityReport(True, None, "exhaustive")

    def test_drop_one_agrees_with_orbits_above_the_cap(self, monkeypatch):
        # F_5^6 has 3906 lines: two spins by default, the orbit path at 4000
        import monodromy.group_engine as engine

        n, p = 6, 5
        rng = Random(6)
        cases = [hyperelliptic_system(3, p).generators]
        cases += [_isometry_generators(rng, p, n) for _ in range(3)]
        cases += [_drop_one_generators(rng, p, n, kind) for kind in DROP_ONE_KINDS for _ in range(2)]
        verdicts = set()
        for gens in cases:
            spun = is_irreducible(gens)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_EXHAUSTIVE_CAP", 4000)
                exact = is_irreducible(gens)
            assert spun.method == "drop-one" and exact.method == "exhaustive"
            assert spun.irreducible == exact.irreducible, gens
            for report in (spun, exact):
                if not report.irreducible:
                    _assert_invariant_witness(report, gens, n, p)
            verdicts.add(exact.irreducible)
        assert verdicts == {True, False}


DROP_ONE_KINDS = ("free", "w in U", "U in ker")


def _drop_one_generators(rng: Random, p: int, n: int, kind: str, transpose: bool = False) -> list[Matrix]:
    """Generators, the first g = 1 + w v^T of drop one, conjugated by a random matrix.

    "free" adds two random invertible matrices.  "w in U" and "U in ker"
    add two random matrices that fix U = span(e_1 .. e_k), so that U is
    most often the only proper invariant subspace, and put w in U, or make
    v vanish on U, so that U lies in ker(g - 1).  ``transpose`` transposes
    every generator, which swaps the roles of w and v.
    """
    k = rng.randrange(1, n)
    while True:
        w, v = (np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64) for _ in range(2))
        if kind == "w in U":
            w[k:] = 0
        if kind == "U in ker":
            v[:k] = 0
        if w.any() and v.any() and (1 + v @ w) % p:  # det g = 1 + v.w
            break
    gens = [Matrix(np.eye(n, dtype=np.int64) + np.outer(w, v), p)]
    while len(gens) < 3:
        a = random_invertible(n, p, rng).array.copy()
        if kind != "free":
            a[k:, :k] = 0
        if Matrix(a, p).det():
            gens.append(Matrix(a, p))
    conj = random_invertible(n, p, rng)
    gens = [conj @ g @ conj.inv() for g in gens]
    return [g.T for g in gens] if transpose else gens


def _assert_drop_one_matches(gens: list[Matrix], n: int, p: int) -> str:
    """Check two spins against spinning every line; name the step that decided.

    The first spin starts at a nonzero column w of g - 1 for the first g of
    drop one, so its witness holds w.  The transposed spin runs only when
    the spin of w is V, so then no proper invariant subspace holds w.
    """
    report = is_irreducible(gens)
    assert report.method == "drop-one"
    assert report.irreducible == exhaustive_irreducibility(gens).irreducible, gens
    if report.irreducible:
        return "irreducible"
    _assert_invariant_witness(report, gens, n, p)
    theta = next(t for t in (g - Matrix.identity(n, p) for g in gens) if t.rank() == 1).array
    w = theta.T[theta.T.any(axis=1)][0]
    return "first spin" if report.witness.contains(w) else "transposed spin"


class TestDropOne:
    """Two spins from a generator of drop one against spinning every line."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_the_reference_below_the_cap(self, monkeypatch, p):
        import monodromy.group_engine as engine

        monkeypatch.setattr(engine, "_EXHAUSTIVE_CAP", 0)
        rng = Random(100 + p)
        steps = set()
        for n in range(2, 5):
            for kind in DROP_ONE_KINDS:
                for transpose in (False, True):
                    for _ in range(3):
                        steps.add(_assert_drop_one_matches(_drop_one_generators(rng, p, n, kind, transpose), n, p))
        assert steps == {"irreducible", "first spin", "transposed spin"}

    @pytest.mark.parametrize("n,p", [(6, 5), (8, 3)])
    def test_matches_the_reference_above_the_cap(self, n, p):
        # F_5^6 has 3906 lines and F_3^8 has 3280, above the cap of 3000
        rng = Random(n * p)
        steps = set()
        for kind in DROP_ONE_KINDS:
            for transpose in (False, True):
                steps.add(_assert_drop_one_matches(_drop_one_generators(rng, p, n, kind, transpose), n, p))
        assert steps == {"irreducible", "first spin", "transposed spin"}


class TestElementOrder:
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 73, 101, 257])
    def test_multiplicative_order_matches_the_divisor_scan(self, p):
        for a in range(1, p):
            assert _multiplicative_order(a, p) == multiplicative_order_divisor_scan(a, p)
        with pytest.raises(ValueError):
            _multiplicative_order(p, p)

    def test_identity(self):
        assert element_order(Matrix.identity(3, 5)) == 1

    def test_singular_matrix_is_refused(self):
        # the check lives in jordan_type, which element_order calls first
        with pytest.raises(ValueError, match="matrix is singular"):
            element_order(Matrix([[1, 2], [2, 4]], 5))

    def test_unipotent_in_char_5(self):
        assert element_order(Matrix([[1, 1], [0, 1]], 5)) == 5

    def test_fourth_root(self):
        # direct powering oracle
        a = Matrix([[0, 4], [1, 0]], 5)
        powers = [a]
        while not powers[-1].is_identity():
            powers.append(powers[-1] @ a)
        assert len(powers) == 4
        assert element_order(a) == 4

    def test_nonsplit_spectrum_falls_back_to_powering(self):
        a = Matrix([[0, 4], [1, 4]], 5)  # irreducible char poly
        k = element_order(a)
        assert (a ** k).is_identity()
        assert k > 1

    def test_order_overflow(self, monkeypatch):
        import monodromy.group_engine as engine
        from monodromy.errors import OrderOverflow

        monkeypatch.setattr(engine, "_ORDER_CAP", 2)
        a = Matrix([[0, 4], [1, 4]], 5)  # non-split, order 3
        with pytest.raises(OrderOverflow):
            element_order(a)

    def test_divides_group_order_and_is_minimal(self):
        rng = Random(3)
        for _ in range(20):
            p = rng.choice([3, 5])
            a = random_invertible(rng.randrange(2, 4), p, rng)
            k = element_order(a)
            assert (a ** k).is_identity()
            for d in range(1, k):
                if k % d == 0 and d < k:
                    assert not (a ** d).is_identity() or d == k
            assert group_order(GeneratedGroup([a])) == k


class TestContainsDerived:
    def test_full_transvection_set_sp2_f3(self):
        space = FormSpace.symplectic(2, 3)
        gens = []
        for v in ([1, 0], [0, 1], [1, 1], [1, 2]):
            gens.append(transvection(space, np.array(v)))
        assert GeneratedGroup(gens).order() == 24  # brute-force confirmed |Sp_2(F_3)|
        assert derived_containment(gens, space)[0]

    def test_single_transvection_sp2_f5(self):
        space = FormSpace.symplectic(2, 5)
        gens = [transvection(space, np.array([1, 0]))]
        assert GeneratedGroup(gens).order() == 5
        assert not derived_containment(gens, space)[0]

    def test_derived_generators_self_containment(self):
        space = form_spaces.dot(3, 5)
        gens = derived_subgroup_generators(space)
        assert derived_containment(gens, space)[0]

    def test_monotone_in_generators(self):
        space = FormSpace.symplectic(2, 5)
        rng = Random(4)
        base = [transvection(space, np.array([1, 0])), transvection(space, np.array([0, 1]))]
        if derived_containment(base, space)[0]:
            for _ in range(5):
                extra = base + [random_isometry(space, rng)]
                assert derived_containment(extra, space)[0]

    @pytest.mark.parametrize(
        "space",
        [
            FormSpace.symplectic(2, 3),
            FormSpace.symplectic(2, 5),
            FormSpace.symplectic(4, 3),
            form_spaces.dot(3, 5),
            form_spaces.hyperbolic(4, 5),
        ],
    )
    def test_derived_generators_have_derived_order(self, space):
        gens = derived_subgroup_generators(space)
        assert GeneratedGroup(gens).order() == isometry_group_orders(space).derived_order

    def test_omega_inside_full_reflection_group(self):
        space = form_spaces.dot(3, 5)
        refls = [reflection(space, r) for r in anisotropic_vectors(space, 30)]
        assert derived_containment(refls, space)[0]

    @pytest.mark.parametrize("gram", [[[1]], [[2]]])
    def test_one_dimensional_orthogonal_space(self, gram):
        # Omega(1) is trivial, so every subgroup of O(1) = <-1> contains it
        space = FormSpace.from_gram(Matrix(gram, 5))
        assert derived_containment([Matrix.scalar(-1, 1, 5)], space)[0]
        assert derived_containment([Matrix.identity(1, 5)], space)[0]

    def test_non_isometry_raises(self):
        space = form_spaces.dot(2, 5)
        shear = Matrix([[1, 1], [0, 1]], 5)
        with pytest.raises(NotAnIsometry):
            derived_containment([reflection(space, np.array([1, 0])), shear], space)
        with pytest.raises(NotAnIsometry):
            derived_containment([Matrix.identity(3, 5)], space)

    def test_order_identity_matches_derived_generators(self):
        """The order identity against membership of the explicit derived generators.

        Positives add 0-2 random isometries to the derived generators, so
        together they reach every image of (det, theta); negatives are plain
        random isometry groups, decided by sifting in the reference engine.
        """
        rng = Random(12)
        classes = set()
        for space in (
            FormSpace.symplectic(2, 3),
            FormSpace.symplectic(4, 3),
            FormSpace.symplectic(2, 5),
            form_spaces.dot(2, 5),
            form_spaces.hyperbolic(2, 5),
            FormSpace.from_gram(Matrix.diagonal([1, 2], 5)),  # O2-(5)
            form_spaces.dot(3, 3),
            form_spaces.dot(3, 7),
            form_spaces.dot(4, 5),
            form_spaces.hyperbolic(4, 5),
            FormSpace.from_gram(Matrix.diagonal([1, 1, 1, 2], 5)),  # O4-(5)
            form_spaces.hyperbolic(4, 3),
            form_spaces.dot(5, 5),
        ):
            dgens = derived_subgroup_generators(space)

            def isometries(count):
                return [
                    random_isometry(space, rng, length=rng.randrange(1, 7))
                    for _ in range(count)
                ]

            # the oracle's generators lie in every positive group by construction
            for gens in [dgens + isometries(k) for k in (0, 1, 1, 2, 2)]:
                derived, cls = derived_containment(gens, space)
                assert derived, space
                if space.parity == "symmetric":
                    classes.add(cls)
            answers = []
            for _ in range(4):
                gens = isometries(rng.randrange(1, 3))
                reference = ReferenceGroup(gens)
                expected = all(reference.contains_array(d.array) for d in dgens)
                assert derived_containment(gens, space)[0] == expected, space
                answers.append(expected)
            assert not all(answers), space
        assert classes == {"Omega", "SO", "KerSpinor", "KerSpinorDet", "FullO"}


def _random_generators(rng: Random, p: int, n: int) -> list[Matrix]:
    """Generators of assorted shapes: general, classical, cyclic, reducible."""
    kind = rng.randrange(4)
    if kind == 0:
        return [random_invertible(n, p, rng) for _ in range(2)]
    if kind == 1:
        space = FormSpace.symplectic(n, p) if n % 2 == 0 else form_spaces.dot(n, p)
        return [random_isometry(space, rng) for _ in range(rng.randrange(1, 4))]
    if kind == 2:
        return [random_invertible(n, p, rng)]
    gens = []
    for _ in range(2):
        a = random_invertible(n, p, rng).array.copy()
        a[1:, 0] = 0  # fixes the line of e_0
        if a[0, 0] == 0:
            a[0, 0] = 1
        gens.append(Matrix(a, p) if Matrix(a, p).det() else Matrix.identity(n, p))
    return gens


class TestEngineOracle:
    """The batched engine against the vector-at-a-time one and the closure."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_orders_and_membership_match_reference(self, p):
        rng = Random(100 + p)
        for trial in range(20):
            n = rng.randrange(2, 5) if p < 7 else rng.randrange(2, 4 if trial % 3 else 5)
            gens = _random_generators(rng, p, n)
            group = GeneratedGroup(gens)
            reference = ReferenceGroup(gens)
            assert group.order() == reference.order(), (p, n, trial)
            word = Matrix.identity(n, p)
            for _ in range(6):
                word = word @ gens[rng.randrange(len(gens))]
                other = random_invertible(n, p, rng)
                for cand in (word, other, word @ other):
                    assert group.contains_array(cand.array) == reference.contains_array(
                        cand.array
                    )
                assert group.contains_array(word.array)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_orders_and_membership_match_closure(self, p):
        rng = Random(200 + p)
        checked = 0
        for trial in range(15):
            n = rng.randrange(2, 5)
            gens = _random_generators(rng, p, n)
            try:
                closure = naive_closure(gens, limit=20_000)
            except ResourceLimit:
                continue
            checked += 1
            group = GeneratedGroup(gens)
            assert group.order() == len(closure), (p, n, trial)
            for _ in range(5):
                cand = random_invertible(n, p, rng)
                assert group.contains_array(cand.array) == (cand in closure)
        assert checked >= 4

    def test_sorted_code_index_matches_dense(self, monkeypatch):
        import monodromy.group_engine as engine

        rng = Random(7)
        cases = [(p, rng.randrange(2, 5)) for p in (3, 5, 7) for _ in range(3)]
        groups = [_random_generators(rng, p, min(n, 3)) for p, n in cases]
        dense = [GeneratedGroup(gens).order() for gens in groups]
        monkeypatch.setattr(engine, "_DENSE_CODES", 0)
        assert [GeneratedGroup(gens).order() for gens in groups] == dense
        assert [ReferenceGroup(gens).order() for gens in groups] == dense
        assert GeneratedGroup(SL2(7)).order() == 336
        assert Matrix([[2, 0], [0, 4]], 7) in GeneratedGroup(SL2(7))
        assert Matrix([[2, 0], [0, 1]], 7) not in GeneratedGroup(SL2(7))

    def test_derived_containment_batch_matches_one_by_one(self):
        rng = Random(11)
        for space in (FormSpace.symplectic(4, 3), form_spaces.dot(3, 5), form_spaces.hyperbolic(4, 5)):
            dgens = derived_subgroup_generators(space)
            for length in (1, 2, 6):
                gens = [random_isometry(space, rng, length=length) for _ in range(2)]
                reference = ReferenceGroup(gens)
                expected = all(reference.contains_array(d.array) for d in dgens)
                assert derived_containment(gens, space)[0] == expected


def _diagonal_and_swap(p: int, k: int) -> list[Matrix]:
    """diag(a, 1) with a of order k mod p, and the swap: the wreath product C_k wr C_2.

    3 is a primitive root modulo the Fermat primes 17, 257 and 65537.
    """
    a = pow(3, (p - 1) // k, p)
    return [Matrix([[a, 0], [0, 1]], p), Matrix([[0, 1], [1, 0]], p)]


class TestStorageDtype:
    """Chains store points and transversals in the narrowest dtype that holds p - 1."""

    @pytest.mark.parametrize(
        "name,gens,dtype,order",
        [
            ("SL2(127)", lambda: hyperelliptic_system(1, 127).generators, np.int8, 127 * (127**2 - 1)),
            ("SL2(131)", lambda: hyperelliptic_system(1, 131).generators, np.int16, 131 * (131**2 - 1)),
            # 65537^2 > 2^20 vectors: the sorted code index
            ("C8 wr C2 mod 65537", lambda: _diagonal_and_swap(65537, 8), np.int32, 8**2 * 2),
            ("-1 mod 2^31 + 11", lambda: [Matrix([[2**31 + 10]], 2**31 + 11)], np.int64, 2),
        ],
    )
    def test_dtype_order_and_membership_match_reference(self, name, gens, dtype, order):
        gens = list(gens())
        group = GeneratedGroup(gens)
        assert group.order() == order, name
        for lvl in group.levels:
            assert lvl.trans.dtype == lvl.trans_inv.dtype == dtype, name
        reference = ReferenceGroup(gens)
        assert reference.order() == order, name
        cands = _membership_candidates(gens, Random(gens[0].p))
        answers = [group.contains_array(c.array) for c in cands]
        assert answers == [reference.contains_array(c.array) for c in cands], name
        assert answers[:10] == [True] * 10, name

    @pytest.mark.parametrize(
        "name,make",
        [("Sp(6,5)", lambda: hyperelliptic_system(3, 5)), ("O(8,5)", lambda: twist_family_system([2, 3, 4], 5))],
    )
    def test_each_orbit_vector_stores_2n2_entries(self, name, make):
        # a level is based at e_col, so its orbit vectors are column col of
        # its transversal: the transversal and its inverse are all it keeps
        # per vector (the generators and the code index aside)
        system = make()
        gens = list(system.generators)
        chain = GeneratedGroup(gens, bound=_order_bound(system.space, gens)[0])
        assert chain.stopped, name
        n = chain.dim
        for lvl in chain.levels:
            arrays = [getattr(lvl, slot) for slot in lvl.__slots__ if slot not in ("gens", "gens_inv")]
            entries = sum(a.size for a in arrays if isinstance(a, np.ndarray))
            assert entries == 2 * n * n * len(lvl.trans), name

    def test_order_peak_memory(self):
        # Sp(6,5) stores 19527 orbit vectors over six levels, 2 * 36 bytes
        # each in int8 (1.4 MB), next to a 62 kB code table per level; int64
        # storage would take 11 MB
        gens = hyperelliptic_system(3, 5).generators
        tracemalloc.start()
        try:
            group = GeneratedGroup(gens)
            assert group.order() == 457002000000000
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(lvl.trans) for lvl in group.levels) == 19527
        assert peak < 4_000_000


# the groups these tuples generate reach the order bound of their pairing
_BOUNDED_SYSTEMS = {
    "Sp(6,3)": lambda: hyperelliptic_system(3, 3),
    "Sp(4,5)": lambda: hyperelliptic_system(2, 5),
    "O(5,5)": lambda: twist_family_system([2, 3], 5),
    "O(4,7)": lambda: twist_family_system([2], 7),
}


def _levels(chain) -> list[tuple[int, int]]:
    return [(lvl.col, len(lvl.trans)) for lvl in chain.levels]


def _membership_candidates(gens: list[Matrix], rng: Random) -> list[Matrix]:
    """Ten random words in ``gens``, then twenty random matrices of GL(n, p)."""
    n, p = gens[0].n, gens[0].p
    words, others = [], []
    for _ in range(10):
        word = Matrix.identity(n, p)
        for _ in range(rng.randrange(1, 12)):
            word = word @ gens[rng.randrange(len(gens))]
        words.append(word)
        others.append(random_invertible(n, p, rng))
    return words + others + [w @ o for w, o in zip(words, others)]


def _record_groups(monkeypatch) -> list:
    """Every ``GeneratedGroup`` that ``classical_groups`` builds from now on, in a list."""
    import monodromy.classical_groups as classical

    built = []

    class Recorded(GeneratedGroup):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(classical, "GeneratedGroup", Recorded)
    return built


class TestKnownOrderStop:
    """Chains stopped at a known order bound against the reference engine."""

    @pytest.mark.parametrize("name", sorted(_BOUNDED_SYSTEMS))
    def test_stopped_chain_matches_reference(self, name):
        system = _BOUNDED_SYSTEMS[name]()
        gens = list(system.generators)
        bound, _ = _order_bound(system.space, gens)
        group = GeneratedGroup(gens, bound=bound)
        assert group.stopped
        # the same top-down build, given a bound it can never reach
        full = GeneratedGroup(gens, bound=2 * bound)
        assert not full.stopped
        # the same base, stored orbits and strong generators as that build
        assert _levels(group) == _levels(full)
        for a, b in zip(group.levels, full.levels):
            assert np.array_equal(a.gens, b.gens)
        reference = ReferenceGroup(gens)
        assert group.order() == reference.order() == bound
        cands = _membership_candidates(gens, Random(len(gens) * 100 + gens[0].p))
        answers = [group.contains_array(c.array) for c in cands]
        assert answers == [reference.contains_array(c.array) for c in cands]
        assert answers == [True] * 10 + [False] * 20

    def test_no_stop_below_the_bound(self):
        # proper subgroups and reducible groups never reach the bound
        sp = hyperelliptic_system(2, 5)
        o = twist_family_system([2], 7)
        e = np.eye(4, dtype=np.int64)
        sym, dot = FormSpace.symplectic(4, 5), form_spaces.dot(4, 5)
        cases = [
            (sp.space, list(sp.generators[:2])),
            (sp.space, list(sp.generators[1:4])),
            (o.space, list(o.generators[:2])),
            (sym, [transvection(sym, e[0]), transvection(sym, e[1])]),
            (dot, [reflection(dot, e[k]) for k in range(3)]),
        ]
        reducible = 0
        for space, gens in cases:
            bound, _ = _order_bound(space, gens)
            group = GeneratedGroup(gens, bound=bound)
            reference = ReferenceGroup(gens)
            assert not group.stopped
            assert group.order() == reference.order() < bound
            assert _levels(group) == _levels(GeneratedGroup(gens))
            cands = _membership_candidates(gens, Random(bound % 101))
            answers = [group.contains_array(c.array) for c in cands]
            assert answers == [reference.contains_array(c.array) for c in cands]
            reducible += not is_irreducible(gens).irreducible
        assert reducible >= 2

    def test_one_build_order_with_or_without_a_bound(self):
        # every build completes its levels top-down; a bound only stops it
        system = _BOUNDED_SYSTEMS["O(5,5)"]()
        bound, _ = _order_bound(system.space, list(system.generators))
        bounded = GeneratedGroup(system.generators, bound=bound)
        assert _levels(bounded) == [(0, 650), (1, 120), (2, 12), (4, 10)]
        unbounded = GeneratedGroup(system.generators)
        assert _levels(unbounded) == _levels(bounded)

    def test_no_stop_without_a_bound(self):
        # with no bound from the caller the chain takes |SL(4,5)| |<det g_i>|
        # = |SL(4,5)| (symplectic generators have det 1), which Sp(4,5) does not reach
        group = GeneratedGroup(hyperelliptic_system(2, 5).generators)
        assert group.order() == 9360000
        assert group.bound == 5**6 * 24 * 124 * 624
        assert not group.stopped

    def test_derived_containment_passes_the_bound(self, monkeypatch):
        # without a witness the one group derived containment builds stops
        # at the bound, and its order is the order returned; with one, a
        # full witness orbit decides every bounded system, O(4,7) included,
        # with no group and the order of the full build
        built = _record_groups(monkeypatch)
        for name in sorted(_BOUNDED_SYSTEMS):
            system = _BOUNDED_SYSTEMS[name]()
            gens, space = list(system.generators), system.space
            built.clear()
            derived, cls, order = _derived_containment(gens, space, 10**7, _untagged(gens, space))
            assert derived and len(built) == 1 and built[0].stopped, name
            assert order == built[0].order() == _order_bound(space, gens)[0]
            built.clear()
            classes = [classify_element(g, space) for g in gens]
            assert _derived_containment(gens, space, 10**7, classes) == (derived, cls, order)
            assert derived_containment(gens, space) == (True, cls)
            assert built == [], name
            assert order == GeneratedGroup(gens).order(), name
        # O+(4,3) has no witness, so a reflection group there keeps the one
        # chain, stopped at the bound |O+(4,3)|
        space = form_spaces.dot(4, 3)
        e = np.eye(4, dtype=np.int64)
        gens = [reflection(space, r) for r in (e[0], e[0] + e[1], e[0] + e[2], e.sum(axis=0))]
        built.clear()
        assert derived_containment(gens, space) == (True, "FullO")
        assert len(built) == 1 and built[0].stopped
        assert built[0].order() == _order_bound(space, gens)[0] == 1152


# the family systems of the golden file whose reports include an exact
# order, and two larger ones; each has a witness
_FAMILY_SYSTEMS = {
    "Sp(2,3)": lambda: hyperelliptic_system(1, 3),
    "Sp(2,5)": lambda: hyperelliptic_system(1, 5),
    "Sp(4,5)": lambda: hyperelliptic_system(2, 5),
    "Sp(6,3)": lambda: hyperelliptic_system(3, 3),
    "Sp(6,5)": lambda: hyperelliptic_system(3, 5),
    "Sp(8,3)": lambda: hyperelliptic_system(4, 3),
    "O(4,5)": lambda: twist_family_system([2], 5),
    "O(4,7)": lambda: twist_family_system([2], 7),
    "O(5,5)": lambda: twist_family_system([2, 3], 5),
    "O(5,7)": lambda: twist_family_system([2, 3], 7),
}


def _untagged(gens: list[Matrix], space) -> list[ElementClass]:
    """The classes of ``gens`` tagged Other, so that ``_witness`` picks none and the chain decides."""
    return [ElementClass(OTHER, classify_element(g, space).drop) for g in gens]


def _witnesses(gens: list[Matrix], space) -> list[Matrix]:
    """Every generator ``_witness`` would pick on its own; it picks the first of them."""
    return [g for g in gens if _witness(space, [g], [classify_element(g, space)]) is g]


# every family system above, and the two golden-file systems too large for
# a full walk, walked under small limits
_WALK_SYSTEMS = {
    **_FAMILY_SYSTEMS,
    "Sp(4,101)": lambda: hyperelliptic_system(2, 101),
    "O(8,11)": lambda: twist_family_system([2, 3, 4], 11),
}


def _walk_arguments(gens: list[Matrix], space, witness: Matrix, monkeypatch) -> tuple[np.ndarray, int]:
    """The base vector and the target size that ``_witness_orbit_is_full`` hands to the walk."""
    import monodromy.classical_groups as classical

    calls = []
    with monkeypatch.context() as m:
        m.setattr(classical, "_orbit_reaches", lambda gens, base, size, limit: calls.append((base, size)))
        _witness_orbit_is_full(gens, space, witness, 0)
    return calls[0]


def _walk_outcome(walk, *args):
    """What the walk returns, or ResourceLimit when it raises that."""
    try:
        return walk(*args)
    except ResourceLimit:
        return ResourceLimit


def _assert_walks_agree(gens: list[Matrix], base: np.ndarray, size: int, limits, name) -> None:
    """The walk and the reference walk give the same answer, or both raise ResourceLimit, at each limit."""
    for limit in limits:
        new = _walk_outcome(_orbit_reaches, gens, base, size, limit)
        assert new == _walk_outcome(reference_orbit_reaches, gens, base, size, limit), (name, limit)


def _chain_contains_derived(gens: list[Matrix], space) -> bool:
    bound, _ = _order_bound(space, gens)
    return GeneratedGroup(gens, 10**7, bound).order() == bound


def _reflection_groups(space, rng: Random) -> list[list[Matrix]]:
    """Random, reducible and imprimitive groups generated by reflections of ``space``.

    The reducible ones reflect in vectors of the hyperplane x_n = 0.  The
    imprimitive ones are monomial: reflections in the vectors b_i of an
    orthogonal basis and in b_i +- b_j where Q(b_i) = Q(b_j), which swap
    the lines of b_i and b_j, moved by a random isometry.
    """
    n, p = space.dim, space.p

    def anisotropic(dim):
        v = np.zeros(n, dtype=np.int64)
        while not space.q(v):
            v[:dim] = [rng.randrange(p) for _ in range(dim)]
        return v

    basis = _orthogonal_basis(space)
    roots = basis + [
        (basis[i] + s * basis[j]) % p
        for i in range(n)
        for j in range(i + 1, n)
        for s in (1, -1)
        if space.q(basis[i]) == space.q(basis[j])
    ]
    groups = []
    for k in (2, n, n + 1, n + 3):
        groups.append([reflection(space, anisotropic(n)) for _ in range(k)])
        groups.append([reflection(space, anisotropic(n - 1)) for _ in range(k)])
        g = random_isometry(space, rng, 3)
        picked = [roots[rng.randrange(len(roots))] for _ in range(k)]
        groups.append([g @ reflection(space, r) @ g.inv() for r in picked])
    return groups


def _orthogonal_basis(space) -> list[np.ndarray]:
    """An orthogonal basis of anisotropic vectors, by Gram-Schmidt on a vector scan."""
    p = space.p
    basis = []
    for v in anisotropic_vectors(space, space.p ** space.dim):
        w = np.array(v, dtype=np.int64)
        for b in basis:
            w = (w - space.pair(w, b) * pow(space.q(b), -1, p) * b) % p
        if w.any() and space.q(w):
            basis.append(w)
        if len(basis) == space.dim:
            return basis
    raise AssertionError("no orthogonal basis found")


def _transvection_groups(space, rng: Random) -> list[list[Matrix]]:
    """Random and reducible groups generated by transvections of ``space``.

    Over F_p, p odd, an irreducible group generated by transvections is
    Sp(V) (McLaughlin, 1967), so a proper one is reducible: its vectors
    lie in a proper subspace.
    """
    n, p = space.dim, space.p

    def vector(dim):
        v = np.zeros(n, dtype=np.int64)
        while not v.any():
            v[:dim] = [rng.randrange(p) for _ in range(dim)]
        return v

    groups = []
    for k in (2, n, n + 1, n + 3):
        groups.append([transvection(space, vector(n), rng.randrange(1, p)) for _ in range(k)])
        groups.append([transvection(space, vector(n - 1), rng.randrange(1, p)) for _ in range(k)])
    return groups


def _random_form_space(kind: str, n: int, p: int) -> tuple[FormSpace, Random]:
    """A standard space in a random basis, and the generator that drew the basis.

    ``kind`` is "alternating", "symmetric" (identity Gram matrix) or
    "symmetric-nonsquare" (Gram matrix diag(1, ..., 1, d), d a nonsquare:
    the minus type in dimension 4, where the identity gives the plus type).
    """
    rng = Random(1000 * n + p + (kind == "symmetric-nonsquare"))
    a = random_invertible(n, p, rng)
    if kind == "alternating":
        standard = FormSpace.symplectic(n, p)
    elif kind == "symmetric":
        standard = form_spaces.dot(n, p)
    else:
        standard = form_spaces.diagonal(n, p, form_spaces.nonsquare(p))
    return FormSpace(a.T @ standard.gram @ a, standard.parity), rng


class TestWitnessOrbit:
    """The witness orbit against the chain it replaces: full exactly when the chain reaches the bound."""

    @pytest.mark.parametrize("name", sorted(_FAMILY_SYSTEMS))
    def test_matches_the_chain_on_family_systems(self, name, monkeypatch):
        system = _FAMILY_SYSTEMS[name]()
        gens, space = list(system.generators), system.space
        witnesses = _witnesses(gens, space)
        assert witnesses
        # the first witness decides with no group, at the order of the full build
        built = _record_groups(monkeypatch)
        order = _derived_containment(gens, space, 10**7, [classify_element(g, space) for g in gens])[2]
        assert built == []
        assert order == GeneratedGroup(gens).order()
        expected = _chain_contains_derived(gens, space)
        assert expected
        for w in witnesses:
            assert _witness_orbit_is_full(gens, space, w, 10**7) == expected
            # so is every proper subset of the generators that still holds w,
            # where the chains of these smaller groups are cheap
            for drop in range(len(gens) if space.dim <= 5 else 0):
                if gens[drop] is not w:
                    rest = gens[:drop] + gens[drop + 1 :]
                    assert _witness_orbit_is_full(rest, space, w, 10**7) == _chain_contains_derived(rest, space)

    @pytest.mark.parametrize(
        "kind,n,p",
        [("alternating", n, p) for n, p in ((2, 3), (2, 5), (2, 7), (4, 3), (4, 5), (6, 3))]
        + [
            ("symmetric", n, p)
            for n, p in ((3, 5), (3, 7), (4, 5), (4, 7), (5, 3), (5, 5), (6, 3), (7, 3), (3, 11), (3, 17))
        ]
        + [("symmetric-nonsquare", 4, p) for p in (5, 7, 17)],
    )
    def test_matches_the_chain_on_random_groups(self, kind, n, p, monkeypatch):
        # every space here has at most 17^4 < 2^20 codes, so at both limits
        # the walk marks codes in a bool table over p^n codes; walks in
        # sorted runs are compared on Sp(4,101) and O(8,11) below
        space, rng = _random_form_space(kind, n, p)
        make = _transvection_groups if kind == "alternating" else _reflection_groups
        outcomes = []
        for gens in make(space, rng):
            classes = [classify_element(g, space) for g in gens]
            witness = _witness(space, gens, classes)
            assert witness is gens[0]
            expected = _chain_contains_derived(gens, space)
            assert _witness_orbit_is_full(gens, space, witness, 10**7) == expected
            base, size = _walk_arguments(gens, space, witness, monkeypatch)
            _assert_walks_agree(gens, base, size, (size // 2, 10**7), (kind, n, p))
            assert _derived_containment(gens, space, 10**7, classes) == _derived_containment(
                gens, space, 10**7, _untagged(gens, space)
            )
            outcomes.append(expected)
        # groups that contain the derived subgroup and groups that do not
        assert outcomes.count(False) >= 4 and outcomes.count(True) >= 1, outcomes

    @pytest.mark.parametrize("name", sorted(_WALK_SYSTEMS))
    def test_matches_the_reference_walk_on_family_and_golden_systems(self, name, monkeypatch):
        system = _WALK_SYSTEMS[name]()
        gens, space = list(system.generators), system.space
        witnesses = _witnesses(gens, space)
        assert witnesses
        for w in witnesses:
            base, size = _walk_arguments(gens, space, w, monkeypatch)
            small = [0, 1, 100, 5000]
            if name in ("Sp(4,101)", "O(8,11)"):
                # under each small limit the walk marks codes in sorted runs
                assert not _table_pays(gens[0].p ** len(base), 5001, 1), name
            _assert_walks_agree(gens, base, size, small if size > 10**5 else small + [size - 1, size, 10**7], name)

    @pytest.mark.parametrize("kind", ["symmetric", "symmetric-nonsquare"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_no_witness_on_small_symmetric_spaces_over_f3(self, kind, n):
        # there reflections of one norm can generate a group without Omega
        # (see test_classical_groups.TestGenerationOracle), so the chain decides
        space, rng = _random_form_space(kind, n, 3)
        for gens in _reflection_groups(space, rng):
            assert _witness(space, gens, [classify_element(g, space) for g in gens]) is None

    def test_walk_respects_the_limit(self):
        system = hyperelliptic_system(3, 5)  # Sp(6,5): the witness orbit has 15624 vectors
        gens, space = list(system.generators), system.space
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit):
                derived_containment(gens, space, limit=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 700_000
        # the orbit fits under a limit of its own size, and builds no chain
        assert derived_containment(gens, space, limit=5**6 - 1) == (True, None)
        with pytest.raises(ResourceLimit):
            derived_containment(gens, space, limit=5**6 - 2)

    def test_walk_keeps_no_step_records(self):
        # Sp(8,5): the walk stores 390,624 vectors; their int8 chunks and the
        # dense index take 4.5 MiB, and the int64 parent rows a chain would
        # keep for its transversal another 3 MiB
        system = hyperelliptic_system(4, 5)
        gens, space = list(system.generators), system.space
        tracemalloc.start()
        try:
            assert derived_containment(gens, space) == (True, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20

    def test_walk_keeps_only_its_frontier(self):
        # Sp(8,5): holding every one of the 390,624 orbit vectors until the
        # walk returns (1.5 MiB of int8 rows) put the peak at 6.4 MiB, and
        # the last round's vectors with a 1.5 MiB int32 position table at
        # 4.4 MiB; the walk keeps that round and a 0.4 MiB bool table
        system = hyperelliptic_system(4, 5)
        gens, space = list(system.generators), system.space
        witness = _witness(space, gens, [classify_element(g, space) for g in gens])
        tracemalloc.start()
        try:
            assert _witness_orbit_is_full(gens, space, witness, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_walk_peak_memory_on_o87(self):
        # O(8,7): the 7^8 codes take a 5.5 MiB seen table, next to one
        # round's int8 frontier and the chunks and frontier of the next (at
        # most 2.7 MiB each); the walk on the chain's orbit loop and its
        # int32 position table peaked at 36.4 MiB
        system = twist_family_system([2, 3, 4], 7)
        gens, space = list(system.generators), system.space
        witness = _witness(space, gens, [classify_element(g, space) for g in gens])
        tracemalloc.start()
        try:
            assert _witness_orbit_is_full(gens, space, witness, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20

    def test_walk_on_the_twist_family_at_29(self, monkeypatch):
        # 29^5 codes and a norm class of 708,122 vectors: a 19.6 MiB bool
        # table marks them (peak 23.1 MiB); in a _CodeIndex, which turned
        # into an int32 table at 29^5 / 32 codes, the walk peaked at 90.2 MiB
        system = twist_family_system([2, 3], 29)
        gens, space = list(system.generators), system.space
        witness = _witness(space, gens, [classify_element(g, space) for g in gens])
        tracemalloc.start()
        try:
            assert _witness_orbit_is_full(gens, space, witness, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        base, size = _walk_arguments(gens, space, witness, monkeypatch)
        assert size == 708_122
        assert _table_pays(29**5, size + 1, 1) and not _table_pays(29**5, 101, 1)
        _assert_walks_agree(gens, base, size, (100, 10**7), "twist (2,3) at 29")

    def test_small_limit_on_a_large_space_allocates_no_table(self):
        # the shear I + E_01 and the coordinate cycle generate SL(20, 3)
        # extended by det -1, transitive on the 3^20 - 1 nonzero vectors; a
        # bool table over the 3^20 codes would take 3.5 GB, so with a limit
        # of 1000 the walk marks codes in sorted runs
        n, p = 20, 3
        shear = np.eye(n, dtype=np.int64)
        shear[0, 1] = 1
        cycle = np.roll(np.eye(n, dtype=np.int64), 1, axis=0)
        gens = [Matrix(shear, p), Matrix(cycle, p)]
        base = np.eye(n, dtype=np.int64)[0]
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="cap of 1000 vectors"):
                _orbit_reaches(gens, base, p**n - 1, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_walk_refuses_codes_past_int64(self):
        a = np.eye(40, dtype=np.int64)
        a[0, 1] = 1
        base = np.zeros(40, dtype=np.int64)
        base[0] = 1
        with pytest.raises(ResourceLimit):
            _orbit_reaches([Matrix(a, 3)], base, 2, 10**7)


# the four spaces of the benchmark's library sweep
_SWEEP_SPACES = {
    "Sp4(3)": lambda: FormSpace.symplectic(4, 3),
    "Sp2(5)": lambda: FormSpace.symplectic(2, 5),
    "O4+(5)": lambda: form_spaces.hyperbolic(4, 5),
    "O5(5)": lambda: form_spaces.dot(5, 5),
}


class TestOneOrbitLoop:
    """The witness walk is the chain's ``_orbit`` on a seen table: it measures every level's orbit exactly."""

    @pytest.mark.parametrize("name", sorted(_SWEEP_SPACES))
    def test_walk_measures_each_level_orbit_in_both_modes(self, name, monkeypatch):
        # a level's stored orbit is the orbit of its base vector under its
        # strong generators, so the walk from that vector reaches its length
        # and not one more: on a bool table, and on the sorted runs that a
        # limit below p^n / 128 takes on a large space, here forced by a
        # ``_table_pays`` that refuses every table; a limit one vector
        # short of the length raises
        import monodromy.group_engine as engine

        space = _SWEEP_SPACES[name]()
        n, p = space.dim, space.p
        rng = Random(34)
        orbit, kinds = engine._orbit, []

        def recorded(frontier, gens, p, seen, *rest):
            kinds.append(type(seen))
            return orbit(frontier, gens, p, seen, *rest)

        monkeypatch.setattr(engine, "_orbit", recorded)
        lengths = []
        make = _transvection_groups if space.parity == "alternating" else _reflection_groups
        for gens in make(space, rng):
            for lvl in GeneratedGroup(gens).levels:
                strong = [Matrix(g, p) for g in lvl.gens]
                base, size = np.eye(n, dtype=np.int64)[lvl.col], len(lvl.trans)
                kinds.clear()
                assert _orbit_reaches(strong, base, size, 10**7), name
                assert not _orbit_reaches(strong, base, size + 1, 10**7), name
                assert kinds == [np.ndarray] * 2, name
                with monkeypatch.context() as m:
                    m.setattr(engine, "_table_pays", lambda size, count, itemsize: False)
                    kinds.clear()
                    assert _orbit_reaches(strong, base, size, size), name
                    assert not _orbit_reaches(strong, base, size + 1, size + 1), name
                    with pytest.raises(ResourceLimit):
                        _orbit_reaches(strong, base, size, size - 1)
                    assert kinds == [_CodeIndex] * 3, name
                lengths.append(size)
        assert len(lengths) >= 10 and max(lengths) > 2 * min(lengths), (name, lengths)

    def test_first_round_maps_by_the_generators_past_closed(self):
        # the stored points are taken to be closed under gens[:closed]: the
        # first round maps them by the others only.  Here e_0 is not closed
        # under the swap, which the first generator is; the second fixes e_0,
        # so the walk told that the swap is done finds nothing new
        p = 5
        gens = np.array([[[0, 1], [1, 0]], [[1, 0], [0, 2]]], dtype=np.int64)
        for closed, size in ((0, 8), (1, 1)):
            seen = np.zeros(p**2, dtype=bool)
            seen[1] = True
            assert _orbit(np.eye(2, dtype=np.int8)[:1], gens, p, seen, 100, closed) == size
            assert np.count_nonzero(seen) == size


def _gl_det_bound(gens: list[Matrix]) -> int:
    """|GL(n,p)| / (p - 1) times the size of the closure of the determinants in F_p^x."""
    n, p = gens[0].n, gens[0].p
    dets = {g.det() for g in gens}
    closure, frontier = {1}, {1}
    while frontier:
        frontier = {(x * d) % p for x in frontier for d in dets} - closure
        closure |= frontier
    gl = math.prod(p**n - p**i for i in range(n))
    return gl // (p - 1) * len(closure)


class TestDeterminantBound:
    """Chains with no bound from the caller stop at |SL(n,p)| |<det g_i>|."""

    @staticmethod
    def _check(name: str, gens: list[Matrix]) -> bool:
        """Compare the default build with the full build and the reference; reached B?"""
        bound = _gl_det_bound(gens)
        group = GeneratedGroup(gens)
        order = group.order()
        # the same build, given a bound it can never reach
        full = GeneratedGroup(gens, bound=2 * bound)
        # the vector-at-a-time reference takes seconds on GL(4,11); there the
        # full build, checked against it on the smaller groups, stands in
        n, p = gens[0].n, gens[0].p
        reference = ReferenceGroup(gens) if p**n <= 7**4 else None
        assert order == full.order() <= bound, name
        assert not full.stopped, name
        assert _levels(group) == _levels(full), name
        if group.levels:
            assert group.bound == bound, name
        else:  # an empty chain computes no bound
            assert group.bound is None and order == 1, name
        assert group.stopped == (order == bound), name
        cands = _membership_candidates(gens, Random(order % 991))
        answers = [group.contains_array(c.array) for c in cands]
        assert answers == [full.contains_array(c.array) for c in cands], name
        if reference is not None:
            assert reference.order() == order, name
            assert answers == [reference.contains_array(c.array) for c in cands], name
        assert answers[:10] == [True] * 10, name
        return group.stopped

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_gl_tuples_reach_the_bound(self, n, p):
        rng = Random(600 + 10 * n + p)
        gens = [random_invertible(n, p, rng) for _ in range(2)]
        assert self._check(f"GL({n},{p})", gens)

    def test_families_and_small_groups_stay_below_the_bound(self):
        rng = Random(700)
        cases = {name: list(build().generators) for name, build in _BOUNDED_SYSTEMS.items()}
        cases["cyclic"] = [random_invertible(3, 5, rng)]
        cases["-I"] = [Matrix.scalar(-1, 4, 7)]
        cases["identity"] = [Matrix.identity(3, 5), Matrix.identity(3, 5)]
        for name, gens in cases.items():
            assert not self._check(name, gens)


class TestLevelGenerators:
    """Each level keeps its distinct strong generators beside their inverses."""

    @pytest.mark.parametrize("name", sorted(_BOUNDED_SYSTEMS))
    def test_stored_inverses(self, name):
        chain = GeneratedGroup(_BOUNDED_SYSTEMS[name]().generators)
        eye = np.eye(chain.dim, dtype=np.int64)
        for lvl in chain.levels:
            assert lvl.gens.shape == lvl.gens_inv.shape
            assert np.all((lvl.gens_inv @ lvl.gens) % chain.p == eye)
            assert len({g.tobytes() for g in lvl.gens}) == len(lvl.gens)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_repeated_and_identity_generators_change_nothing(self, p):
        rng = Random(300 + p)
        for trial in range(8):
            n = rng.randrange(2, 4)
            gens = _random_generators(rng, p, n)
            plain = [
                g for k, g in enumerate(gens) if not g.is_identity() and g not in gens[:k]
            ]
            eye = Matrix.identity(n, p)
            padded = [eye] + gens + gens[::-1] + [eye]
            if not plain:
                assert GeneratedGroup(padded).levels == []
                continue
            want = GeneratedGroup(plain)
            got = GeneratedGroup(padded)
            assert _levels(got) == _levels(want), (p, n, trial)
            for a, b in zip(got.levels, want.levels):
                assert np.array_equal(a.gens, b.gens)
                assert np.array_equal(a.gens_inv, b.gens_inv)

    def test_no_level_holds_a_generator_twice(self):
        # the caller's repeats are dropped once, before the top level is
        # filled; a residue never joins a level that holds it already
        admitted = 0
        for name, gens, bound, _ in _incremental_cases():
            # a bound the chain cannot reach forces the full build
            chains = [GeneratedGroup(gens + gens[::-1], bound=2 * _gl_det_bound(gens))]
            if bound is not None:
                chains.append(GeneratedGroup(gens, bound=bound))
            for chain in chains:
                for lvl in chain.levels:
                    assert len({g.tobytes() for g in lvl.gens}) == len(lvl.gens), name
                admitted += sum(len(lvl.gens) for lvl in chain.levels[1:])
        assert admitted > 100


def _incremental_cases() -> list[tuple[str, list[Matrix], object, int]]:
    """(name, generators, bound or None, order): the bounded systems with and
    without their bound, random groups over F_3, F_5 and F_7, and a chain on
    the sorted code index."""
    cases = []
    for name in sorted(_BOUNDED_SYSTEMS):
        system = _BOUNDED_SYSTEMS[name]()
        gens = list(system.generators)
        bound, _ = _order_bound(system.space, gens)
        cases += [(name, gens, None, bound), (f"{name} bounded", gens, bound, bound)]
    for p in (3, 5, 7):
        rng = Random(400 + p)
        for trial in range(6):
            gens = _random_generators(rng, p, rng.randrange(2, 5))
            cases.append((f"random {p}/{trial}", gens, None, ReferenceGroup(gens).order()))
    cases.append(("C8 wr C2 mod 65537", _diagonal_and_swap(65537, 8), None, 8**2 * 2))
    return cases


def _assert_level_invariants(chain: GeneratedGroup, name: str) -> None:
    """Each transversal element has its inverse; the index finds the base image of every row at that row."""
    p, n = chain.p, chain.dim
    eye = np.eye(n, dtype=np.int64)
    for lvl in chain.levels:
        trans = lvl.trans.astype(np.int64)
        assert np.all((lvl.trans_inv.astype(np.int64) @ trans) % p == eye), name
        codes = _codes(trans[:, :, lvl.col], p)
        assert np.array_equal(lvl.index.find(codes), np.arange(len(trans))), name


class TestIncrementalChain:
    """Orbits grow in place, and each Schreier generator is sifted once."""

    def test_level_invariants_after_growth(self, monkeypatch):
        import monodromy.group_engine as engine

        grow = engine.GeneratedGroup._grow
        regrown = []

        def checked_grow(chain, idx):
            lvl = chain.levels[idx]
            before = lvl.trans.copy(), lvl.trans_inv.copy()
            grow(chain, idx)
            # old rows keep their place, their transversal and their inverse
            m = len(before[0])
            for old, new in zip(before, (lvl.trans, lvl.trans_inv)):
                assert np.array_equal(new[:m], old)
            regrown.append(1 < m < len(lvl.trans))

        monkeypatch.setattr(engine.GeneratedGroup, "_grow", checked_grow)
        for name, gens, bound, order in _incremental_cases():
            chain = GeneratedGroup(gens, bound=bound)
            assert chain.order() == order, name
            _assert_level_invariants(chain, name)
        assert any(regrown)

    def test_each_pair_is_sifted_once(self, monkeypatch):
        import monodromy.group_engine as engine

        blocks = engine.GeneratedGroup._schreier_blocks
        rows = []

        def counted(chain, lvl):
            for block in blocks(chain, lvl):
                rows.append(len(block))
                yield block

        monkeypatch.setattr(engine.GeneratedGroup, "_schreier_blocks", counted)
        systems = {name: _BOUNDED_SYSTEMS[name]() for name in ("Sp(6,3)", "O(5,5)")}
        rng = Random(500)
        cases = [(name, list(s.generators)) for name, s in systems.items()]
        cases += [(f"random {k}", _random_generators(rng, (3, 5, 7)[k % 3], 3)) for k in range(8)]
        for name, gens in cases:
            rows.clear()
            # a bound the chain cannot reach forces the full build
            chain = GeneratedGroup(gens, bound=2 * _gl_det_bound(gens))
            assert not chain.stopped, name
            pairs = sum(len(lvl.trans) * len(lvl.gens) for lvl in chain.levels)
            assert sum(rows) == pairs, name
            # the default bound stops the same build, sifting at most those pairs
            rows.clear()
            default = GeneratedGroup(gens)
            assert default.stopped == (default.order() == default.bound), name
            assert _levels(default) == _levels(chain), name
            assert sum(rows) <= pairs, name
        for name, system in systems.items():
            rows.clear()
            bound, _ = _order_bound(system.space, list(system.generators))
            chain = GeneratedGroup(system.generators, bound=bound)
            assert chain.stopped, name
            assert sum(rows) <= sum(len(lvl.trans) * len(lvl.gens) for lvl in chain.levels), name


class _ArrivalSortedIndex(SortedIndex):
    """A ``SortedIndex`` that numbers its codes in order of arrival, as ``_CodeIndex.add`` does."""

    count = 0

    def add(self, codes: np.ndarray) -> None:
        super().add(codes, np.arange(self.count, self.count + codes.size))
        self.count += codes.size


class TestTablePays:
    """A table of k bytes per code over p^n codes pays when p^n <= 2^20 or k p^n <= 128 count."""

    @pytest.mark.parametrize("itemsize", [1, 4, 8])
    def test_every_space_up_to_2_to_the_20_takes_a_table(self, itemsize):
        assert _table_pays(1 << 20, 0, itemsize)
        assert not _table_pays((1 << 20) + 1, 0, itemsize)

    @pytest.mark.parametrize(
        "itemsize,size,least",
        [
            # a bool seen table over 2^21 codes pays at 2^21 / 128 codes
            (1, 1 << 21, 1 << 14),
            (1, (1 << 21) + 1, (1 << 14) + 1),
            # an int32 position table at one code in 32
            (4, 1 << 21, 1 << 16),
            (4, 2**31, 2**26),
            # an int64 position table, above 2^31 codes, at one code in 16
            (8, 2**31 + 16, 2**27 + 1),
            (8, 3**20, -(-(3**20) // 16)),
        ],
    )
    def test_a_larger_space_at_128_bytes_per_code_held(self, itemsize, size, least):
        assert _table_pays(size, least, itemsize)
        assert not _table_pays(size, least - 1, itemsize)


class TestDenseSwitch:
    """A sorted code index turns dense once it holds one code in 32, and answers the same."""

    def test_index_turns_dense_at_one_code_in_32(self):
        size = 1 << 21
        index = _CodeIndex(size)
        codes = np.arange(0, size, 32, dtype=np.int64)[::-1].copy()
        index.add(codes[:-1])
        index.add(codes[:0])  # an empty add stores nothing
        assert index.table is None and len(index.runs) == 1
        sorted_answers = index.find(np.arange(size))
        index.add(codes[-1:])
        assert index.table is not None and index.runs == []
        expected = np.full(size, -1)
        expected[codes] = np.arange(len(codes))
        assert np.array_equal(index.find(np.arange(size)), expected)
        assert np.array_equal(sorted_answers[codes[:-1]], expected[codes[:-1]])
        assert np.count_nonzero(sorted_answers >= 0) == len(codes) - 1

    @pytest.mark.parametrize(
        "name,make,dense",
        [
            # 65537^2 codes, and orbits of 16 and 8 vectors: it stays sorted
            ("C8 wr C2 mod 65537", lambda: _diagonal_and_swap(65537, 8), [False, False]),
            # 1031^2 > 2^20 codes; the top orbit holds all but one of them
            ("SL(2,1031)", lambda: SL2(1031), [True, False]),
        ],
    )
    def test_matches_a_sorted_only_index(self, name, make, dense, monkeypatch):
        import monodromy.group_engine as engine

        gens = make()
        group = GeneratedGroup(gens)
        assert [lvl.index.table is not None for lvl in group.levels] == dense, name
        _assert_level_invariants(group, name)
        cands = _membership_candidates(gens, Random(31))
        answers = [group.contains_array(c.array) for c in cands]
        assert answers[:10] == [True] * 10, name
        monkeypatch.setattr(engine, "_CodeIndex", _ArrivalSortedIndex)
        sorted_only = GeneratedGroup(gens)
        assert all(isinstance(lvl.index, SortedIndex) for lvl in sorted_only.levels), name
        _assert_level_invariants(sorted_only, name)
        assert sorted_only.order() == group.order(), name
        assert _levels(sorted_only) == _levels(group), name
        assert [sorted_only.contains_array(c.array) for c in cands] == answers, name


class TestTopDownChain:
    """Bounded builds complete level 0, then level 1, and so on."""

    @staticmethod
    def _count_schreier_rows(monkeypatch) -> tuple[list[int], list]:
        """Rows of every Schreier block formed, and the level of every pass."""
        import monodromy.group_engine as engine

        blocks = engine.GeneratedGroup._schreier_blocks
        rows, passes = [], []

        def counted(chain, lvl):
            passes.append(lvl)
            for block in blocks(chain, lvl):
                rows.append(len(block))
                yield block

        monkeypatch.setattr(engine.GeneratedGroup, "_schreier_blocks", counted)
        return rows, passes

    def test_bounded_sp83_forms_few_schreier_generators(self, monkeypatch):
        rows, _ = self._count_schreier_rows(monkeypatch)
        system = hyperelliptic_system(4, 3)
        bound, _ = _order_bound(system.space, list(system.generators))
        chain = GeneratedGroup(system.generators, bound=bound)
        assert chain.stopped and chain.order() == bound
        # a build that completed each lower level whenever it gained a generator formed 21,697
        assert sum(rows) < 1000

    def test_unreached_bound_matches_reference(self, monkeypatch):
        import monodromy.group_engine as engine

        rows, passes = self._count_schreier_rows(monkeypatch)
        complete, extend = engine.GeneratedGroup._complete, engine.GeneratedGroup._extend
        done = set()

        def completed(chain, i):
            complete(chain, i)
            done.add(i)

        def checked_extend(chain, h, i, j):
            # no level gains a generator after its Schreier generators are sifted
            assert done.isdisjoint(range(i + 1, j + 1))
            extend(chain, h, i, j)

        monkeypatch.setattr(engine.GeneratedGroup, "_complete", completed)
        monkeypatch.setattr(engine.GeneratedGroup, "_extend", checked_extend)
        for name, gens, bound, order in _incremental_cases():
            if bound is not None:
                continue  # each bounded system also appears without its bound
            rows.clear()
            passes.clear()
            done.clear()
            group = GeneratedGroup(gens, bound=2 * order)
            assert not group.stopped, name
            assert done == set(range(len(group.levels))), name
            # one pass over the Schreier generators of each level
            assert sorted(map(id, passes)) == sorted(map(id, group.levels)), name
            # each pair (point, generator) is sifted once
            assert sum(rows) == sum(len(lvl.trans) * len(lvl.gens) for lvl in group.levels), name
            reference = ReferenceGroup(gens)
            assert group.order() == reference.order() == order, name
            cands = _membership_candidates(gens, Random(order % 997))
            answers = [group.contains_array(c.array) for c in cands]
            assert answers == [reference.contains_array(c.array) for c in cands], name
            assert answers[:10] == [True] * 10, name


def _query_concurrently(query, threads: int = 4) -> list:
    """Run ``query`` in ``threads`` threads released at once; their results."""
    barrier = threading.Barrier(threads)
    results: list = []

    def run():
        barrier.wait(timeout=30)
        results.append(query())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    return results


class TestChainRobustness:
    def test_concurrent_first_queries_are_exact(self):
        system = hyperelliptic_system(2, 5)
        gens = system.generators
        member = gens[0] @ gens[1] @ gens[2]
        outsider = Matrix.scalar(2, 4, 5)  # det 1 but not symplectic: 2^2 != 1
        group = GeneratedGroup(gens)

        def query():
            return group.order(), group.contains_array(member.array), outsider in group

        assert _query_concurrently(query) == [(9360000, True, False)] * 4

    def test_concurrent_first_determinants_agree(self):
        # each constructor reads det() of the shared generators, whose first
        # call fills the kept determinant; racing threads store the same int
        gens = [Matrix(g.array, 5) for g in hyperelliptic_system(2, 5).generators]
        shared = gens + [Matrix.diagonal([2, 1, 1, 1], 5)]

        def query():
            return GeneratedGroup(shared).order(), [g.det() for g in shared]

        results = _query_concurrently(query)
        fresh = [Matrix(g.array, 5) for g in shared]
        assert results == [(GeneratedGroup(fresh).order(), [1] * len(gens) + [2])] * 4

    def test_concurrent_first_queries_with_a_bound_are_exact(self):
        system = hyperelliptic_system(2, 5)
        gens = system.generators
        space = system.space
        member = gens[0] @ gens[1] @ gens[2]
        outsider = Matrix.scalar(2, 4, 5)
        group = GeneratedGroup(gens, bound=_order_bound(space, gens)[0])  # |Sp(4,5)|

        def query():
            derived = derived_containment(gens, space)[0]
            return derived, group.order(), group.contains_array(member.array), outsider in group

        assert _query_concurrently(query) == [(True, 9360000, True, False)] * 4
        assert group.stopped

    def test_cap_is_checked_while_the_orbit_grows(self):
        system = hyperelliptic_system(3, 5)  # Sp(6,5): root orbit of 15624 vectors
        gens = system.generators
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit):
                GeneratedGroup(gens, limit=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 15624 root-orbit vectors alone take 750 kB, their transversal 1.1 MB
        assert peak < 700_000
        # a failed build leaves nothing behind: building again fails again
        with pytest.raises(ResourceLimit):
            GeneratedGroup(gens, limit=1000)

    def test_vector_codes_must_fit_in_int64(self):
        def shear(n):
            a = np.eye(n, dtype=np.int64)
            a[0, 1] = 1
            return Matrix(a, 3)

        assert 3**39 < 2**63 <= 3**40
        assert GeneratedGroup([shear(39)]).order() == 3
        with pytest.raises(ResourceLimit):
            GeneratedGroup([shear(40)])
        # a group of identities has an empty chain and computes no code
        trivial = GeneratedGroup([Matrix(np.eye(40, dtype=np.int64), 3)])
        assert trivial.order() == 1
        assert trivial.contains_array(np.eye(40, dtype=np.int64))
        assert not trivial.contains_array(shear(40).array)
