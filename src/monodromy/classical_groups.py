"""Bilinear-form geometry and the element taxonomy of isometry groups.

A ``FormSpace`` is F_p^n with a non-degenerate symmetric or alternating
pairing, held as its Gram matrix and parity.  An isometry is classified by
its drop (the codimension of its fixed space, ``classify_element(g,
space).drop``): drop-1 elements are reflections (determinant -1) or
transvections (determinant +1), and a non-trivial unipotent element with
(g-1)^2 = 0 is an isotropic shear.  The module also computes spinor norms
as the discriminant of Wall's form on the image of 1 - g, the standard
orders of the finite symplectic and orthogonal groups, and the image of
(determinant, spinor norm) on a set of generators, which names the class
of an orthogonal group that contains the derived subgroup.  It finds the
pairing a basis of invariant forms spans (``invariant_pairing``).

Containment of the derived subgroup of the isometry group
(``derived_containment``) is decided with no derived generators.  When a
generator is a transvection, or a reflection of a symmetric space of
dimension at least 3 outside a few small cases over F_3, a full orbit of
one vector proves it, with no stabilizer chain.  Otherwise the group
order decides, with the image of (determinant, spinor norm) in the
orthogonal case: the bound |Sp(V)|, or |Omega| times the size of that
image, stops the build of the ``GeneratedGroup`` chain.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInput, NotAnIsometry
from .ff_linalg import (
    Matrix, _check_integer, _check_modulus, _check_type, _det, _int64_vectors, _pivots, _rref,
)
from .group_engine import GeneratedGroup, _orbit_reaches

__all__ = [
    "IDENTITY",
    "REFLECTION",
    "TRANSVECTION",
    "ISOTROPIC_SHEAR",
    "OTHER",
    "ElementClass",
    "FormSpace",
    "GroupOrders",
    "invariant_pairing",
    "is_isometry",
    "classify_element",
    "square_class",
    "spinor_norm",
    "isometry_group_orders",
    "derived_containment",
]

IDENTITY = "Identity"
REFLECTION = "Reflection"
TRANSVECTION = "Transvection"
ISOTROPIC_SHEAR = "IsotropicShear"
OTHER = "Other"


@dataclass(frozen=True)
class ElementClass:
    tag: str
    drop: int

    def __str__(self) -> str:
        return f"{self.tag}(drop={self.drop})"


@dataclass(frozen=True, repr=False)
class FormSpace:
    """F_p^n with a non-degenerate symmetric or alternating pairing.

    ``gram`` is the Gram matrix and ``parity`` is ``"symmetric"`` (gram
    equals its transpose) or ``"alternating"`` (gram equals minus its
    transpose).  The constructor rejects a gram matrix that is not square,
    does not have the stated parity, or is degenerate.  Every modulus is an
    odd prime, so an antisymmetric gram has zero diagonal, and one of odd
    size is degenerate: an alternating space has even dimension.
    """

    gram: Matrix
    parity: str

    def __post_init__(self):
        g = _check_type(self.gram, Matrix, "gram")
        if g.rows != g.cols:
            raise InvalidInput("gram matrix must be square")
        if g.rows == 0:
            raise InvalidInput("gram matrix must be at least 1 x 1")
        if self.parity == "symmetric":
            if g.T != g:
                raise InvalidInput("gram matrix is not symmetric")
        elif self.parity == "alternating":
            if g.T != -g:
                raise InvalidInput("gram matrix is not antisymmetric")
        else:
            raise InvalidInput(f"unknown parity {self.parity!r}")
        if g.det() == 0:
            raise InvalidInput("the pairing must be non-degenerate")

    @property
    def dim(self) -> int:
        return self.gram.rows

    @property
    def p(self) -> int:
        return self.gram.p

    def pair(self, u, v) -> int:
        """<u, v> mod p.

        Entries that are not integers fitting in int64, or anything but two
        vectors whose length is the dimension, raise InvalidInput.
        """
        p = self.p
        u, v = _int64_vectors(u, self.dim, "u") % p, _int64_vectors(v, self.dim, "v") % p
        if u.ndim + v.ndim != 2:
            raise InvalidInput(f"pair takes two vectors, got shapes {u.shape} and {v.shape}")
        return int((((u @ self.gram.array) % p) @ v) % p)

    def q(self, v) -> int:
        return self.pair(v, v)

    # -- standard models -----------------------------------------------------

    @staticmethod
    def symplectic(dim: int, p: int) -> "FormSpace":
        """Standard alternating space: <e_i, f_j> = delta_ij on e's then f's."""
        if _check_integer(dim, "symplectic dimension", least=0) % 2 != 0:
            raise InvalidInput("symplectic dimension must be even")
        m = dim // 2
        g = np.zeros((dim, dim), dtype=np.int64)
        g[:m, m:] = np.eye(m, dtype=np.int64)
        g[m:, :m] = -np.eye(m, dtype=np.int64)
        return FormSpace(Matrix(g, p), "alternating")

    @staticmethod
    def from_gram(gram: Matrix) -> "FormSpace":
        if _check_type(gram, Matrix, "gram").T == gram:
            return FormSpace(gram, "symmetric")
        if gram.T == -gram:
            return FormSpace(gram, "alternating")
        raise InvalidInput("gram matrix is neither symmetric nor antisymmetric")

    def __repr__(self) -> str:
        kind = "Sp" if self.parity == "alternating" else "O"
        return f"FormSpace({kind}_{self.dim} over F_{self.p})"


def invariant_pairing(forms: Sequence[Matrix]) -> Optional[FormSpace]:
    """A non-degenerate symmetric or alternating form in the span of ``forms``, or None.

    ``forms`` is a basis of invariant forms (see ``ff_linalg.invariant_forms``).
    The first non-degenerate form of definite parity B_i + b B_j over pairs
    of basis forms is taken (see ``_pair_form``), so a lone non-degenerate
    form is its own pairing.  A nonzero multiple of a form is
    non-degenerate, and of definite parity, exactly when the form is, so no
    other pair combinations need trying.  When every basis form has small
    rank no such pair exists, and a greedy sum of the symmetric parts
    B + B^T, then of the alternating parts B - B^T, is tried (see
    ``_greedy_nondegenerate``); a transpose of an invariant form is
    invariant, so both parts are.
    """
    forms = list(_check_type(forms, Iterable, "forms"))
    if not all(isinstance(form, Matrix) for form in forms):
        raise InvalidInput("invariant forms must each be a Matrix")
    if not forms:
        return None
    cand = _pair_form(forms)
    if cand is not None:
        return FormSpace.from_gram(cand)
    for sign in (1, -1):
        cand = _greedy_nondegenerate([form + sign * form.T for form in forms])
        if cand is not None:
            return FormSpace.from_gram(cand)
    return None


def _pair_form(basis: Sequence[Matrix]) -> Optional[Matrix]:
    """The first non-degenerate symmetric or alternating B_i + b B_j, or None.

    Pairs i <= j are taken in order, and b in F_p ascending, but only the b
    at which a parity condition holds are tried, and of those only b = 0..n
    when it holds for every b.  (B_i + b B_j)^T = +-(B_i + b B_j) is linear
    in b, so it holds for every b, for one b (solved for) or for none; and
    det(B_i + b B_j) has degree at most n in b, so if it is not zero on all
    of F_p one of b = 0..n is not a root.  So the form found is the one a
    scan of all of F_p finds first.
    """
    n, p = basis[0].n, basis[0].p
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            parity = set()
            for sign in (1, -1):
                a = (basis[i].array.T - sign * basis[i].array) % p
                d = (basis[j].array.T - sign * basis[j].array) % p
                moved = np.flatnonzero(d)
                if not moved.size:
                    if not a.any():
                        parity.update(range(min(p, n + 1)))
                    continue
                k = moved[0]
                b = -int(a.flat[k]) * pow(int(d.flat[k]), -1, p) % p
                if not ((a + b * d) % p).any():
                    parity.add(b)
            for b in sorted(parity):
                cand = basis[i] + b * basis[j]
                if cand.det() != 0:
                    return cand
    return None


def _greedy_nondegenerate(forms: Sequence[Matrix]) -> Optional[Matrix]:
    """A non-degenerate combination of ``forms``, or None if the greedy sum fails.

    Each form is added to the sum so far with the first b in F_p^* that
    raises its rank.  Only b = 1..n+1 (or all of F_p^* when p <= n + 2) are
    tried: each minor of the sum plus b times the form is a polynomial of
    degree at most n in b, so one that vanishes at n + 1 points vanishes
    for every b.
    """
    n, p = forms[0].n, forms[0].p
    total = Matrix.zeros(n, n, p)
    rank = 0
    for form in forms:
        for b in range(1, min(p, n + 2)):
            cand = total + b * form
            cand_rank = cand.rank()
            if cand_rank > rank:
                total, rank = cand, cand_rank
                break
        if rank == n:
            return total
    return None


def is_isometry(g: Matrix, space: FormSpace) -> bool:
    _check_type(g, Matrix, "g")
    gram = _check_type(space, FormSpace, "space").gram
    return g.T @ gram @ g == gram


def _require_isometry(g: Matrix, space: FormSpace) -> None:
    _check_type(space, FormSpace, "space")
    if not isinstance(g, Matrix) or g.p != space.p or g.rows != space.dim or g.cols != space.dim:
        raise NotAnIsometry("matrix does not match the space")
    if not is_isometry(g, space):
        raise NotAnIsometry("matrix does not preserve the pairing")


def classify_element(g: Matrix, space: FormSpace) -> ElementClass:
    """Tag an isometry as Identity / Reflection / Transvection / IsotropicShear / Other.

    Drop-1 elements split by determinant, which is +-1 since g^T G g = G
    gives det(g)^2 = 1; the shear tag applies to non-trivial unipotent g
    with (g-1)^2 = 0, whose image is automatically totally isotropic.
    """
    _require_isometry(g, space)
    p = space.p
    one = Matrix.identity(space.dim, p)
    b = g - one
    d = b.rank()
    if d == 0:
        return ElementClass(IDENTITY, 0)
    if d == 1:
        return ElementClass(REFLECTION if g.det() == p - 1 else TRANSVECTION, 1)
    if (b @ b).is_zero():
        # the image of g-1 is totally isotropic: a consequence of the
        # isometry identity, checked here as an internal sanity guard
        image = _rref(b.array.T, p)[0][:d]
        assert not ((image @ space.gram.array @ image.T) % p).any()
        assert space.parity == "alternating" or space.dim >= 4
        return ElementClass(ISOTROPIC_SHEAR, d)
    return ElementClass(OTHER, d)


def square_class(a: int, p: int) -> int:
    """+1 for nonzero squares mod p, -1 for nonsquares (Euler's criterion)."""
    p = _check_modulus(p)
    a = _check_integer(a, "a") % p
    if a == 0:
        raise InvalidInput("0 has no square class")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def spinor_norm(g: Matrix, space: FormSpace) -> int:
    """Spinor norm of an orthogonal isometry, valued in {+1, -1}.

    The discriminant of Wall's form (Zassenhaus, "On the spinor norm",
    Arch. Math. 13 (1962)): on the image of 1 - g, chi((1-g)u, (1-g)v) =
    <u, (1-g)v> is a well-defined non-degenerate bilinear form.  The
    columns J of 1 - g at its pivots span that image, so the Gram matrix of
    chi in that basis is (G (1-g))[J, J], and theta(g) is the square class
    of 2^d det chi with d = rank(1 - g).  The factor 2^d matches the
    convention that the reflection in r has norm the square class of <r,r>.
    """
    if _check_type(space, FormSpace, "space").parity != "symmetric":
        raise InvalidInput("spinor norm is defined on orthogonal groups")
    _require_isometry(g, space)
    return _spinor_norm(g, space)


def _spinor_norm(g: Matrix, space: FormSpace) -> int:
    """``spinor_norm`` of an isometry ``g`` of the symmetric ``space``, unchecked."""
    p = space.p
    shift = (np.eye(space.dim, dtype=np.int64) - g.array) % p
    pivots = _pivots(shift, p)
    wall = (space.gram.array @ shift) % p
    chi = wall[pivots][:, pivots]
    return square_class(pow(2, len(pivots), p) * _det(chi, p), p)


@dataclass(frozen=True)
class GroupOrders:
    """Order data of the full isometry group of a space.

    ``index_classes`` is the index of the derived subgroup in the full
    group: 1 in the symplectic case, 4 in the orthogonal case (2 for the
    degenerate one-dimensional orthogonal space).
    """

    full_order: int
    derived_order: int
    index_classes: int


def _witt_sign(space: FormSpace) -> int:
    """+1 for the hyperbolic (plus) type, -1 for the minus type, even dim."""
    m = space.dim // 2
    disc = (space.gram.det() * pow(-1, m, space.p)) % space.p
    return square_class(disc, space.p)


def _norm_class_size(space: FormSpace, c: int) -> int:
    """The number of vectors w of a symmetric space with Q(w) = c, for c != 0.

    Q(w) = w^T G w.  With eta the quadratic character (``square_class``),
    it is p^(2m) + eta((-1)^m c det G) p^m for n = 2m + 1, and
    p^(2m-1) - eta((-1)^m det G) p^(m-1) for n = 2m, which does not depend
    on c (Lidl-Niederreiter, Finite Fields, 1997, Theorems 6.26-6.27).
    """
    p, n = space.p, space.dim
    m = n // 2
    if n % 2:
        return p ** (2 * m) + square_class((-1) ** m * c * space.gram.det(), p) * p**m
    return p ** (2 * m - 1) - _witt_sign(space) * p ** (m - 1)


def isometry_group_orders(space: FormSpace) -> GroupOrders:
    """|Sp(V)| or |O(V)| together with the order of the derived subgroup."""
    p, n = _check_type(space, FormSpace, "space").p, space.dim
    if space.parity == "alternating":
        m = n // 2
        full = p ** (m * m)
        for i in range(1, m + 1):
            full *= p ** (2 * i) - 1
        return GroupOrders(full, full, 1)
    if n == 1:
        return GroupOrders(2, 1, 2)
    if n % 2 == 1:
        m = n // 2
        full = 2 * p ** (m * m)
        for i in range(1, m + 1):
            full *= p ** (2 * i) - 1
    else:
        m = n // 2
        eps = _witt_sign(space)
        full = 2 * p ** (m * (m - 1)) * (p**m - eps)
        for i in range(1, m):
            full *= p ** (2 * i) - 1
    return GroupOrders(full, full // 4, 4)


# the five subgroups of {+-1} x {+-1}, so every (det, theta) image has a class
_CLASS_BY_IMAGE = {
    frozenset({(1, 1)}): "Omega",
    frozenset({(1, 1), (-1, 1)}): "KerSpinor",
    frozenset({(1, 1), (-1, -1)}): "KerSpinorDet",
    frozenset({(1, 1), (1, -1)}): "SO",
    frozenset({(1, 1), (1, -1), (-1, 1), (-1, -1)}): "FullO",
}


def _det_spinor_image(gens: Sequence[Matrix], space: FormSpace) -> frozenset:
    """The subgroup of {+-1} x {+-1} generated by (determinant, spinor norm) of ``gens``."""
    image = {(1, 1)}
    for g in gens:
        # the caller knows g is an isometry, so its determinant is +-1
        theta = _spinor_norm(g, space)
        pair = (1 if g.det() == 1 else -1, theta)
        # close the image under the group law of {+-1} x {+-1}
        new = {(a * pair[0], b * pair[1]) for a, b in image}
        image |= new
    return frozenset(image)


def _order_bound(space: FormSpace, gens: Sequence[Matrix]) -> tuple[int, Optional[frozenset]]:
    """An upper bound on the order of a group of isometries of ``space``.

    |Sp(V)| for an alternating space.  For a symmetric one, |Omega| times the
    size of the image of (det, theta) on ``gens``, returned as well: G meets
    Omega = ker(det, theta) in a subgroup of index |image|.  The bound is
    attained exactly when G contains the derived subgroup.  The caller must
    know that every generator is an isometry.
    """
    orders = isometry_group_orders(space)
    if space.parity == "alternating":
        return orders.full_order, None
    image = _det_spinor_image(gens, space)
    return orders.derived_order * len(image), image


def derived_containment(
    gens: Sequence[Matrix], space: FormSpace, limit: int = 10**7
) -> tuple[bool, Optional[str]]:
    """Whether <gens> contains the derived subgroup of the isometry group, with its class.

    In the orthogonal case the derived subgroup is Omega = ker(det, theta),
    of index 4 in O(V) (index 2 in O(1), where it is trivial), with theta
    the spinor norm.  The quotient of G by its intersection with Omega is
    the image of (det, theta) on G, which the images of the generators
    generate, so G contains Omega exactly when |G| = |Omega| * |image|.  In
    the symplectic case the derived subgroup is taken to be Sp(V) itself,
    so the test is |G| = |Sp(V)|.  See Taylor, The Geometry of the
    Classical Groups (1992), ch. 11, and Kleidman-Liebeck, The Subgroup
    Structure of the Finite Classical Groups (1990), 2.5-2.6.

    The class of an orthogonal group that contains Omega is looked up from
    the same image: "Omega", "SO", "KerSpinor", "KerSpinorDet" or "FullO".
    It is None for symplectic groups and for groups that do not contain the
    derived subgroup.  A generator that is a transvection or a reflection
    can decide containment from the orbit of one vector, with no chain
    (see ``_derived_containment``); otherwise the order decides, from
    ``GeneratedGroup(gens, limit, bound)`` with the bound of
    ``_order_bound``, so a group that reaches it stops building early.  The
    identities hold only inside the isometry group, so a generator that is
    not an isometry raises NotAnIsometry.
    """
    _check_type(space, FormSpace, "space")
    gens = tuple(gens)
    # classify_element raises NotAnIsometry on a generator that is not one
    classes = [classify_element(g, space) for g in gens]
    return _derived_containment(gens, space, limit, classes)[:2]


def _witness(space: FormSpace, gens: Sequence[Matrix], classes: Sequence[ElementClass]) -> Optional[Matrix]:
    """The first generator whose vector orbit decides derived containment, or None.

    A transvection of an alternating space, or a reflection of a symmetric
    space of dimension n >= 5, or of dimension 3 or 4 over F_p with
    p >= 5, tagged so in ``classes``.  On these spaces a full witness
    orbit proves that G contains the derived subgroup (see
    ``_derived_containment``).  Symmetric spaces of dimension at most 2,
    and of dimension 3 or 4 over F_3, keep the chain: Omega(2, p) is
    abelian, and over F_3 the reflections of one norm class can generate
    a group that misses Omega.  The three reflections in an orthogonal
    basis of norm-1 vectors of F_3^3 generate a group of order 8, and
    |Omega(3, 3)| = 12; each norm class of O+(4, 3) generates one of order
    192, and |Omega+(4, 3)| = 288.  O-(4, 3), where Omega = PSL(2, 9) is
    simple, is settled by the same proof, but keeps the chain for a
    simpler rule.
    """
    if space.parity == "alternating":
        tag = TRANSVECTION
    elif space.dim >= 5 or (space.dim >= 3 and space.p >= 5):
        tag = REFLECTION
    else:
        return None
    return next((g for g, c in zip(gens, classes) if c.tag == tag), None)


def _derived_containment(
    gens: Sequence[Matrix], space: FormSpace, limit: int, classes: Sequence[ElementClass]
) -> tuple[bool, Optional[str], int]:
    """``derived_containment`` and |<gens>|, unchecked: every generator must be an isometry of ``space``.

    ``classes`` are the classes of the generators.  The witness is the
    generator ``_witness`` picks from them, or None: a transvection t_v,
    or a reflection r_v, with v a nonzero column of witness - 1.  Since
    g t_v g^-1 = t_gv and g r_v g^-1 = r_gv, G holds the transvection, or
    the reflection, of every vector in the orbit G v.
    Only one direction is used: a full orbit proves G contains the derived
    subgroup, and then |G| is the bound of ``_order_bound`` and no chain is
    built.  A shorter orbit, or no witness, leaves the decision to the
    order of the chain that the bound stops, so no transitivity claim is
    needed.

    Alternating space: when G v = V - 0, G holds every transvection of the
    parameter a of t_v.  They generate a normal subgroup of Sp(V) that is
    not central, which is Sp(V) wherever Sp(V) is perfect and simple
    modulo its centre, that is for Sp(V) other than Sp(2, 3).  Sp(2, 3) =
    SL(2, 3), whose normal subgroups are 1, {+-1}, Q_8 and SL(2, 3);
    transvections have order 3, so they generate SL(2, 3).

    Symmetric space: when G v is every w with Q(w) = c = Q(v), G holds
    the group N that the reflections of norm c generate.  N is normal in
    O(V), since g r_w g^-1 = r_gw and Q(gw) = Q(w).  N meets Omega in
    r_u r_w for u != +-w of norm c: it has determinant 1 and spinor norm
    c^2, a square, and it fixes <u, w>^perp pointwise, a space of dimension
    n - 2 >= 1, so it is neither 1 nor -1.  Then N contains Omega:
    - n >= 5: Omega is perfect and simple modulo its centre {+-1} cap
      Omega, so a normal subgroup of it not in the centre is Omega;
    - n = 3 or n = 4 of minus type, p >= 5: Omega(3, p) = PSL(2, p) and
      Omega-(4, p) = PSL(2, p^2) are simple;
    - n = 4 of plus type, p >= 5: Omega+(4, p) = SL(2, p) o SL(2, p).
      Modulo +-1 its only normal subgroups are 1, either factor and the
      whole group.  A reflection swaps the two factors and normalizes N cap
      Omega, so N cap Omega maps onto Omega / {+-1}.  Omega is perfect, so
      N cap Omega contains [Omega, Omega] = Omega.
    ``_witness`` picks a witness only on these spaces.  See Taylor, The
    Geometry of the Classical Groups (1992), ch. 8 and 11, and
    Kleidman-Liebeck, The Subgroup Structure of the Finite Classical Groups
    (1990), 2.9, for the small isomorphisms.  ``group_engine._orbit_reaches``
    walks the orbit, keeping only its frontier and which codes it has seen;
    like a chain, it raises ResourceLimit past ``limit`` vectors.
    """
    bound, image = _order_bound(space, gens)
    witness = _witness(space, gens, classes)
    if witness is None or not _witness_orbit_is_full(gens, space, witness, limit):
        order = GeneratedGroup(gens, limit, bound).order()
        if order != bound:
            return False, None, order
    return True, None if image is None else _CLASS_BY_IMAGE[image], bound


def _witness_orbit_is_full(gens: Sequence[Matrix], space: FormSpace, witness: Matrix, limit: int) -> bool:
    """Whether the orbit of the witness vector v is V - 0, or every w with Q(w) = Q(v)."""
    p, n = space.p, space.dim
    shift = (witness.array - np.eye(n, dtype=np.int64)) % p
    v = shift[:, np.flatnonzero(shift.any(axis=0))[0]]
    size = p**n - 1 if space.parity == "alternating" else _norm_class_size(space, space.q(v))
    return _orbit_reaches(gens, v, size, limit)
