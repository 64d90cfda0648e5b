"""Builders for the two packaged monodromy families.

``hyperelliptic_system`` produces the rank-2g tuple of the mod-p torsion
monodromy of a one-parameter hyperelliptic family: the quadratic
convolution of the rank-one tuple with monodromy -1 at each branch point.
Every finite local matrix is a symplectic transvection and the invariant
pairing is alternating.

``twist_family_system`` produces the quadratic-twist family over the base
curve with multiplicative locus {0, 1}: the base rank-2 tuple is twisted
by -1 at the roots of the twisting polynomial and convolved again.  The
invariant pairing is symmetric, with a reflection at each multiplicative
point and an isotropic shear at each root.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional, Sequence

from .classical_groups import (
    ElementClass,
    FormSpace,
    ISOTROPIC_SHEAR,
    REFLECTION,
    TRANSVECTION,
    classify_element,
    invariant_pairing,
)
from .convolution import Label, PuncturedTuple, middle_convolve, twist_quadratic
from .errors import BadLocus, FamilyCheckFailed, InvalidInput, NegativeDimension
from .ff_linalg import Matrix, invariant_forms, _check_integer, _check_modulus, _check_type

__all__ = [
    "MonodromySystem",
    "kummer_tuple",
    "hyperelliptic_system",
    "twist_family_system",
    "dim_formula",
]


@dataclass(frozen=True)
class MonodromySystem:
    """A punctured tuple with its discovered pairing and local taxonomy."""

    tuple: PuncturedTuple
    space: FormSpace
    classifications: tuple[ElementClass, ...]
    expected_dim: int

    @property
    def generators(self) -> tuple[Matrix, ...]:
        return self.tuple.matrices


def _family_space(out: PuncturedTuple, family: str, parity: str) -> FormSpace:
    """The invariant pairing of a family output: a line of forms, of the given parity."""
    forms = invariant_forms(out.matrices)
    if len(forms) != 1:
        raise FamilyCheckFailed(
            f"{family} invariant-form space has dimension {len(forms)}, expected 1"
        )
    space = invariant_pairing(forms)
    if space is None or space.parity != parity:
        raise FamilyCheckFailed(f"{family} pairing must be {parity}")
    return space


def kummer_tuple(points: Sequence[Label], p: int) -> PuncturedTuple:
    """Rank-one tuple with local monodromy -1 at each given point."""
    minus_one = Matrix([[p - 1]], p)
    points = list(_check_type(points, Iterable, "points"))
    if len(points) < 2:
        raise InvalidInput("need at least two points")
    return PuncturedTuple(points, [minus_one] * len(points))


def _default_branch_points(count: int, p: int) -> list[Label]:
    """Residues 0..count-1 while they fit, symbolic labels past that."""
    return [i if i < p else f"t{i}" for i in range(count)]


def hyperelliptic_system(
    genus: int, p: int, points: Optional[Sequence[Label]] = None
) -> MonodromySystem:
    """Monodromy of the genus-g family branched at 2g points plus a moving one.

    The output has rank 2g, a one-dimensional alternating invariant pairing,
    and a transvection at every finite puncture.
    """
    if _check_integer(genus, "genus") < 1:
        raise InvalidInput("genus must be >= 1")
    p = _check_modulus(p)
    if points is None:
        points = _default_branch_points(2 * genus, p)
    points = list(_check_type(points, Iterable, "points"))
    if len(points) != 2 * genus:
        raise InvalidInput(f"need exactly {2 * genus} branch points")
    base = kummer_tuple(points, p)
    out = middle_convolve(base, p - 1)
    if out.rank != 2 * genus:
        raise FamilyCheckFailed("convolution rank disagrees with 2g")
    space = _family_space(out, "hyperelliptic", "alternating")
    classes = tuple(classify_element(m, space) for m in out.matrices)
    if any(c.tag != TRANSVECTION for c in classes):
        raise FamilyCheckFailed("every finite local matrix must be a transvection")
    return MonodromySystem(out, space, classes, 2 * genus)


def twist_family_system(g_roots: Sequence[Label], p: int) -> MonodromySystem:
    """Quadratic twists of the rank-2 family with multiplicative locus {0, 1}.

    ``g_roots`` are the roots of the fixed part of the twisting polynomial;
    with d = len(g_roots) + 1 the output dimension is ``dim_formula`` of the
    reduction divisor on the genus-0 base: multiplicative locus {0, 1} and
    d + 1 additive points (the d roots and infinity) for even d, so 2d;
    multiplicative {0, 1, infinity} and the d roots additive for odd d, so
    2d - 1.  Classifications: Reflection at 0 and 1, IsotropicShear at every
    root.
    """
    if _check_modulus(p) < 5:
        raise InvalidInput(f"modulus must be a prime >= 5, got {p}")
    roots = list(_check_type(g_roots, Iterable, "g_roots"))
    if not roots:
        raise BadLocus("need at least one root (d >= 2)")
    if len(set(roots)) != len(roots):
        raise BadLocus("twist roots repeat")
    for lab in roots:
        if lab in (0, 1):
            raise BadLocus("twist roots must avoid the multiplicative locus {0, 1}")
    base = hyperelliptic_system(1, p, [0, 1]).tuple
    twisted = twist_quadratic(base, roots)
    out = middle_convolve(twisted, p - 1)
    d = len(roots) + 1
    expected = dim_formula(2, d + 1, 0) if d % 2 == 0 else dim_formula(3, d, 0)
    if out.rank != expected:
        raise FamilyCheckFailed(f"twist family rank {out.rank} != expected {expected}")
    space = _family_space(out, "twist-family", "symmetric")
    classes = tuple(classify_element(m, space) for m in out.matrices)
    for lab, cls in zip(out.punctures, classes):
        want = REFLECTION if lab in (0, 1) else ISOTROPIC_SHEAR
        if cls.tag != want:
            raise FamilyCheckFailed(f"puncture {lab} classified {cls.tag}, wanted {want}")
    return MonodromySystem(out, space, classes, expected)


def dim_formula(deg_m: int, deg_a: int, genus: int) -> int:
    """deg(M) + 2 deg(A) + 4 (genus - 1), rejecting the invalid regime."""
    for name, value in (("deg_m", deg_m), ("deg_a", deg_a), ("genus", genus)):
        _check_integer(value, name)
    if deg_m < 0 or deg_a < 0 or genus < 0:
        raise InvalidInput("degrees and genus must be non-negative")
    value = deg_m + 2 * deg_a + 4 * (genus - 1)
    if value < 0:
        raise NegativeDimension(f"dimension formula gave {value}")
    return value
