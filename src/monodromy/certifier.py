"""Big-monodromy certificates and their exact cross-validation.

``certify`` evaluates the generator criterion on a hypothesis set: bounded
drops, orders prime to (r+1)! or pseudoreflection off the exempt subset, a
cardinality bound on the exempt subset, irreducibility, and the presence
of the witness element (a transvection in the alternating case, a
reflection and an isotropic shear in the symmetric case).  A full pass
certifies that the generated group contains the derived subgroup of the
isometry group.  ``cross_validate`` recomputes the subgroup exactly and
reports agreement; the criterion is sufficient but not necessary, so
"NotCertified but exactly big" is fine while the converse is a soundness
failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .classical_groups import (
    ElementClass,
    FormSpace,
    ISOTROPIC_SHEAR,
    REFLECTION,
    TRANSVECTION,
    classify_element,
    _derived_containment,
    _witness,
)
from .errors import InvalidInput, OrderOverflow, ResourceLimit
from .ff_linalg import Matrix, _check_integer, _check_type, _least_factor
from .group_engine import element_order, is_irreducible

__all__ = [
    "Hypotheses",
    "CheckResult",
    "Conclusion",
    "Certificate",
    "CrossReport",
    "certify",
    "cross_validate",
]


@dataclass(frozen=True)
class Hypotheses:
    """A generator set with its exempt subset and drop bound.

    Every generator must be an isometry of ``space``; the constructor
    checks this once, by classifying each one, and keeps the classes.
    Everything that takes a ``Hypotheses`` relies on that check and does
    not repeat it.
    """

    space: FormSpace
    generators: tuple[Matrix, ...]
    s0: frozenset[int] = frozenset()
    r: int = 1
    classes: tuple[ElementClass, ...] = field(init=False, compare=False)

    def __post_init__(self):
        _check_type(self.space, FormSpace, "space")
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "s0", frozenset(self.s0))
        if not self.generators:
            raise InvalidInput("need at least one generator")
        _check_integer(self.r, "r", least=1)
        for i in self.s0:
            if not isinstance(i, (int, np.integer)) or not 0 <= i < len(self.generators):
                raise InvalidInput(f"exempt index {i!r} is not an integer in range({len(self.generators)})")
        # classify_element raises NotAnIsometry on a generator of another
        # modulus or size, or one that does not preserve the pairing
        classes = tuple(classify_element(g, self.space) for g in self.generators)
        object.__setattr__(self, "classes", classes)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Conclusion:
    kind: str  # "FullSp" | "OrthogonalBig" | "NotCertified"
    refinement: Optional[str] = None  # orthogonal subgroup class, when known
    reason: Optional[str] = None  # first failing check, when NotCertified

    def __str__(self) -> str:
        if self.kind == "NotCertified":
            return f"NotCertified({self.reason})"
        if self.kind == "OrthogonalBig" and self.refinement not in (None, "unrefined"):
            return f"OrthogonalBig({self.refinement})"
        return self.kind


@dataclass(frozen=True)
class Certificate:
    checks: tuple[CheckResult, ...]
    conclusion: Conclusion

    @property
    def certified(self) -> bool:
        return self.conclusion.kind != "NotCertified"


# the largest k whose k! has at most 4300 digits, Python's default limit on
# int-to-str conversion; the report names larger factorials as "(k)!"
_FACTORIAL_DIGITS_MAX = 1558


def _has_prime_factor_at_most(m: int, k: int) -> bool:
    """Whether the positive integer m has a prime factor <= k, that is gcd(m, k!) != 1.

    If no d <= k with d^2 <= m divides m, then m > k or m is 1 or a prime;
    so m has a prime factor <= k exactly when its least factor f has 1 < f <= k.
    """
    return 1 < _least_factor(m, k) <= k


def certify(h: Hypotheses) -> Certificate:
    """Evaluate the generator criterion and return the certificate.

    Witness elements are only searched among the generators themselves,
    never among products; the packaged family systems always expose them as
    inertia generators, and a missing witness comes back as
    NotCertified(no-witness) rather than a group search.  An orthogonal
    certificate is left "unrefined"; ``cross_validate`` fills in the exact
    subgroup class.  When ``is_irreducible`` cannot decide (ResourceLimit:
    too many lines and no generator of drop one), the irreducibility check
    fails with the error as its detail.
    """
    space = _check_type(h, Hypotheses, "h").space
    checks: list[CheckResult] = []
    classes = h.classes
    symmetric = space.parity == "symmetric"

    min_prime = 5 if symmetric else 3
    checks.append(
        CheckResult(
            "prime_bound",
            space.p >= min_prime,
            f"p={space.p} needs >= {min_prime} for {space.parity} spaces",
        )
    )

    try:
        report = is_irreducible(h.generators)
        checks.append(
            CheckResult(
                "irreducibility",
                report.irreducible,
                f"method={report.method}"
                + ("" if report.irreducible else f" witness_dim={report.witness.dim}"),
            )
        )
    except ResourceLimit as exc:
        checks.append(CheckResult("irreducibility", False, f"undecided: {exc}"))

    drops = [c.drop for c in classes]
    checks.append(
        CheckResult(
            "drop_bound",
            all(d <= h.r for d in drops),
            f"max_drop={max(drops)} r={h.r}",
        )
    )

    k = h.r + 1
    bad = []
    for i, (g, cls) in enumerate(zip(h.generators, classes)):
        if i in h.s0:
            continue
        if cls.tag in (REFLECTION, TRANSVECTION):
            continue
        try:
            order = element_order(g)
        except OrderOverflow:
            bad.append(f"{i}:order-overflow")
            continue
        if _has_prime_factor_at_most(order, k):  # gcd(order, (r+1)!) != 1
            bad.append(f"{i}:order={order}")
    factorial = math.factorial(k) if k <= _FACTORIAL_DIGITS_MAX else f"({k})!"
    checks.append(
        CheckResult(
            "order_or_pseudoreflection",
            not bad,
            f"(r+1)!={factorial}" + (f" offenders={','.join(bad)}" if bad else ""),
        )
    )

    checks.append(
        CheckResult(
            "exempt_bound",
            2 * (h.r + 1) * len(h.s0) <= space.dim,
            f"2(r+1)|S0|={2 * (h.r + 1) * len(h.s0)} dim={space.dim}",
        )
    )

    tags = {c.tag for c in classes}
    if symmetric:
        ok = REFLECTION in tags and ISOTROPIC_SHEAR in tags
        detail = "generators only; need a reflection and an isotropic shear"
    else:
        ok = TRANSVECTION in tags
        detail = "generators only; need a transvection"
    checks.append(CheckResult("witness_elements", ok, detail))

    failed = [c for c in checks if not c.passed]
    if failed:
        conclusion = Conclusion("NotCertified", reason=failed[0].name)
    elif symmetric:
        conclusion = Conclusion("OrthogonalBig", refinement="unrefined")
    else:
        conclusion = Conclusion("FullSp")
    return Certificate(tuple(checks), conclusion)


@dataclass(frozen=True)
class CrossReport:
    certificate: Certificate
    exact_order: int
    exact_contains_derived: bool
    exact_class: Optional[str]
    agreement: bool


def cross_validate(h: Hypotheses, limit: int = 10**7) -> CrossReport:
    """Exact subgroup computation set against the certificate.

    Disagreement means the certificate claimed big monodromy and the exact
    computation refutes it; a NotCertified certificate never disagrees (the
    criterion is sufficient, not necessary).  A certified group agrees
    exactly when it contains the derived subgroup: an orthogonal
    certificate needs a generator tagged Reflection, of determinant -1, so
    a certified orthogonal group that contains Omega has class FullO,
    KerSpinor or KerSpinorDet.
    """
    witness = _witness(_check_type(h, Hypotheses, "h").space, h.generators, h.classes)
    derived, exact_class, exact_order = _derived_containment(h.generators, h.space, limit, witness)
    cert = certify(h)
    if exact_class is not None and cert.conclusion.kind == "OrthogonalBig":
        cert = replace(cert, conclusion=replace(cert.conclusion, refinement=exact_class))

    agreement = not cert.certified or derived
    return CrossReport(cert, exact_order, derived, exact_class, agreement)
