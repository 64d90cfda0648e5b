"""Monodromy of matrix tuples over prime fields.

Middle convolution on punctured tuples, element taxonomy in symplectic and
orthogonal groups, exact group computation, and certificates of big
monodromy with exact cross-validation.
"""

from .errors import (
    BadLocus,
    DegenerateQuotient,
    FamilyCheckFailed,
    Inconclusive,
    InvalidInput,
    MonodromyError,
    NegativeDimension,
    NonSplitSpectrum,
    NotAnIsometry,
    NotInCategory,
    OrderOverflow,
    ResourceLimit,
)
from .ff_linalg import (
    JordanData,
    Matrix,
    Subspace,
    invariant_forms,
    is_prime,
    jordan_type,
    kernel,
    random_invertible,
)
from .classical_groups import (
    ElementClass,
    FormSpace,
    GroupOrders,
    classify_element,
    derived_containment,
    invariant_pairing,
    is_isometry,
    isometry_group_orders,
    random_isometry,
    reflection,
    siegel_shear,
    spinor_norm,
    transvection,
)
from .group_engine import (
    GeneratedGroup,
    IrreducibilityReport,
    element_order,
    group_order,
    is_irreducible,
)
from .convolution import (
    PuncturedTuple,
    map_local_jordan,
    middle_convolve,
    predict_rank,
    twist_quadratic,
)
from .families import (
    MonodromySystem,
    dim_formula,
    hyperelliptic_system,
    kummer_tuple,
    twist_family_system,
)
from .certifier import (
    Certificate,
    CheckResult,
    Conclusion,
    CrossReport,
    Hypotheses,
    ProbeWitness,
    certify,
    commutator_probe,
    cross_validate,
)

__version__ = "0.1.0"
