"""Exact-arithmetic twisted and crossed-product cyclic homology over Q."""

from .algebra import (
    Algebra,
    AlgebraMap,
    FiniteGroupAction,
    algebra_tensor_basis,
    conjugacy_data,
    crossed_product,
    tensor_index,
    trivial_group,
    validate_action,
    validate_algebra,
)
from .complexes import (
    ChainComplexQ,
    HomologyResult,
    MixedComplex,
    homology,
    induced_on_homology,
    total_complex,
)
from .crossed import (
    beta_map,
    coinvariant_bicomplex,
    conjugacy_decomposition,
    connes_lambda_complex,
    full_pair_check,
    identity_suite,
    proposition_bicomplex,
    theorem_map_f,
)
from .errors import (
    AlgebraError,
    ActionError,
    ChainMapError,
    ComplexError,
    ParseError,
    ReducedBasisError,
    ThlError,
    ValidationError,
    WellDefinednessError,
)
from .quotient import QuotientPresentation, descend_map, quotient_by
from .sequences import (
    derham_d,
    derham_d_ambient,
    derham_homology,
    g_hochschild,
    karoubi_sequence,
    sbi_sequence,
)
from .sparse import QMatrix, image_basis, kernel_basis, rank
from .twisted import (
    HKBicomplex,
    TwistedOperators,
    connes_complex,
    cyclic_operator,
    twist_matrix,
    twisted_B,
    twisted_b,
    twisted_cyclic,
    twisted_hochschild,
)

__version__ = "0.1.0"
