"""Curvature operator of the second kind on model spaces and products:
construction, spectra, fractional nonnegativity classification, and
rigidity-threshold verification."""

from .curvature import (
    ComplexStructure,
    CurvatureTensor,
    constant_holomorphic,
    constant_sectional,
    einstein_constant,
    flat_tensor,
    kahler_model_tensor,
    kahler_space_form,
    product,
    random_curvature,
    random_kahler_curvature,
    ricci,
    scalar,
    space_form,
    standard_complex_structure,
)
from .descriptors import (
    DescriptorError,
    ManifoldDescriptor,
    build_tensor,
    closed_form_clusters,
    descriptor_to_obj,
    parse_descriptor,
)
from .errors import ConvergenceError, InvalidInputError
from .numerics import (
    cluster_spectrum,
    eigensolve,
    seeded_stream,
)
from .operator2k import (
    OracleResult,
    Spectrum,
    alpha_sum,
    bruteforce_min_alpha_sum,
    classify,
    negate_spectrum,
    nonneg_threshold,
    nonpos_threshold,
    operator_matrix,
    spectrum,
    spectrum_from_eigenvalues,
    verdict,
)
from .rigidity import (
    HarnessReport,
    a_const,
    b_const,
    check_rigidity,
    f_lemma,
    verify_product_structure,
)
from .sym2 import (
    Sym2Basis,
    empty_basis,
    product_adapted_basis,
    standard_basis,
    sym2_dim,
    sym_product,
)

__version__ = "0.1.0"
