"""banddim: covers, band operators, and completely positive approximation
witnesses on finite metric spaces.

The package realizes, at desk scale, both constructive directions relating
colored covers of a finite metric space to factored approximations of its
finite-propagation operator algebra: covers produce witnesses (compression /
inclusion map pairs through a finite-dimensional algebra with fiber), and
witnesses are thresholded, decomposed into partial translations, and turned
back into verified covers with a uniform class-size bound.
"""

__version__ = "0.1.0"

from .cover import ColoredCover, CoverReport, brick_cover, min_colors_search, verify_cover
from .cpmaps import (BandAlgebra, CompressionMap, InclusionMap, OrderZeroFactorization,
                     bump_function, choi_check, cop_check, factorize_order_zero,
                     functional_calculus, order_zero_check)
from .extract import (EdgeDecomposition, ExtractedCover, PartialTranslationSystem,
                      ThresholdData, build_translation_system, decompose_neighbors,
                      extract_cover, matrix_unit_identities, threshold_setup)
from .fdalg import FdElement, FiniteDimAlgebra, Summand
from .operators import (BandOperator, diagonal_membership, normalizer_check,
                        operator_norm, prop_support)
from .space import FiniteMetricSpace, enlarge, generate_space, ulf_profile
from .witness import (DiagDimWitness, HatPair, build_upper_witness, check_witness,
                      hat_normalize, load_witness, permanence_combine, save_witness)

__all__ = [
    "BandAlgebra", "BandOperator", "ColoredCover", "CompressionMap", "CoverReport",
    "DiagDimWitness", "EdgeDecomposition", "ExtractedCover", "FdElement",
    "FiniteDimAlgebra", "FiniteMetricSpace", "HatPair", "InclusionMap",
    "OrderZeroFactorization", "PartialTranslationSystem", "Summand", "ThresholdData",
    "brick_cover", "build_translation_system", "build_upper_witness", "bump_function",
    "check_witness", "choi_check", "cop_check", "decompose_neighbors",
    "diagonal_membership", "enlarge", "extract_cover", "factorize_order_zero",
    "functional_calculus", "generate_space", "hat_normalize", "load_witness",
    "matrix_unit_identities", "min_colors_search", "normalizer_check", "operator_norm",
    "order_zero_check", "permanence_combine", "prop_support", "save_witness",
    "threshold_setup", "ulf_profile", "verify_cover",
]
