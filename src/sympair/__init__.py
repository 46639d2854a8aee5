"""Constacyclic codes over finite fields under the symbol-pair metric.

Exact minimum Hamming / symbol-pair distance certification, distance
bounds (pair-Singleton, constacyclic pair floors, the repeated-root
product formula, BCH and Hartmann-Tzeng), constructors for four MDS
symbol-pair families, and a small-parameter search.

>>> import sympair
>>> code = sympair.mds_3p_6(5, "full").code
>>> sympair.min_pair_distance(code).value
6
"""

from ._version import __version__
from .errors import BudgetExceededError, SymPairError
from . import errors
from .gf import (
    Field,
    extension_field,
    nth_roots_of_unity,
    prime_field,
    primitive_cube_root,
    primitive_element,
    primitive_root_of_unity,
)
from .poly import (
    CyclotomicCoset,
    Factorization,
    Poly,
    binomial,
    cyclotomic_coset,
    cyclotomic_cosets,
    factor,
    is_irreducible,
    minimal_polynomial,
    multiplicative_order_mod,
    multiplicity,
    poly_gcd,
)
from .code import (
    ConstacyclicCode,
    DistanceResult,
    as_word,
    constacyclic_shift,
    divisor_codes,
    hamming_distance,
    hamming_weight,
    min_hamming_distance,
    min_pair_distance,
    pair_distance,
    pair_read_vector,
    pair_weight,
)
from .bounds import (
    INF,
    BoundReport,
    CastagnoliTerm,
    PairDistanceFloor,
    RepeatedRootPairFloor,
    RepeatedRootShape,
    bch_bound,
    bound_report,
    castagnoli_details,
    castagnoli_distance,
    hartmann_tzeng_bound,
    pair_distance_floor,
    radix_p_product,
    repeated_root_pair_floor,
    repeated_root_shape,
    residue_code,
    singleton_pair_max,
)
from .constructions import (
    ConstructionResult,
    FamilySpec,
    SearchEntry,
    mds_3p_6,
    mds_3p_7,
    mds_3p_8,
    mds_n_6,
    search_optimal_cyclic,
)
from .report import (
    AnalysisReport,
    analyze,
    code_from_spec_dict,
    code_spec_dict,
    load_code_spec,
    save_code_spec,
)
from .verify import CheckResult, run_checks

__all__ = [
    "__version__",
    # errors
    "errors", "SymPairError", "BudgetExceededError",
    # fields
    "Field", "prime_field", "extension_field", "primitive_element",
    "nth_roots_of_unity", "primitive_root_of_unity", "primitive_cube_root",
    # polynomials
    "Poly", "Factorization", "CyclotomicCoset", "binomial", "factor",
    "multiplicity", "poly_gcd", "is_irreducible", "minimal_polynomial",
    "cyclotomic_coset", "cyclotomic_cosets", "multiplicative_order_mod",
    # codes and the pair metric
    "ConstacyclicCode", "DistanceResult", "as_word", "constacyclic_shift",
    "divisor_codes",
    "hamming_weight", "hamming_distance", "pair_read_vector", "pair_weight",
    "pair_distance", "min_hamming_distance", "min_pair_distance",
    # bounds
    "INF", "BoundReport", "PairDistanceFloor", "RepeatedRootPairFloor",
    "RepeatedRootShape", "CastagnoliTerm", "singleton_pair_max",
    "pair_distance_floor", "repeated_root_pair_floor", "repeated_root_shape",
    "residue_code", "radix_p_product", "castagnoli_distance",
    "castagnoli_details", "bch_bound", "hartmann_tzeng_bound", "bound_report",
    # constructions
    "FamilySpec", "ConstructionResult", "SearchEntry",
    "mds_3p_7", "mds_3p_8", "mds_3p_6", "mds_n_6", "search_optimal_cyclic",
    # reports
    "AnalysisReport", "analyze", "load_code_spec", "save_code_spec",
    "code_spec_dict", "code_from_spec_dict",
    # verification
    "CheckResult", "run_checks",
]
