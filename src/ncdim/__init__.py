"""Growth, global dimension, and Hilbert series of algebras presented by
finite noncommutative Groebner bases, plus the Rees algebra of the degree
filtration.  All arithmetic is exact (rational coefficients, integer series).
"""

from .chains import (
    ChainGraph,
    ChainSets,
    HilbertSeries,
    Invariants,
    build_chain_graph,
    chain_sets,
    hilbert_series,
    product_form_decomposition,
)
from .errors import (
    CrossCheckError,
    GroebnerVerificationError,
    InputError,
    NcdimError,
    ParseError,
)
from .freealg import (
    Alphabet,
    MonomialOrder,
    Poly,
    leading_data,
    leading_homogeneous,
    parse_polynomial,
)
from .growth import (
    GrowthClass,
    UfnarovskiGraph,
    automaton_growth,
    build_ufnarovski,
)
from .pipeline import (
    AnalysisReport,
    analyze,
    load_presentation,
    load_presentation_data,
    pbw_check,
    render_report,
    report_to_dict,
)
from .rees import (
    check_transfer,
    extend_alphabet,
    homogenize,
    rees_invariants,
    tilde_basis,
)
from .rewrite import (
    GroebnerBasis,
    MonomialSet,
    OverlapAmbiguity,
    VerificationResult,
    ensure_verified,
    normal_form,
    overlap_ambiguities,
    verify_groebner,
)

__version__ = "0.1.0"
