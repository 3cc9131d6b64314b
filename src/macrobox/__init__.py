"""Exact simulation of collective measurements on ensembles of no-signalling boxes.

Everything downstream of a pair box is computed in exact rational
arithmetic: build a box (:func:`make_pr_box`, :func:`make_isotropic_box`,
:func:`make_deterministic_box`), lift it to an N-pair model
(:func:`independent_pairs` or :func:`explicit_joint`), then ask for
effective distributions, symmetric JPDs, macroscopic moments, the exact
distribution of the collective sums (with its brute-force oracle), or
the conditional-variance / correlation-matrix quantities.  The
``macrobox`` CLI exposes the same operations.
"""

from .boxes import (
    ALICE,
    BOB,
    MINUS,
    OUTCOMES,
    PLUS,
    PairBox,
    ValidationReport,
    Violation,
    as_rational,
    chsh_value,
    make_deterministic_box,
    make_isotropic_box,
    make_pr_box,
    outcome_from_symbol,
    outcome_symbol,
    pair_correlation,
    rational_to_str,
    validate_pairbox,
)
from .ensemble import (
    EnsembleModel,
    ExplicitJoint,
    IndependentPairs,
    OutcomeAssignment,
    SettingAssignment,
    check_no_signalling,
    explicit_joint,
    explicit_joint_from_json,
    independent_pairs,
    marginal,
    marginal_correlator,
)
from .errors import (
    ConstructionError,
    DomainError,
    MacroboxError,
    PathDisagreementError,
    SignallingError,
    UnsupportedExtensionError,
)
from .macro import (
    GisinMatrix,
    MacroDistribution,
    MomentReport,
    gisin_matrix,
    jacobi_eigenvalues,
    macro_average,
    macro_correlation,
    macro_distribution,
    macro_distribution_bruteforce,
    macro_joint_second_moment,
    macro_local_second_moment,
    macro_moment_general,
    moment_report,
    odd_multiplicity_counts,
    rohrlich_conditional_variance,
)
from .symmetry import (
    JPDValidityReport,
    QuadDistribution,
    SymmetricJPD,
    effective_correlator,
    effective_pair,
    effective_quad,
    format_event,
    jpd_averages,
    jpd_fluctuations,
    jpd_general,
    jpd_marginal,
    jpd_validity,
    parse_event,
    pr_averages_high_events,
    pr_averages_jpd_closed_form,
    pr_averages_jpd_values,
    pr_effective_pair_probability,
    pr_quad_class,
    pr_quad_correlator,
    pr_quad_values,
)

__version__ = "0.1.0"
