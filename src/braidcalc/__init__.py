"""braidcalc: exact verification of braided Hopf-algebra data and
first-order differential calculi, by structure constants over Q(i)."""

__version__ = "0.1.0"

from .algebras import FiniteDimAlgebra, check_algebra, multiply
from .bicovariance import (
    check_bicovariance,
    check_kappa0,
    check_kappa_covariance,
    ideal_bicovariance_test,
    kappa_iff_bicovariant,
    right_action_from_ad,
)
from .bundles import Bundle, ParseError, bundle_digest, emit_bundle, emit_report, parse_bundle
from .calculi import (
    FirstOrderCalculus,
    FlipOver,
    check_calculus,
    check_flip_identities,
    check_multi_covariance,
    flip_tau_from_sigma,
    iota_l,
    iota_r,
    solve_flip,
    solve_flips,
)
from .covariance import (
    LeftCovariantData,
    RightCovariantData,
    calculi_isomorphic,
    close_left_ideal,
    close_right_ideal,
    extract_ideal,
    flip_from_actions,
    left_trivialization,
    reconstruct_from_ideal,
    reconstruct_right_from_ideal,
    right_trivialization,
    solve_left_action,
    solve_right_action,
    universal_ideals,
)
from .groups import (
    BraidSystem,
    MultiBraidedGroup,
    adjoint_action,
    check_braid_system,
    check_group,
    complete_braid_system,
    derive_tau,
    explore_antipode_shifts,
    kappa0,
    simplified_algebra,
)
from .linalg import (
    AntilinMap,
    DimensionMismatch,
    LinMap,
    NoFactor,
    NotInvertible,
    Subspace,
    compose,
    factor_through,
    identity,
    permutation_map,
    quotient,
    tensor,
)
from .reporting import Entry, Report
from .scalars import Q, ScalarParseError
from .star import StarGroup, check_star_flip_compat, check_star_group, star_covariance
from .verify import run_covariance_mode, verify_bundle
