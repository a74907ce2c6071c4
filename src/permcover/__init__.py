"""permcover: covers of S_n by (n+1)-permutations.

Library + CLI for computing exact and randomized covers, auditing the
joint-coverage structure of the pattern/cover incidence, and probing the
random-selection coverage threshold with Poisson-approximation
diagnostics.
"""
from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("permcover")
except PackageNotFoundError:  # pragma: no cover - running from a source tree
    __version__ = "0.1.0"

from ._kernels import BACKEND
from .cover import (
    BoundTable,
    CoverCertificate,
    VerifyResult,
    alteration_cover,
    alteration_upper_bound,
    exact_min_cover,
    exhaustive_min_cover_size,
    expected_uncovered_without_replacement,
    greedy_cover,
    lambda_cover,
    multicover_upper_bound,
    pigeonhole_lower_bound,
    verify_cover,
)
from .errors import ResourceLimitError
from .graph import (
    CoverageGraph,
    JointReport,
    PermSetBitmap,
    audit_joint_coverage,
    build_graph,
    covers_per_pattern,
)
from .perms import (
    Permutation,
    covers,
    delete_at,
    format_perm,
    parse_perm,
    rank,
    standardize,
    successions,
    symmetry,
    unrank,
)
from .threshold import (
    GapReport,
    SweepReport,
    count_uncovered,
    critical_window_p,
    exact_mean,
    exact_variance,
    gap_experiment,
    mc_cover_probability,
    p_for_mean,
    poisson_pmf,
    sample_selection,
    stein_chen_bound,
    stein_chen_raw,
    threshold_boundaries,
    threshold_sweep,
    trial_rng,
    tv_distance,
)

__all__ = [
    "BACKEND",
    "BoundTable",
    "CoverCertificate",
    "CoverageGraph",
    "GapReport",
    "JointReport",
    "PermSetBitmap",
    "Permutation",
    "ResourceLimitError",
    "SweepReport",
    "VerifyResult",
    "alteration_cover",
    "alteration_upper_bound",
    "audit_joint_coverage",
    "build_graph",
    "count_uncovered",
    "covers",
    "covers_per_pattern",
    "critical_window_p",
    "delete_at",
    "exact_mean",
    "exact_min_cover",
    "exact_variance",
    "exhaustive_min_cover_size",
    "expected_uncovered_without_replacement",
    "format_perm",
    "gap_experiment",
    "greedy_cover",
    "lambda_cover",
    "mc_cover_probability",
    "multicover_upper_bound",
    "p_for_mean",
    "parse_perm",
    "pigeonhole_lower_bound",
    "poisson_pmf",
    "rank",
    "sample_selection",
    "standardize",
    "stein_chen_bound",
    "stein_chen_raw",
    "successions",
    "symmetry",
    "threshold_boundaries",
    "threshold_sweep",
    "trial_rng",
    "tv_distance",
    "unrank",
    "verify_cover",
]
