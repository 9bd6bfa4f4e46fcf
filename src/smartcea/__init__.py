"""Cost-effectiveness estimation for embedded regimes in two-stage SMARTs.

The library estimates regime-specific mean costs and effects by inverse
probability weighting and by longitudinal targeted maximum likelihood,
turns them into incremental cost-effectiveness ratios with influence-curve
and bootstrap inference, and ships a benchmark generative process plus a
repeated-simulation harness for estimator comparison.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .cea import (
    EmptyFrontier,
    Frontier,
    PlanePoint,
    efficient_frontier,
    render_plane_svg,
)
from .core import (
    Dataset,
    EstimateWithIC,
    EstimationFailure,
    RegimeSpec,
    consistency_mask,
)
from .dgp import (
    DgpConfig,
    TruthTable,
    embedded_regimes,
    simulate_smart,
    simulate_trials,
    true_values,
)
from .estimate import (
    FluctuationDiverged,
    GModel,
    RegimeMeanRequest,
    ZeroSupport,
    estimate_g,
    ipw_mean,
    regime_mean,
    tmle_mean,
)
from .glm import RankDeficient, SeparationDetected
from .inference import (
    BootstrapResult,
    DegenerateDenominator,
    IcerResult,
    TooManyDegenerate,
    bootstrap_ci,
    contrast,
    delta_method_ic,
    icer,
    risk_difference,
    wald_ci,
)
from .study import (
    StudyConfig,
    StudyMetrics,
    StudyResult,
    icer_table,
    regime_means,
    run_study,
)

__all__ = [
    "__version__",
    "BootstrapResult",
    "Dataset",
    "DegenerateDenominator",
    "DgpConfig",
    "EmptyFrontier",
    "EstimateWithIC",
    "EstimationFailure",
    "FluctuationDiverged",
    "Frontier",
    "GModel",
    "IcerResult",
    "PlanePoint",
    "RankDeficient",
    "RegimeMeanRequest",
    "RegimeSpec",
    "SeparationDetected",
    "StudyConfig",
    "StudyMetrics",
    "StudyResult",
    "TooManyDegenerate",
    "TruthTable",
    "ZeroSupport",
    "bootstrap_ci",
    "consistency_mask",
    "contrast",
    "delta_method_ic",
    "efficient_frontier",
    "embedded_regimes",
    "estimate_g",
    "icer",
    "icer_table",
    "ipw_mean",
    "regime_mean",
    "regime_means",
    "render_plane_svg",
    "risk_difference",
    "run_study",
    "simulate_smart",
    "simulate_trials",
    "tmle_mean",
    "true_values",
    "wald_ci",
]
