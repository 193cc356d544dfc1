"""tritail: heavy-tail analysis of triangular bivariate stochastic recursions.

Simulates the recursion W_t = A_t W_{t-1} + B_t with upper-triangular positive
coefficient matrices, solves the moment equations for the two tail indices,
estimates Kesten/renewal-type tail constants in both dominance regimes,
cross-validates angular measures and forward spectral limits, and specializes
everything to the CCC-GARCH(1,1) volatility model — all behind deterministic,
worker-count-independent pipelines.
"""

from .config import ExperimentConfig, canonical_json, load_config, parse_config
from .engine import (
    LyapunovEstimate,
    PathSample,
    SimConfig,
    backward_truncated,
    lyapunov_estimate,
    stationary_sample,
    triangular_opnorm,
)
from .errors import (
    ConfigInvalid,
    DegenerateTail,
    DivergentBeforeRoot,
    DivergentMoment,
    EmptyTail,
    NoPositiveRoot,
    NonFiniteState,
    NonPositiveM,
    NotContracting,
    PipelineMismatch,
    RegimeMismatch,
    TauNotContracting,
    TooFewExceedances,
    TritailError,
)
from .garch import (
    GarchLaw,
    GarchParams,
    GarchPath,
    return_spectral_check,
    stationary_garch_sample,
    to_sre_coefficients,
    verify_tail_relations,
)
from .laws import (
    ChiSqAffine,
    CoeffDraw,
    CoefficientLaw,
    Constant,
    IndependentLaw,
    LogNormal,
    MomentValue,
    ParetoLomax,
    RegimeReport,
    ScaledUniformPow,
    StationarityReport,
    TailIndexSolution,
    check_stationarity,
    classify_regime,
    log_moment,
    log_weighted_moment,
    moment,
    solve_tail_index,
)
from .pipelines import RunReport, compare_reports, run
from .records import ResultRecord
from .renewal import (
    RenewalConstant,
    SeriesWeightBounds,
    SeriesWeightEstimate,
    coupled_component_constant,
    first_component_constant,
    series_weight,
    series_weight_bounds,
    series_weights,
    univariate_constant,
)
from .spectral import (
    AngularSample,
    SpectralProcessSample,
    angular_ks,
    angular_measure_threshold,
    componentwise_spectral,
    conditional_exceedance_windows,
    spectral_process_draws,
    unit_pareto,
    window_angles,
)
from .streams import substream
from .tailstats import (
    TailConstantEstimate,
    TailEstimate,
    default_hill_k,
    hill,
    ks_2sample,
    ks_distance,
    tail_constant,
)

__version__ = "0.1.0"
