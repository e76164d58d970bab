"""Forecasting intraday return curves, with intraday dynamic updating.

The pipeline: convert daily price paths into cumulative intraday
log-return curves, decompose them into a small number of orthonormal
components, model the component scores as a vector autoregression,
bootstrap that model to get day-ahead prediction intervals and uniform
bands, and refine the forecast during the trading day as new points
arrive.
"""

from types import ModuleType as _ModuleType

from .errors import ConfigError, CurvecastError, DataError, NumericalError
from .gridcurves import (
    FunctionalTimeSeries,
    IntradayGrid,
    PriceMatrix,
    cidr_transform,
    ingest_price_matrix,
    interpolate_missing,
    inverse_cidr,
    read_price_csv,
    write_wide_csv,
)
from .fpca import (
    FpcaModel,
    fit_fpca,
    model_to_json,
    reconstruct,
    select_num_components,
    weighted_pca,
)
from .varmodel import (
    VarModel,
    aicc,
    backward_innovation_transfer,
    companion_spectral_radius,
    fit_var,
    forecast_scores,
    select_order,
)
from .sieve import (
    BootstrapConfig,
    SieveForecast,
    SieveReplicates,
    derive_seed,
    draw_replicates,
    empirical_quantile,
    far1_fit,
    forecast_to_json,
    future_curves,
    sieve_prediction,
    write_forecast_csv,
)
from .updating import (
    DEFAULT_LAMBDA_GRID,
    FlrModel,
    LambdaSchedule,
    UpdateContext,
    build_update_context,
    flr_fit,
    flr_interval_update,
    flr_update,
    observed_columns,
    ols_update,
    pls_coefficients,
    pls_interval_update,
    pls_update,
    schedule_from_json,
    schedule_to_json,
    shrinkage_objective,
    tune_lambda,
    updating_columns,
)
from .evalharness import (
    BacktestPlan,
    MetricReport,
    ecp,
    interval_score,
    msfe,
    plan_hash,
    plan_to_dict,
    report_from_json,
    report_to_json,
    run_backtest,
    validate_plan,
    write_report_csvs,
)
from .datagen import SynthSpec, SynthTruth, generate, orthonormal_basis

__version__ = "0.1.0"

#: every name bound above that is not a submodule; declared once, by the imports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
