"""Experiments: scenarios, sweeps and the paper's artifacts.

One scenario runs through :func:`repro.harness.run`; this package builds
scenarios, sweeps them, and turns the results into the paper's tables.
"""

from .metrics import (
    FaultRecovery,
    MeanStd,
    RunResult,
    aggregate_lifetimes,
    aggregate_values,
    recovery_after_faults,
    recovery_extras,
)
from .paper import (
    BASELINE_FAILURE_RATE,
    DEPLOYMENT_NUMBERS,
    FAILURE_RATES,
    bench_processes,
    bench_seeds,
    deployment_scenarios,
    failure_scenarios,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
    fig13_rows,
    fig14_rows,
    get_deployment_results,
    get_failure_results,
    table1_rows,
)
from .report import render_report, sparkline, timeline_chart
from .robustness import (
    ROBUSTNESS_POPULATION,
    ROBUSTNESS_REGIMES,
    get_robustness_results,
    robustness_rows,
    robustness_scenarios,
)
from .serialize import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
    scenario_from_dict,
    scenario_to_dict,
)
from .scenario import Scenario
from .sweep import (
    RetryPolicy,
    RunError,
    SweepError,
    WarmStart,
    expand_protocols,
    expand_seeds,
    group_by,
    run_sweep,
)
from .tables import fmt, format_series, format_table
from .telemetry import SWEEP_MANIFEST_SCHEMA, SweepTelemetry

__all__ = [
    "Scenario",
    "RunResult",
    "MeanStd",
    "aggregate_values",
    "aggregate_lifetimes",
    "expand_seeds",
    "expand_protocols",
    "run_sweep",
    "group_by",
    "RetryPolicy",
    "RunError",
    "SweepError",
    "WarmStart",
    "SweepTelemetry",
    "SWEEP_MANIFEST_SCHEMA",
    "FaultRecovery",
    "recovery_after_faults",
    "recovery_extras",
    "ROBUSTNESS_POPULATION",
    "ROBUSTNESS_REGIMES",
    "robustness_scenarios",
    "get_robustness_results",
    "robustness_rows",
    "format_table",
    "format_series",
    "fmt",
    "render_report",
    "sparkline",
    "timeline_chart",
    "result_to_dict",
    "result_from_dict",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_results",
    "load_results",
    "DEPLOYMENT_NUMBERS",
    "FAILURE_RATES",
    "BASELINE_FAILURE_RATE",
    "bench_seeds",
    "bench_processes",
    "deployment_scenarios",
    "failure_scenarios",
    "get_deployment_results",
    "get_failure_results",
    "fig9_rows",
    "fig10_rows",
    "fig11_rows",
    "table1_rows",
    "fig12_rows",
    "fig13_rows",
    "fig14_rows",
]
