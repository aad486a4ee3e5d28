"""The paper's ratio-based analysis utilities."""

from .ratios import (
    GLOBAL_COLUMNS,
    KIVIAT_COLUMNS,
    TABLE3_UNITS,
    KiviatData,
    best_machine,
    kiviat_normalise,
    ratio_row,
    table3_maxima,
)
from .energy import (
    RANKED_MACHINES,
    EnergyProfile,
    energy_ranking,
    hpl_energy_profile,
    hpl_power_w,
)
from .fitting import LogGPFit, fit_loggp, fit_report, measure_one_way
from .scaling import ScalingPoint, ScalingSeries, build_series, ratio_series
from .utilization import (
    UtilizationReport,
    comm_matrix,
    format_report,
    message_size_histogram,
    utilization_report,
)

__all__ = [
    "KiviatData",
    "kiviat_normalise",
    "table3_maxima",
    "ratio_row",
    "best_machine",
    "KIVIAT_COLUMNS",
    "TABLE3_UNITS",
    "GLOBAL_COLUMNS",
    "ScalingPoint",
    "ScalingSeries",
    "build_series",
    "ratio_series",
    "LogGPFit",
    "fit_loggp",
    "fit_report",
    "measure_one_way",
    "EnergyProfile",
    "RANKED_MACHINES",
    "energy_ranking",
    "hpl_energy_profile",
    "hpl_power_w",
    "UtilizationReport",
    "utilization_report",
    "comm_matrix",
    "message_size_histogram",
    "format_report",
]
