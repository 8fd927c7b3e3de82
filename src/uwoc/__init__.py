"""Two-lobe turbulence fading toolkit for underwater optical links."""

from .distributions import EggParams, EgParams, ExpLognormalParams, MixtureModel, model_from_dict
from .em import EmConfig, FitReport, e_step, fit, log_likelihood, m_step_exp, m_step_gg, update_omega
from .gof import Histogram, build_histogram, mse_cdf, r_square
from .montecarlo import SimConfig, simulate, simulate_ber, simulate_capacity, simulate_outage
from .presets import ALL_CONDITIONS, GRADIENT_CONDITIONS, UNIFORM_CONDITIONS, ChannelCondition, condition
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateComponentError,
    FitFailureError,
    HistogramError,
    UndefinedScoreError,
    UwocError,
)
from .performance import (
    CAPACITY_TAU,
    HETERODYNE,
    IMDD,
    DetectionMode,
    LinkBudget,
    Modulation,
    avg_ber,
    avg_ber_asymptotic,
    avg_ber_quadrature,
    capacity_asymptotic,
    capacity_quadrature,
    electrical_snr,
    ergodic_capacity,
    modulation_params,
    outage,
    snr_cdf,
    snr_cdf_asymptotic,
    snr_moment,
    snr_pdf,
)
from .special import FoxHSpec, QuadratureConfig, adaptive_quad, fox_h

__version__ = "0.1.0"
