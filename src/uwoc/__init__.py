"""Two-lobe turbulence fading toolkit for underwater optical links.

``_EXPORTS`` below is the one list of public names, by submodule; the
submodules keep no ``__all__`` of their own.

The public names load on first use (PEP 562): ``import uwoc`` imports no
submodule, and ``uwoc.fit`` imports ``uwoc.em`` when it is first read.  Each
read looks the name up in its submodule again, and nothing is cached here,
so a name replaced in its submodule (as a tracer's wrapper is) reads as the
replacement.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines; uwoc.__all__ is derived from it
_EXPORTS = {
    "distributions": ("EggParams", "EgParams", "ExpLognormalParams", "MixtureModel",
                      "model_from_dict"),
    "em": ("EmConfig", "FitReport", "fit", "log_likelihood", "m_step_exp", "m_step_gg"),
    "gof": ("Histogram", "build_histogram", "mse_cdf", "r_square"),
    "montecarlo": ("SimConfig", "simulate", "simulate_ber"),
    "presets": ("ALL_CONDITIONS", "GRADIENT_CONDITIONS", "UNIFORM_CONDITIONS",
                "ChannelCondition", "condition"),
    "errors": ("ConvergenceError", "DataError", "DegenerateComponentError", "FitFailureError",
               "HistogramError", "UndefinedScoreError", "UwocError"),
    "performance": ("CAPACITY_TAU", "HETERODYNE", "IMDD", "DetectionMode", "LinkBudget",
                    "Modulation", "avg_ber", "avg_ber_asymptotic", "avg_ber_foxh",
                    "avg_ber_quadrature", "capacity_asymptotic", "capacity_foxh",
                    "capacity_quadrature", "electrical_snr", "ergodic_capacity",
                    "modulation_params", "outage", "snr_cdf", "snr_cdf_asymptotic",
                    "snr_moment", "snr_pdf"),
    "special": ("FoxHSpec", "QuadratureConfig", "adaptive_quad", "fox_h_ln"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule read before anything imported it
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
