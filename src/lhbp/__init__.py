"""Numerics for lower Hessenberg branching processes with countably many
types: extinction probability vectors, the embedded varying-environment
process, the fixed-point continuum, regime classification, and a Monte Carlo
oracle.

Each public name loads its defining submodule on first use (PEP 562), so
``import lhbp`` or ``import lhbp.model`` compiles no numerics it does not
run; ``from lhbp import *`` loads them all.
"""

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "model": ("Example2Model", "ExplicitModel", "LHBPModel", "ModelError",
              "TableLaw", "TailModel", "TridiagonalModel", "load_model",
              "product_law", "validate"),
    "generating": ("ComputationError", "ExtinctionLadder", "TruncationResult",
                   "default_schedule", "extinction_ladder",
                   "iterate_to_limit"),
    "embedded": ("EmbeddedMoments", "PartialVerdict", "embedded_moments",
                 "partial_verdict"),
    "criteria": ("Budget", "Classification", "GlobalVerdict",
                 "PartialSurvivalRegimeError", "SLSVerdict", "agresti_bounds",
                 "classify", "global_verdict", "sls_verdict",
                 "tridiagonal_mu_limit"),
    "fixedpoints": ("FixedPointCurve", "RangeError", "curve_from_anchor"),
    "montecarlo": ("SimBatch", "SimConfig", "SimEstimate",
                   "estimate_embedded_moment", "estimate_extinction",
                   "simulate_truncated"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
