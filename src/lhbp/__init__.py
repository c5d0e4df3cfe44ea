"""Numerics for lower Hessenberg branching processes with countably many
types: extinction probability vectors, the embedded varying-environment
process, the fixed-point continuum, regime classification, and a Monte Carlo
oracle."""

__version__ = "0.1.0"

from .model import (Example2Model, ExplicitModel, LHBPModel, ModelError,
                    TableLaw, TailModel, TridiagonalModel, load_model,
                    product_law, validate)
from .generating import (ComputationError, ExtinctionLadder, TruncationResult,
                         default_schedule, extinction_ladder, iterate_to_limit)
from .embedded import (EmbeddedMoments, PartialVerdict, embedded_moments,
                       partial_verdict)
from .criteria import (Budget, Classification, GlobalVerdict,
                       PartialSurvivalRegimeError, SLSVerdict, agresti_bounds,
                       classify, global_verdict, sls_verdict,
                       tridiagonal_mu_limit)
from .fixedpoints import FixedPointCurve, RangeError, curve_from_anchor
from .montecarlo import (SimBatch, SimConfig, SimEstimate,
                         estimate_embedded_moment, estimate_extinction,
                         simulate_truncated)

__all__ = [name for name in dir() if not name.startswith("_")]
