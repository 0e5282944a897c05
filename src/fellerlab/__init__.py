"""fellerlab: a desk-scale laboratory for noise-shift coupling of mollified
stochastic PDEs, plus the exact symbol algebra of the quartic regularity
structure.

The numerical side evolves periodic lattice dynamics driven by space-time
white noise, differentiates them in both the initial state and the noise,
and constructs compensating noise shifts that couple solutions started from
nearby states, with Monte-Carlo estimators for the induced bound on the
distance between their laws.  The symbolic side is exact integer/rational
arithmetic on decorated trees.
"""

from .equations import (DIFFUSIONS, DRIFTS, EquationSpec, RenormConstants,
                        ScalarFn, compute_renorm_constants)
from .grids import (Field, Grid, holder_proxy_norm, l2_norm, mollify,
                    spectral_inverse, spectral_transform)
from .harness import (BlowupReport, TVReport, WeightedComparison,
                      blowup_probability, estimate_tv_bound, estimate_tv_sweep,
                      weighted_expectation, wilson_interval)
from .noise import (NoisePath, ShiftPath, apply_shift, cm_norm_sq,
                    girsanov_weight, log_girsanov_weight, noise_pairing,
                    sample_white_noise, splice, zero_noise_path)
from .shift import (CouplingParams, ShiftResult, adaptedness_check,
                    build_shift, bump_chi, compensating_direction, cutoff_chi,
                    verify_coupling)
from .solver import (DEAD, DeadState, FlowOutcome, NondegeneracyError,
                     check_semigroup, evolve, r_monitor)
from .tangent import jacobian_apply, malliavin_derivative, tangent_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grids
    "Grid", "Field", "spectral_transform", "spectral_inverse",
    "holder_proxy_norm", "mollify", "l2_norm",
    # noise
    "NoisePath", "ShiftPath", "sample_white_noise", "zero_noise_path",
    "apply_shift", "splice", "cm_norm_sq", "noise_pairing",
    "girsanov_weight", "log_girsanov_weight",
    # equations
    "EquationSpec", "RenormConstants", "ScalarFn", "DRIFTS", "DIFFUSIONS",
    "compute_renorm_constants",
    # solver
    "DEAD", "DeadState", "FlowOutcome", "evolve", "r_monitor", "check_semigroup",
    # tangent
    "jacobian_apply", "tangent_sweep", "malliavin_derivative",
    # shift
    "CouplingParams", "ShiftResult", "NondegeneracyError", "bump_chi",
    "cutoff_chi", "compensating_direction", "build_shift", "verify_coupling",
    "adaptedness_check",
    # harness
    "TVReport", "WeightedComparison", "BlowupReport", "estimate_tv_bound",
    "estimate_tv_sweep", "weighted_expectation", "blowup_probability", "wilson_interval",
]
