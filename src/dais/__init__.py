"""Differentiable annealed importance sampling.

Chains of leapfrog steps with partial momentum refreshment turn an exact
base-distribution sample into an unbiased, pathwise-differentiable estimate
of a normalizing constant.  The package bundles the generic sampler, an
exact Bayesian linear regression engine (closed-form bounds, gaps, and
moment recursions, with and without gradient noise), a bit-exact reversible
chain implementation, and a sweep harness with a small CLI.
"""

from .blr import (
    BlrModel,
    additive_noise_cov,
    annealed_posterior,
    blr_target,
    exact_log_ml,
    update_matrices,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    fit_loglog_slope,
    gen_blr_data,
    run_sweep,
    tune_stepsize_base,
    write_csv,
)
from .moments import (
    gap_breakdown,
    propagate_moments,
    sweep_gaps,
    theory_slope,
)
from .reversible import (
    BufferCorruption,
    InfoBuffer,
    float_to_fixed,
    quantize_gamma,
    reversible_backward,
    reversible_forward,
)
from .rng import generator, substreams
from .sampler import (
    NumericalFailure,
    TransitionConfig,
    dais_bound_mc,
    sample_chains,
)
from .schedules import (
    StepSizeScheme,
    make_linear_schedule,
    make_stepsize_scheme,
)
from .targets import AnnealedTarget, noisy_gradient

__version__ = "0.1.0"
