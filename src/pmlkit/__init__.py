"""pmlkit: per-outcome information leakage for discrete channels and
density models, with brute-force adversary oracles for verification."""

__version__ = "0.1.0"

from .distributions import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
    constant_channel,
    geometric_binary_model,
    identity_channel,
    marginal,
    posterior,
    truncate_countable,
    uniform,
)
from .leakage import (
    LeakageProfile,
    LeakageValue,
    absolute_continuity_witness,
    leakage_law,
    leakage_profile,
    maximal_leakage,
    mean_leakage,
    pml,
    renyi_inf,
    tail_probability,
)
from .oracles import (
    GainFunction,
    PartitionGain,
    build_partition_gain,
    gain_ratio,
    make_approx_gain,
    make_guessing_gain,
    partition_oracle,
    randomized_function_oracle,
    randomized_strategy_check,
    shattering_value,
    subset_oracle,
)
from .continuous import (
    ClosedFormModel,
    DensityModel,
    GridSpec,
    discretize_poisson_binomial,
    integrability_probe,
    mixture_limit_check,
    pml_closed_form,
    pml_density,
    to_density_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
