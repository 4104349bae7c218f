"""Achievable rates for a binary two-hop relay link with a finite battery.

The relay harvests its transmission energy from the symbols it receives:
each slot the source symbol may deliver one energy unit, transmitting costs
several, and the battery level follows a finite Markov chain. The package
evaluates and maximizes the single-letter rate expressions for that link in
four configurations (noisy second hop, spacing-coded with a noisy first hop,
both hops noisy, and both hops noisy with random charging loss) and ships a
seeded Monte Carlo lab plus a CLI for the stochastic claims behind them.
"""

__version__ = "0.1.0"

from .battery import (
    ArrivalModel,
    BatterySpec,
    PairChain,
    RegularityReport,
    StatePolicy,
    StationaryAnalysis,
    analyze_chain,
    build_kernel,
    check_regularity,
    energy_profile,
    forward_loglik,
    markov_entropy_rate,
    pair_chain,
    stationary,
    transition_tensor,
)
from .errors import (
    BudgetError,
    ConstraintError,
    EhRelayError,
    NumericalError,
    ValidationError,
)
from .mclab import (
    AepResult,
    CodecConfig,
    CodecResult,
    CollisionResult,
    OccupancyResult,
    ReceiverSmokeResult,
    RunConfig,
    ZEmpiricalResult,
    collision_curve,
    collision_experiment,
    empirical_aep,
    receiver_smoke_trial,
    relay_codec_trial,
    sample_path,
    simulate_states,
    substream,
    z_empirical,
)
from .optimize import (
    LossShape,
    OptimizeOptions,
    OptimizeResult,
    SweepSpec,
    optimize,
    sweep,
)
from .pmf import (
    BinaryChannel,
    JointPmf,
    Pmf,
    binary_entropy,
    entropy,
)
from .rates import (
    Model,
    RateBreakdown,
    both_hops_rate,
    feasibility_check,
    loss_penalty_bits,
    per_level_receiver_bits,
    per_level_source_entropy_bits,
    product_bounds,
    random_loss_rate,
    require_informative_second_hop,
    second_hop_bounds,
    second_hop_rate,
    uniform_policy,
)
from .timing import (
    IntegerPmf,
    TimingRateResult,
    TimingScheme,
    ZNoise,
    constant_wait_table,
    default_wait_table,
    induced_arrival_prob,
    t_pmf,
    timing_rate,
    z_pmf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
