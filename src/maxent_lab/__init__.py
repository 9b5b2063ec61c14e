"""Maximum-entropy projection, exact conditioned priors, and coding games on
lattice moment constraints."""

__version__ = "0.1.0"

from .analysis import (
    GameReport,
    corollary1_residuals,
    enumerate_constraint_sequences,
    mixture_gap_series,
    play_coding_game,
    verify_minimax_constancy,
)
from .concentration import (
    clt_limit,
    concentration_constants,
    representative_sequence,
)
from .conditional import conditional_event_prob, conditional_marginal
from .events import (
    BigramDeviationEvent,
    BoxEvent,
    FrequencyDeviationEvent,
)
from .lattice import (
    ConstraintSpec,
    SampleSpace,
    build_space,
    derive_lattice,
    feasible_sizes,
    first_feasible_sizes,
    hull_position,
)
from .oracle import enumerate_oracle
from .predictors import (
    IIDPredictor,
    conditioned_prior_predictor,
    maxent_predictor,
    mixture_predictor,
    renewal_compose,
)
from .priors import IntegerPrior, rissanen_prior
from .simulate import (
    hypercompression_check,
    hypercompression_exact_prob,
    recurrence_simulation,
)
from .solver import MaxEntSolution, entropy_bits, rational_tilt, solve_maxent
from .sumdist import (
    SumDistribution,
    SumTableProvider,
    central_series,
    constraint_prob,
    convolve,
    sum_distribution,
)
