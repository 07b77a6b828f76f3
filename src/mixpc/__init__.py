"""Online mixed packing/covering solver and the fixed-charge pipeline.

Subpackages:
  core       packing system, covering rows and violation
  solver     the online packing/covering solver with scale doubling
  adversary  lower-bound instance generators (two-block game, tree walk)
  ccfl       fractional fixed-charge assignment with congestion
  rounding   randomized rounding and the cost-guess doubling pipeline
  oracle     dense simplex and brute-force offline baselines
  instances  file formats and seeded random generators
  runner     experiment suites, bound checks, CSV reports
"""

from .adversary import (
    MpcResponder,
    TreeAdversaryResult,
    UmscInstance,
    UniformResponder,
    harmonic,
    optimal_witness,
    tree_adversary,
    two_block_game,
    umsc_lower_bound,
    umsc_prefix_assignment,
)
from .ccfl import (
    CcflClient,
    CcflFractionalSolver,
    CcflInfeasible,
    CcflInstance,
    assign_fractional,
    ccfl_dual_certificate,
    gamma_trials,
    init_client,
    umsc_to_ccfl,
)
from .core import (
    CoveringRow,
    PackingSystem,
    violation,
)
from .instances import (
    OmpcInstance,
    ParseError,
    emit_instance,
    gen_random_ccfl,
    gen_random_ompc,
    parse_instance,
)
from .oracle import (
    LpProblem,
    LpSolution,
    brute_force_zstar,
    ccfl_opt1,
    ompc_opt,
    simplex_solve,
)
from .rng import rng_for
from .rounding import (
    RoundingState,
    mc_rounding,
    new_rounding_state,
    round_client,
    rounds_for,
    z_epochs,
)
from .runner import (
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)
from .solver import (
    OmpcSolution,
    OmpcTrialState,
    OnlineOmpcSolver,
    dual_certificate,
    init_trial,
    process_constraint,
    solve_online,
)

__version__ = "0.1.0"
