"""Train, structurally prune, and verify small ReLU networks via MILP branch-and-bound."""

__version__ = "0.1.0"

from .archs import format_arch, parse_arch
from .bnb import SolveReport, SolverConfig, brute_force_verify, solve
from .data import gen_synthetic, load_mnist
from .encode import (
    BoundsTable,
    InputBox,
    MipModel,
    encode_adversarial,
    encode_network,
    export_lp,
    interval_bounds,
    obbt_tighten,
    parse_lp,
    write_lp,
)
from .lp import LinearProgram, LpSolution, check_feasible, solve_lp
from .nn import (
    Dataset,
    Mlp,
    TrainConfig,
    accuracy,
    forward,
    grad_cross_entropy,
    init_mlp,
    load_model,
    regularized_loss,
    save_model,
    sgd_train,
)
from .prune import PruneReport, fine_tune, prune_pipeline, threshold_prune
from .spr import SprConfig, spr_grad, spr_value
from .verify import (
    VerificationInstance,
    Verdict,
    build_instance,
    cross_check,
    verify,
)
