"""Invertible coupling flows with an age controller, plus IRL-learned
step-size policies over longitudinal sequences."""

from .errors import (
    BudgetError,
    CheckpointError,
    DegenerateWeightsError,
    FlowpathError,
    InsufficientDataError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .nets import Adam, DenseLayer, DenseNet, dense_net, finite_diff_grad, net_backward, net_forward
from .flows import (
    BijectionStack,
    CouplingUnit,
    alternating_mask,
    flow_encode,
    flow_forward,
    flow_inverse,
    flow_log_density,
    flow_nll,
    gaussian_loglik,
    make_flow,
)
from .transform import (
    AgingModel,
    FactoredTransform,
    controller_gaussian_penalty,
    make_aging_model,
    pair_loglik,
    pair_objective_and_grads,
    synthesize_step,
    train_pair_step,
    transform_apply,
)
from .irl import (
    AgingTrajectory,
    CostNet,
    FunctionDynamics,
    ModelDynamics,
    PathBatch,
    PolicyNet,
    estimate_log_partition,
    exact_sequence_prob,
    irl_loss_and_grad,
    learn_aging_policy,
    make_cost_net,
    make_policy_net,
    multi_input_init,
    plan_path_batch,
    plan_rollout,
    policy_update,
    sample_path_batch,
    sample_trajectories,
    sequence_energy,
    with_end_states,
)
from .world import (
    SubjectArchetype,
    WorldConfig,
    WorldDynamics,
    brute_force_optimal_path,
    dp_optimal_path,
    generate_subject,
    ground_truth_cost,
    preferred_step,
)
from .config import RunConfig

__version__ = "0.1.0"
