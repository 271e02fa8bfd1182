"""Deterministic federated-learning simulator with a loss-based,
locally-differentially-private defense against targeted label flipping."""

__version__ = "0.1.0"

from .data import (
    ClientGroup,
    Dataset,
    IdxData,
    SyntheticData,
    load_idx,
    partition,
    poison_shards,
    synthesize,
)
from .defense import (
    DefenseConfig,
    DetectionScore,
    EliminationOutcome,
    detection_score,
    run_eliminator,
)
from .federation import (
    ExperimentReport,
    FederationConfig,
    RoundRecord,
    fed_avg,
    global_round,
    init_state,
    local_train,
    report_losses,
    run_experiment,
    select_clients,
    validate,
)
from .metrics import EvalResult, evaluate_model
from .nn import ModelParams, backward, forward, init_params, sgd_step, softmax_cross_entropy
from .privacy import LdpConfig, laplace_sample, laplace_scale, perturb_loss
