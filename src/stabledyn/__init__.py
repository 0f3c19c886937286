"""Dynamic models that are stable by construction, not by hope."""

from .autodiff import GradCheckReport, ParamStore, Tape, Var, grad_check
from .deterministic import (RootFindError, StableModel, StepInfo,
                            certified_gamma_expr, certified_gamma_raw,
                            make_model, model_step, rollout, solve_gamma_batch,
                            step_expr)
from .lyapunov import LyapunovNet, make_lyapunov
from .model_io import load_model, save_model
from .nets import Mlp
from .stochastic import (MdnOutput, StochasticModel, make_stochastic_model,
                         mdn_forward, mdn_mean_step, mdn_nll, mdn_sample,
                         stochastic_rollout)
from .systems import (generate_transitions, load_transitions, save_transitions,
                      simulate, solve_discrete_lyapunov, srk2_step, rk4_step,
                      system_step)
from .training import (TrainConfig, TrainReport, adam_step, evaluate_mse,
                       evaluate_nll, evaluate_violations, train)

__all__ = [
    "GradCheckReport", "ParamStore", "Tape", "Var", "grad_check",
    "RootFindError", "StableModel", "StepInfo", "certified_gamma_expr",
    "certified_gamma_raw", "make_model", "model_step", "rollout",
    "solve_gamma_batch", "step_expr",
    "LyapunovNet", "make_lyapunov", "Mlp",
    "load_model", "save_model",
    "MdnOutput", "StochasticModel", "make_stochastic_model", "mdn_forward",
    "mdn_mean_step", "mdn_nll", "mdn_sample", "stochastic_rollout",
    "generate_transitions", "load_transitions", "save_transitions", "simulate",
    "solve_discrete_lyapunov", "srk2_step", "rk4_step", "system_step",
    "TrainConfig", "TrainReport", "adam_step", "evaluate_mse", "evaluate_nll",
    "evaluate_violations", "train",
]

__version__ = "0.1.0"
