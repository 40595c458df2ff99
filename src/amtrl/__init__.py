"""Active multi-task representation learning with relevance-driven sampling.

Modules: instance (synthetic task collections), trainer (alternating
least-squares representation fitting), relevance (minimum-norm mixture
solvers), allocation (budget water-filling and cost-aware selection),
pipeline (end-to-end strategies), harness (sweeps and verification).
"""

from .allocation import (Allocation, CostFunction, InfeasibleBudgetError,
                         allocate_fixed_nu, continuous_allocation,
                         cost_aware_allocate, eval_cost, linear_cost,
                         lpnq_allocation, nu_tilde_objective, saltus_cost)
from .instance import (GroundTruth, TaskDataset, almost_sparse_nu,
                       load_instance,
                       make_aligned_worstcase_instance,
                       make_almost_sparse_instance, make_random_instance,
                       sample_task, save_instance)
from .pipeline import (RunResult, TaskOracle, run_known_nu, run_l1_amtrl,
                       run_l2_amtrl, run_multistage, run_passive)
from .relevance import (LAZY_LAMBDA, kkt_residual, l1_oracle_lp, lambda_rule,
                        lasso, min_l2_solution, norm_bound_check,
                        support_size)
from .trainer import (FitOptions, FittedModel, excess_risk, fit_source,
                      fit_target_head, head_for, subspace_distance)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "CostFunction", "FitOptions", "FittedModel", "GroundTruth",
    "InfeasibleBudgetError", "LAZY_LAMBDA", "RunResult",
    "TaskDataset", "TaskOracle", "allocate_fixed_nu", "almost_sparse_nu",
    "continuous_allocation", "cost_aware_allocate",
    "eval_cost", "excess_risk", "fit_source", "fit_target_head", "head_for",
    "kkt_residual", "l1_oracle_lp", "lambda_rule", "lasso", "linear_cost",
    "load_instance", "lpnq_allocation",
    "make_aligned_worstcase_instance", "make_almost_sparse_instance",
    "make_random_instance", "min_l2_solution", "norm_bound_check",
    "nu_tilde_objective", "run_known_nu",
    "run_l1_amtrl", "run_l2_amtrl", "run_multistage", "run_passive",
    "saltus_cost", "sample_task", "save_instance",
    "subspace_distance", "support_size",
]
