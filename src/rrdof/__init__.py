"""Reduced-rank multivariate regression with exact unbiased degrees of freedom.

Public surface: linear-algebra substrate (linalg), the estimator family
(estimators), degrees-of-freedom estimators and oracles (dof), model
selection (selection), simulation studies (simbench), and the CSV/report
pipeline (pipeline). The `rrdof` console script exposes the same machinery
from the command line.
"""

from .dof import (DofEstimate, divergence_analytic, divergence_fd, exact_df_path, exact_df_rrr,
                  exact_df_shrunk, mc_df, naive_df, perturbation_df, sv_derivatives)
from .estimators import LsFit, ShrinkageRule, adaptive, coef_matrix, fit_ols, fit_shrunk, hard, soft
from .linalg import GramFactors, HFactor, SvdFactors, build_h, gram_factors, thin_svd
from .pipeline import EvalReport, eval_splits, ingest_csv
from .selection import Criterion, SelectionReport, select_rank, select_ranks
from .simbench import PRESETS, SimConfig, gen_instance, run_dof_study, run_pred_study, snr

__version__ = "0.1.0"

__all__ = [
    "DofEstimate", "divergence_analytic", "divergence_fd",
    "exact_df_path", "exact_df_rrr", "exact_df_shrunk", "mc_df", "naive_df", "perturbation_df",
    "sv_derivatives",
    "LsFit", "ShrinkageRule", "adaptive", "coef_matrix",
    "fit_ols", "fit_shrunk", "hard", "soft",
    "GramFactors", "HFactor", "SvdFactors", "build_h", "gram_factors",
    "thin_svd",
    "EvalReport", "eval_splits", "ingest_csv",
    "Criterion", "SelectionReport",
    "select_rank", "select_ranks",
    "PRESETS", "SimConfig", "gen_instance", "run_dof_study", "run_pred_study",
    "snr",
]
