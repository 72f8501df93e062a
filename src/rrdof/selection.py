"""Model-selection criteria (Cp, GCV, BIC) and rank search over the fit path.

Each criterion trades the residual sum of squares against a complexity
penalty; the penalty can use either the exact unbiased degrees of freedom or
the naive free-parameter count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dof import exact_df_path, naive_df
from .estimators import LsFit, hard_rows
from .exceptions import DomainError, SaturationError

#: lambda-path convention for shrinkage rules: 50 log-spaced values from d_1
#: down to d_1 * 1e-3.
LAMBDA_GRID_SIZE = 50
LAMBDA_GRID_DECADES = 3.0


def lambda_grid(d1: float, size: int = LAMBDA_GRID_SIZE) -> np.ndarray:
    """Logarithmically spaced candidate penalties from d1 down to d1*1e-3."""
    if not 0 < d1 < math.inf:
        raise DomainError("leading singular value must be positive and finite")
    return d1 * np.logspace(0.0, -LAMBDA_GRID_DECADES, size)


def _scores(kind: str, rss, df, n: int, q: int, sigma2: float | None = None) -> np.ndarray:
    """Criterion `kind` at every (rss, df) pair as one array expression: the
    only place each formula is written. A df outside [0, n q) leaves no
    residual degrees of freedom (the fit interpolates), so GCV and BIC score
    it +inf, as BIC does rss = 0; no warning is raised."""
    nq = n * q
    rss, df = np.asarray(rss, dtype=float), np.asarray(df, dtype=float)
    if kind == "cp":
        return rss / nq + 2.0 * df * sigma2 / nq
    ok = (df >= 0) & (df < nq) & ((rss > 0) | (kind == "gcv"))
    rss, df = np.where(ok, rss, nq), np.where(ok, df, 0.0)  # finite stand-ins where saturated
    score = nq * rss / np.square(nq - df) if kind == "gcv" else nq * np.log(rss / nq) + math.log(nq) * df
    return np.where(ok, score, np.inf)


@dataclass(frozen=True)
class Criterion:
    """A selection criterion plus the df mode feeding its penalty."""

    kind: str  # "cp", "gcv", or "bic"
    df_mode: str = "exact"  # "exact" or "naive"
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in ("cp", "gcv", "bic"):
            raise DomainError(f"unknown criterion kind: {self.kind!r}")
        if self.df_mode not in ("exact", "naive"):
            raise DomainError(f"unknown df mode: {self.df_mode!r}")
        if self.kind == "cp" and (self.sigma2 is None or not 0 < self.sigma2 < math.inf):
            raise DomainError("cp requires a finite sigma2 > 0")


@dataclass(frozen=True)
class SelectionReport:
    """Scores, df values, and residuals over the candidate ranks.

    For a stack of fits, `scores`, `df_used` and `residual_ss` hold one list
    per fit and `chosen` one rank per fit.
    """

    candidates: list[int]
    scores: list
    df_used: list
    residual_ss: list
    chosen: int | list


def rss_path(ls: LsFit, ranks) -> np.ndarray:
    """Residual sum of squares of the rank-r fits for each candidate r; for a
    stack of fits, one row per fit.

    The truncated directions are orthogonal to the residual, so
    rss(r) = ||Y - Y_hat||^2 + sum of the discarded squared singular values.
    """
    base = np.sum((ls.y - ls.y_hat) ** 2, axis=(-2, -1))
    d2 = ls.d**2
    tail = np.cumsum(d2[..., ::-1], axis=-1)[..., ::-1]  # tail[r] = sum_{k>r} d_k^2
    tail = np.concatenate([tail, np.zeros(tail.shape[:-1] + (1,))], axis=-1)
    return base[..., None] + tail[..., np.asarray(ranks, dtype=int)]


def select_ranks(ls: LsFit, criteria: dict[str, Criterion]) -> dict[str, SelectionReport]:
    """One SelectionReport per named criterion, all scored on one rank path.

    The candidates are ranks 1..r_bar (r_bar = min(r_x, q) <= min(n, p, q)).
    The rss path and each df mode's path are arrays built once (a df path
    when the first criterion using it is scored), and each criterion scores
    every candidate in one array expression. Criteria are scored in order,
    so the first one that fails raises. Saturated candidates (df >= n*q, or
    rss = 0 under BIC) get +inf scores; ties break toward the smaller rank.
    A stack of fits is scored along its leading axes, one chosen rank per
    fit; a criterion that every candidate of any one fit saturates raises.
    """
    n, q = ls.y.shape[-2:]
    candidates = list(range(1, ls.r_bar + 1))
    rss = rss_path(ls, candidates)
    paths: dict[str, np.ndarray] = {}
    reports = {}
    for name, crit in criteria.items():
        if crit.df_mode not in paths:
            paths[crit.df_mode] = (
                np.broadcast_to(naive_df(ls.gram.r_x, q, candidates), rss.shape)
                if crit.df_mode == "naive"
                else exact_df_path(ls.d, ls.gram.r_x, q, *hard_rows(candidates, ls.r_bar))[0]
            )
        df = paths[crit.df_mode]
        scores = _scores(crit.kind, rss, df, n, q, crit.sigma2)
        if np.isinf(scores).all(axis=-1).any():
            raise SaturationError("every candidate rank saturates the criterion")
        reports[name] = SelectionReport(
            candidates=list(candidates),
            scores=scores.tolist(),
            df_used=df.tolist(),
            residual_ss=rss.tolist(),
            chosen=(scores.argmin(axis=-1) + 1).tolist(),  # candidates[k] = k + 1
        )
    return reports


def select_rank(ls: LsFit, crit: Criterion) -> SelectionReport:
    """Score ranks 1..r_bar under one criterion and pick the argmin:
    ``select_ranks`` with a single criterion. Callers scoring several
    criteria on one fit should call ``select_ranks`` once, so the rss and df
    paths are built once.
    """
    return select_ranks(ls, {crit.kind: crit})[crit.kind]
