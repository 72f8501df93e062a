"""Model-selection criteria (Cp, GCV, BIC) and rank search over the fit path.

Each criterion trades the residual sum of squares against a complexity
penalty; the penalty can use either the exact unbiased degrees of freedom or
the naive free-parameter count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dof import DofEstimate, GapPolicy, exact_df_path, naive_df
from .estimators import LsFit
from .exceptions import DomainError, SaturationError

#: lambda-path convention for shrinkage rules: 50 log-spaced values from d_1
#: down to d_1 * 1e-3.
LAMBDA_GRID_SIZE = 50
LAMBDA_GRID_DECADES = 3.0


def lambda_grid(d1: float, size: int = LAMBDA_GRID_SIZE) -> np.ndarray:
    """Logarithmically spaced candidate penalties from d1 down to d1*1e-3."""
    if d1 <= 0:
        raise DomainError("leading singular value must be positive")
    return d1 * np.logspace(0.0, -LAMBDA_GRID_DECADES, size)


def _check_unsaturated(df: float, nq: int) -> None:
    """A df outside [0, n*q) leaves no residual degrees of freedom: the fit
    interpolates and the criterion must not score it."""
    if not 0 <= df < nq:
        raise SaturationError(f"df={df} saturates the criterion (n*q={nq})")


def gcv_score(rss: float, df: float, n: int, q: int) -> float:
    """Generalized cross-validation: n*q*rss / (n*q - df)^2."""
    nq = n * q
    if rss < 0:
        raise DomainError("rss must be nonnegative")
    _check_unsaturated(df, nq)
    return nq * rss / (nq - df) ** 2


def cp_score(rss: float, df: float, sigma2: float, n: int, q: int) -> float:
    """Mallows-type Cp normalized per entry: rss/(n q) + 2 df sigma2/(n q)."""
    if sigma2 <= 0:
        raise DomainError("sigma2 must be positive")
    nq = n * q
    return rss / nq + 2.0 * df * sigma2 / nq


def bic_score(rss: float, df: float, n: int, q: int) -> float:
    """Gaussian-surrogate BIC: n q ln(rss/(n q)) + ln(n q) df.

    The log-likelihood surrogate requires rss > 0 and df < n q; an
    interpolating fit leaves only roundoff in rss and would win.
    """
    if rss <= 0:
        raise SaturationError("BIC is undefined at zero residual")
    nq = n * q
    _check_unsaturated(df, nq)
    return nq * math.log(rss / nq) + math.log(nq) * df


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
        if self.kind == "cp" and (self.sigma2 is None or self.sigma2 <= 0):
            raise DomainError("cp requires sigma2 > 0")

    def score(self, rss: float, df: float, n: int, q: int) -> float:
        if self.kind == "gcv":
            return gcv_score(rss, df, n, q)
        if self.kind == "cp":
            return cp_score(rss, df, self.sigma2, n, q)
        return bic_score(rss, df, n, q)


@dataclass(frozen=True)
class SelectionReport:
    """Scores, df values, and residuals over the candidate ranks."""

    candidates: list[int]
    scores: list[float]
    df_used: list[DofEstimate]
    residual_ss: list[float]
    chosen: int


def rss_path(ls: LsFit, ranks) -> np.ndarray:
    """Residual sum of squares of the rank-r fits for each candidate r.

    The truncated directions are orthogonal to the residual, so
    rss(r) = ||Y - Y_hat||^2 + sum of the discarded squared singular values.
    """
    base = float(np.sum((ls.y - ls.y_hat) ** 2))
    d2 = ls.d**2
    tail = np.concatenate([np.cumsum(d2[::-1])[::-1], [0.0]])  # tail[r] = sum_{k>r} d_k^2
    return np.array([base + tail[r] for r in ranks])


def select_ranks(
    ls: LsFit, criteria: dict[str, Criterion], gp: GapPolicy = GapPolicy()
) -> dict[str, SelectionReport]:
    """One SelectionReport per named criterion, all scored on one rank path.

    The candidates are ranks 1..min(n, p, q) (capped at the fit rank). The
    rss path is built once, and each df mode's path once, when the first
    criterion using it is scored; criteria are scored in order, so the
    first one that fails raises. Saturated candidates (df >= n*q, or rss = 0
    under BIC) get +inf scores; ties break toward the smaller rank.
    """
    n, q = ls.y.shape
    p = ls.x.shape[1]
    r_max = min(n, p, q, ls.r_bar)
    if r_max < 1:
        raise SaturationError("no candidate ranks available")
    candidates = list(range(1, r_max + 1))
    residual_ss = [float(v) for v in rss_path(ls, candidates)]
    paths: dict[str, list[DofEstimate]] = {}
    reports = {}
    for name, crit in criteria.items():
        if crit.df_mode not in paths:
            paths[crit.df_mode] = (
                [DofEstimate(value=naive_df(ls.gram.r_x, q, r), method="naive") for r in candidates]
                if crit.df_mode == "naive"
                else exact_df_path(ls.d, ls.gram.r_x, q, candidates, gp=gp)
            )
        dfs = paths[crit.df_mode]
        scores: list[float] = []
        for df, r_rss in zip(dfs, residual_ss):
            try:
                scores.append(crit.score(r_rss, df.value, n, q))
            except SaturationError:
                scores.append(math.inf)
        if all(math.isinf(sc) for sc in scores):
            raise SaturationError("every candidate rank saturates the criterion")
        reports[name] = SelectionReport(
            candidates=list(candidates),
            scores=scores,
            df_used=list(dfs),
            residual_ss=list(residual_ss),
            chosen=candidates[int(np.argmin(scores))],
        )
    return reports


def select_rank(
    ls: LsFit, crit: Criterion, gp: GapPolicy = GapPolicy()
) -> SelectionReport:
    """Score ranks 1..min(n, p, q) (capped at the fit rank) under one
    criterion and pick the argmin: ``select_ranks`` with a single criterion.
    Callers scoring several criteria on one fit should call ``select_ranks``
    once, so the rss and df paths are built once.
    """
    return select_ranks(ls, {crit.kind: crit}, gp)[crit.kind]
