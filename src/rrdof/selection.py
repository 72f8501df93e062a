"""Model-selection criteria (Cp, GCV, BIC) and rank search over the fit path.

Each criterion trades the residual sum of squares against a complexity
penalty; the penalty can use either the exact unbiased degrees of freedom or
the naive free-parameter count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dof import _where, exact_df_path, naive_df
from .estimators import LsFit, _checked_ints, hard_rows
from .exceptions import DomainError, SaturationError

#: lambda-path convention for shrinkage rules: 50 log-spaced values from d_1
#: down to d_1 * 1e-3.
LAMBDA_GRID_SIZE = 50
LAMBDA_GRID_DECADES = 3.0


def lambda_grid(d1: float, size: int = LAMBDA_GRID_SIZE) -> np.ndarray:
    """Logarithmically spaced candidate penalties from d1 down to d1*1e-3."""
    if not 0 < d1 < math.inf:
        raise DomainError("leading singular value must be positive and finite")
    return d1 * np.logspace(0.0, -LAMBDA_GRID_DECADES, int(_checked_ints(size, 1, what="size")))


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
    """Scores, df values, and residuals over the candidate ranks, as float
    arrays: one row per fit for a stack of fits, and `chosen` one rank per fit.
    One call's reports share its `residual_ss` and each df mode's `df_used`.
    ``==`` on arrays is ambiguous, so compare reports field by field.
    """

    candidates: list[int]
    scores: np.ndarray
    df_used: np.ndarray
    residual_ss: np.ndarray
    chosen: int | list


def rss_path(d, rss, ranks) -> np.ndarray:
    """Residual sum of squares of the rank-r fits for each candidate r: the
    least-squares rss ||Y - Y_hat||^2 plus the discarded squared d_k (they are
    orthogonal to the residual). A stack (..., r_bar) of spectra `d` with one
    rss each gives one row per fit."""
    d2 = np.asarray(d, dtype=float) ** 2
    tail = np.cumsum(d2[..., ::-1], axis=-1)[..., ::-1]  # tail[r] = sum_{k>r} d_k^2
    tail = np.concatenate([tail, np.zeros(tail.shape[:-1] + (1,))], axis=-1)
    return np.asarray(rss, dtype=float)[..., None] + tail[..., np.asarray(ranks, dtype=int)]


def select_ranks(d, rss, r_x: int, n: int, q: int,
                 criteria: dict[str, Criterion]) -> dict[str, SelectionReport]:
    """One SelectionReport per named criterion, scoring ranks 1..r_bar from the
    sufficient statistics of a least-squares fit of n x q responses on a
    rank-r_x design: its spectrum `d` (r_bar = min(r_x, q) values, ``ls.d``)
    and rss (``ls.rss``). A stack (..., r_bar) of spectra with one rss each
    gives one chosen rank per fit, each its own call's bit for bit. The rss
    path and each df mode's path are built once, when first needed, and shared
    by the reports. A NaN, infinite or negative rss or value, or a rising
    spectrum, raises DomainError in either df mode. Criteria are scored in
    order, so the first one that fails raises, as does one that saturates
    every candidate of any one fit. Saturated candidates (df >= n*q, or
    rss = 0 under BIC) score +inf; ties break toward the smaller rank."""
    d, rss, r_bar = np.asarray(d, dtype=float), np.asarray(rss, dtype=float), min(r_x, q)
    if d.shape[-1:] != (r_bar,) or rss.shape != d.shape[:-1]:
        raise DomainError(f"expected {r_bar} singular values and one rss per fit, "
                          f"got shapes {d.shape} and {rss.shape}")
    v = np.concatenate([rss[..., None], d], axis=-1)  # per fit: its rss, then its spectrum
    bad_value = ~((v >= 0) & (v < np.inf))
    rising = np.concatenate([np.zeros(v.shape[:-1] + (2,), dtype=bool), d[..., 1:] > d[..., :-1]], axis=-1)
    if (bad_value | rising).any():
        raise DomainError("rss and singular values must be finite and nonnegative, the values nonincreasing: "
                          + _where(v, bad_value, rising, "fit", ["rss"] + [f"d_{k}" for k in range(1, r_bar + 1)]))
    candidates = list(range(1, r_bar + 1))
    rss = rss_path(d, rss, candidates)
    paths: dict[str, np.ndarray] = {}
    reports = {}
    for name, crit in criteria.items():
        if crit.df_mode not in paths:
            paths[crit.df_mode] = (
                np.broadcast_to(naive_df(r_x, q, candidates), rss.shape)
                if crit.df_mode == "naive"
                else exact_df_path(d, r_x, q, *hard_rows(candidates, r_bar))[0]
            )
        df = paths[crit.df_mode]
        scores = _scores(crit.kind, rss, df, n, q, crit.sigma2)
        if np.isinf(scores).all(axis=-1).any():
            raise SaturationError("every candidate rank saturates the criterion")
        reports[name] = SelectionReport(
            candidates=list(candidates),
            scores=scores,
            df_used=df,
            residual_ss=rss,
            chosen=(scores.argmin(axis=-1) + 1).tolist(),  # candidates[k] = k + 1
        )
    return reports


def select_rank(ls: LsFit, crit: Criterion) -> SelectionReport:
    """Score ranks 1..r_bar of the fit `ls` under one criterion and pick the
    argmin: ``select_ranks`` on the fit's statistics with one criterion.
    Callers scoring several criteria should call ``select_ranks`` once."""
    n, q = ls.dims
    return select_ranks(ls.d, ls.rss, ls.gram.r_x, n, q, {crit.kind: crit})[crit.kind]
