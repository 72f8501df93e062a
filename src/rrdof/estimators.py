"""Least-squares, rank-constrained, and singular-value-shrinkage estimators.

Every estimator in the family keeps the singular vectors of the least-squares
fit and replaces the singular values d_k by s_k * d_k for weights
s_k in [0, 1] that are nonincreasing in k. The hard rule (rank truncation)
and the soft / adaptive threshold rules are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError, DomainError
from .linalg import GramFactors, HFactor, _check_rows, as_matrix, build_h, gram_factors


@dataclass(frozen=True)
class ShrinkageRule:
    """Weight family s_k(d_k, lambda) with derivative ds_k/dd_k.

    kind: "hard" (rank truncation), "soft" (soft threshold on singular
    values), or "adaptive" (power-weighted threshold).
    """

    kind: str
    rank: int = 0
    lam: float = 0.0
    gamma: float = 2.0

    def weights(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights and derivatives at the singular values `d`, along its last axis.

        At the threshold point d_k = lam the derivative is taken from the
        right; the non-differentiable set has measure zero.
        """
        d = np.asarray(d, dtype=float)
        if self.kind == "hard":
            return hard_rows(np.full(d.shape[:-1], self.rank), d.shape[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "soft":
                s = np.where(d > 0, 1.0 - self.lam / np.where(d > 0, d, 1.0), 0.0)
                active = s > 0
                s = np.where(active, s, 0.0)
                sp = np.where(active, self.lam / np.where(d > 0, d, 1.0) ** 2, 0.0)
                return s, sp
            if self.kind == "adaptive":
                g = self.gamma
                base = np.where(d > 0, d, 1.0)
                s = np.where(d > 0, 1.0 - (self.lam / base) ** (g + 1.0), 0.0)
                active = s > 0
                s = np.where(active, s, 0.0)
                sp = np.where(active, (g + 1.0) * self.lam ** (g + 1.0) * base ** (-g - 2.0), 0.0)
                return s, sp
        raise DomainError(f"unknown shrinkage kind: {self.kind!r}")


def _checked_ranks(r, lo: int, hi: float = np.inf) -> np.ndarray:
    """The rank or ranks `r` as integers (integral floats pass); raise
    DomainError naming the first that is not an integer in [lo, hi]."""
    given = np.asarray(r)
    v = given.astype(float)
    whole = np.isfinite(v) & (v == np.floor(v))
    bad = ~whole | (v < lo) | (v > hi)
    if bad.any():
        why = f"outside [{lo}, {hi}]" if whole[bad][0] else "is not an integer"
        raise DomainError(f"rank {given[bad][0]} {why}")
    return v.astype(int)


def hard_rows(ranks, r_bar: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights 1[k < r] of rank truncation at every rank r of `ranks`, with
    their zero derivatives, as a rule's `weights` gives them: arrays of shape
    (*shape of ranks, r_bar). The only place the hard row is built."""
    s = (np.arange(r_bar) < _checked_ranks(ranks, 0, r_bar)[..., None]).astype(float)
    return s, np.zeros_like(s)


def hard(r: int) -> ShrinkageRule:
    """Rank truncation: keep the leading r singular values unchanged."""
    return ShrinkageRule(kind="hard", rank=int(_checked_ranks(r, 0)))


def soft(lam: float) -> ShrinkageRule:
    """Soft threshold: shrunk values (d_k - lam)_+."""
    if not lam >= 0:
        raise DomainError("lambda must be nonnegative")
    return ShrinkageRule(kind="soft", lam=float(lam))


def adaptive(lam: float, gamma: float = 2.0) -> ShrinkageRule:
    """Power-weighted threshold: shrunk values (d_k - lam^(g+1) d_k^-g)_+."""
    if not lam >= 0:
        raise DomainError("lambda must be nonnegative")
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    if gamma == np.inf:  # s' would be inf * 0
        raise DomainError("gamma must be finite")
    return ShrinkageRule(kind="adaptive", lam=float(lam), gamma=float(gamma))


def validate_weights(s: np.ndarray, s_prime: np.ndarray | None = None) -> None:
    """Raise if weights or derivatives are not finite, or weights leave
    [0, 1] or are not nonincreasing along the last axis."""
    s = np.asarray(s, dtype=float)
    if not (np.isfinite(s).all() and (s_prime is None or np.isfinite(s_prime).all())):
        raise ContractViolationError("shrinkage weights and derivatives must be finite")
    if np.any(s < -1e-12) or np.any(s > 1 + 1e-12):
        raise ContractViolationError("shrinkage weights must lie in [0, 1]")
    if np.any(np.diff(s) > 1e-12):
        raise ContractViolationError("shrinkage weights must be nonincreasing")


@dataclass(frozen=True)
class LsFit:
    """Least-squares fit bundle: data, Gram factors, H and its SVD, fitted values.

    A stack of fits (from stacked x and y) holds stacks along the same leading
    axes; `r_bar` is shared.
    """

    x: np.ndarray
    y: np.ndarray
    gram: GramFactors
    hf: HFactor
    y_hat: np.ndarray
    r_bar: int

    @property
    def d(self) -> np.ndarray:
        """Singular values of the least-squares fit (equivalently of H)."""
        return self.hf.svd.d


def fit_ols(x, y, gram: GramFactors | None = None) -> LsFit:
    """Least-squares fit Y_hat = X (X'X)^+ X' Y; valid for any p, q vs n.

    Stacked x (..., n, p) and y (..., n, q) give a stack of fits along their
    leading axes, each slice equal bit for bit to its own fit; the designs of
    a stack must share one rank (``gram_factors``). Refits of one design can
    pass ``gram=gram_factors(x)`` to factor X once.
    """
    x = as_matrix(x, stack=True)
    y = as_matrix(y, stack=True)
    _check_rows(x, y)
    gf = gram_factors(x) if gram is None else gram
    hf = build_h(x, y, gf)
    y_hat = ((x @ gf.q_mat) / gf.s[..., None, :]) @ hf.h
    return LsFit(x=x, y=y, gram=gf, hf=hf, y_hat=y_hat, r_bar=min(gf.r_x, y.shape[-1]))


def _weights(rule: ShrinkageRule, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s, s_prime = rule.weights(d)
    validate_weights(s, s_prime)
    return s, s_prime


def fit_shrunk(ls: LsFit, rule: ShrinkageRule) -> np.ndarray:
    """Fitted values of `rule` applied to the singular values of the
    least-squares fit: Y_hat V diag(s) V'."""
    v = ls.hf.svd.right
    return (ls.y_hat @ (v * _weights(rule, ls.d)[0])) @ v.T


def coef_matrix(ls: LsFit, rule: ShrinkageRule) -> np.ndarray:
    """Coefficient matrix B with X @ B = fit_shrunk(ls, rule), lying in the
    row space of X: B = Q S^-1 U diag(s * d) V'."""
    core = (ls.hf.svd.left * (_weights(rule, ls.d)[0] * ls.d)[None, :]) @ ls.hf.svd.right.T
    return (ls.gram.q_mat / ls.gram.s[None, :]) @ core
