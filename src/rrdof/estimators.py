"""Least-squares, rank-constrained, and singular-value-shrinkage estimators.

Every estimator in the family keeps the singular vectors of the least-squares
fit and replaces the singular values d_k by s_k * d_k for weights
s_k in [0, 1] that are nonincreasing in k. The hard rule (rank truncation)
and the soft / adaptive threshold rules are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ContractViolationError, DomainError
from .linalg import GramFactors, HFactor, as_matrix, build_h, gram_factors


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
        if self.kind not in ("soft", "adaptive"):
            raise DomainError(f"unknown shrinkage kind: {self.kind!r}")
        base, lam, g = np.where(d > 0, d, 1.0), self.lam, self.gamma
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "soft":
                s, sp = 1.0 - lam / base, lam / base**2
            else:
                s, sp = 1.0 - (lam / base) ** (g + 1.0), (g + 1.0) * lam ** (g + 1.0) * base ** (-g - 2.0)
        active = (d > 0) & (s > 0)  # the threshold family's one mask: zero values and the support
        return np.where(active, s, 0.0), np.where(active, sp, 0.0)


def _checked_ints(v, lo: int, hi: float = np.inf, what: str = "rank") -> np.ndarray:
    """The one check of every count, rank and seed: `v` as ints (integral floats
    such as 3.0 pass, so callers use the result; integers, seeds beyond int64
    too, come back as given), or DomainError naming `what` and the first bad value."""
    given = np.asarray(v)
    f = given.astype(float)
    whole = np.isfinite(f) & (f == np.floor(f))
    bad = ~whole | (f < lo) | (f > hi)
    if bad.any():
        why = f"outside [{lo}, {hi}]" if whole[bad][0] else "is not an integer"
        raise DomainError(f"{what} {given[bad][0]} {why}")
    return given if given.dtype.kind in "iuO" else f.astype(int)


def hard_rows(ranks, r_bar: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights 1[k < r] of rank truncation at every rank r of `ranks`, with
    their zero derivatives, as a rule's `weights` gives them: arrays of shape
    (*shape of ranks, r_bar). The only place the hard row is built."""
    s = (np.arange(r_bar) < _checked_ints(ranks, 0, r_bar)[..., None]).astype(float)
    return s, np.zeros_like(s)


def hard(r: int) -> ShrinkageRule:
    """Rank truncation: keep the leading r singular values unchanged."""
    return ShrinkageRule(kind="hard", rank=int(_checked_ints(r, 0)))


def soft(lam: float) -> ShrinkageRule:
    """Soft threshold: shrunk values (d_k - lam)_+."""
    if not lam >= 0:
        raise DomainError("lambda must be nonnegative")
    return ShrinkageRule(kind="soft", lam=float(lam))


def adaptive(lam: float, gamma: float = 2.0) -> ShrinkageRule:
    """Power-weighted threshold: shrunk values (d_k - lam^(g+1) d_k^-g)_+."""
    rule = soft(lam)  # the lambda check
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    if gamma == np.inf:  # s' would be inf * 0
        raise DomainError("gamma must be finite")
    return replace(rule, kind="adaptive", gamma=float(gamma))


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
    """Least-squares fit as sufficient statistics: design factor, H and its SVD, rss.

    A stack of fits holds stacks along the leading axes of y (one rss per
    fit), with one `r_bar`; one 2-d design against a stack of responses keeps
    one gram.
    """

    gram: GramFactors
    hf: HFactor
    rss: np.ndarray  # ||Y - Y_hat||^2, the least-squares residual sum of squares
    r_bar: int

    @property
    def d(self) -> np.ndarray:
        """Singular values of the least-squares fit (equivalently of H)."""
        return self.hf.svd.d

    @property
    def dims(self) -> tuple[int, int]:
        """(n, q): the rows and response columns of each fit."""
        return self.gram.w.shape[-2], self.hf.h.shape[-1]

    @property
    def y_hat(self) -> np.ndarray:
        """Fitted values Y_hat = W H, formed on each call."""
        return self.gram.w @ self.hf.h


def fit_ols(x, y) -> LsFit:
    """Least-squares fit Y_hat = X (X'X)^+ X' Y; valid for any p, q vs n.

    Stacked x (..., n, p) and y (..., n, q) give a stack of fits along their
    leading axes, each slice equal bit for bit to its own fit; the designs of
    a stack must share one rank (``gram_factors``). One 2-d x against a stack
    y (..., n, q) is factored once for every response, with the same bits.
    The rss is summed here, once per fit, for the rank path and sigma_hat.
    """
    return _fit(x, y, gram_factors(x))  # gram_factors validates x


def _fit(x, y, gram: GramFactors) -> LsFit:
    """`fit_ols` on the factor `gram` of x: a fixed design is factored once."""
    y = as_matrix(y, stack=True)
    hf = build_h(x, y, gram)
    rss = np.sum((y - gram.w @ hf.h) ** 2, axis=(-2, -1))  # Y_hat is formed for these bits, then dropped
    return LsFit(gram=gram, hf=hf, rss=rss, r_bar=min(gram.r_x, y.shape[-1]))


def _weights(rule, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one gate from a rule, or a (weights, derivatives) pair, to checked
    weights at the spectrum or stack of spectra `d`. A pair must have the
    shape of d, one row per spectrum it was taken at; else ContractViolationError."""
    s, s_prime = rule.weights(d) if isinstance(rule, ShrinkageRule) else rule
    if {np.shape(s), np.shape(s_prime)} != {np.shape(d)}:  # a rule's weights always pass
        raise ContractViolationError(f"weight pair shapes {np.shape(s)}, {np.shape(s_prime)} != spectra {np.shape(d)}")
    validate_weights(s, s_prime)
    return s, s_prime


def fit_shrunk(ls: LsFit, rule) -> np.ndarray:
    """Fitted values of `rule` applied to the singular values of the
    least-squares fit: Y_hat V diag(s) V', along the leading axes of a stack
    of fits. `rule` may also be a pair taken at ls.d, as `coef_matrix` takes."""
    v = ls.hf.svd.right
    return (ls.y_hat @ (v * _weights(rule, ls.d)[0][..., None, :])) @ v.swapaxes(-1, -2)


def coef_matrix(ls: LsFit, rule) -> np.ndarray:
    """Coefficient matrix B with X @ B = fit_shrunk(ls, rule), lying in the
    row space of X: B = Q S^-1 U diag(s * d) V', along the leading axes of a
    stack of fits. `rule` may also be a (weights, derivatives) pair taken at
    ls.d (`_weights`), such as ``hard_rows(report.chosen, ls.r_bar)``."""
    v = ls.hf.svd.right
    core = (ls.hf.svd.left * (_weights(rule, ls.d)[0] * ls.d)[..., None, :]) @ v.swapaxes(-1, -2)
    return (ls.gram.q_mat / ls.gram.s[..., None, :]) @ core
