"""Seeded simulation studies: df-estimator comparison and prediction accuracy.

Data model: rows of X are drawn once per study from N_p(0, Sigma) with
AR-type correlation Sigma_jj' = rho^|j-j'|; the true coefficient matrix B has
left singular vectors equal to the leading eigenvectors of Sigma, right
singular vectors from an orthogonalized Gaussian matrix, and nonzero singular
values (r0*gap, ..., 2*gap, gap). Errors are redrawn i.i.d. Gaussian per
replication through order-independent substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pipeline
from .dof import DofEstimate, _cov_df, _h_space_cov, _rank_moments, _substream, exact_df_path, naive_df
from .estimators import _checked_ints, _fit, coef_matrix, hard_rows
from .exceptions import DomainError
from .linalg import _two_threads, build_h, gram_factors, thin_svd
from .selection import Criterion, select_ranks


@dataclass(frozen=True)
class SimConfig:
    n: int
    p: int
    q: int
    r0: int
    sigma2: float = 1.0
    rho: float = 0.3
    sv_gap: float = 2.0
    reps: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "p", "q"):
            object.__setattr__(self, name, int(_checked_ints(getattr(self, name), 1, what=name)))
        object.__setattr__(self, "r0", int(_checked_ints(self.r0, 0, min(self.p, self.q), what="r0")))
        for name in ("sv_gap", "sigma2"):
            if not 0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite")
        if not 0 <= self.rho < 1.0:
            raise DomainError("rho must be in [0, 1)")


#: Named presets. setting1/setting2 mirror the df study at published sizes;
#: the *_desk variants are scaled down so CI finishes in minutes; ld/hd are
#: the prediction-study configurations.
PRESETS: dict[str, SimConfig] = {
    "setting1": SimConfig(n=100, p=20, q=12, r0=6, sigma2=1.0, rho=0.3, reps=200),
    "setting2": SimConfig(n=40, p=80, q=50, r0=10, sigma2=1.0, rho=0.3, reps=200),
    "setting1_desk": SimConfig(n=50, p=10, q=8, r0=4, sigma2=1.0, rho=0.3, reps=200),
    "ld": SimConfig(n=50, p=12, q=10, r0=3, sigma2=1.0, rho=0.5, reps=100),
    "hd": SimConfig(n=40, p=80, q=50, r0=5, sigma2=4.0, rho=0.5, reps=100),
}


def _ar_cov(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols))
    qmat, rmat = np.linalg.qr(g)
    # sign normalization for reproducibility
    qmat = qmat * np.sign(np.diag(rmat))[None, :]
    return qmat


def _errors(cfg: SimConfig, rep_index: int) -> np.ndarray:
    """The error matrix of one replication (substream (1, rep_index))."""
    return np.sqrt(cfg.sigma2) * _substream(cfg.seed, 1, rep_index).standard_normal((cfg.n, cfg.q))


def _design(cfg: SimConfig):
    """(x, b, sigma_eigvecs): X and B, fixed across replications (substream 0)."""
    rng_fixed = _substream(cfg.seed, 0)
    sigma = _ar_cov(cfg.p, cfg.rho)
    evals, evecs = np.linalg.eigh(sigma)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]

    # X: rows i.i.d. N(0, Sigma)
    x = rng_fixed.standard_normal((cfg.n, cfg.p)) @ (evecs * np.sqrt(evals)[None, :]).T

    sv = cfg.sv_gap * np.arange(cfg.r0, 0, -1)
    right = _orthonormal_columns(rng_fixed, cfg.q, cfg.r0)
    b = (evecs[:, : cfg.r0] * sv[None, :]) @ right.T
    return x, b, evecs


def gen_instance(cfg: SimConfig, rep_index: int):
    """Return (x, b, y, sigma_eigvecs) for one replication: the fixed design
    of `_design` and the errors of rep_index (substream 1)."""
    x, b, evecs = _design(cfg)
    return x, b, x @ b + _errors(cfg, rep_index), evecs


def snr(x, b, e):
    """Smallest nonzero singular value of XB over largest singular value of E;
    of a stack of error matrices (..., n, q), one ratio per matrix."""
    signal = thin_svd(np.asarray(x) @ np.asarray(b)).d
    if not signal[:1].any():
        raise DomainError("signal XB is zero; SNR undefined")
    signal = signal[signal > 1e-10 * signal[0]]
    noise = thin_svd(np.asarray(e)).d[..., 0]
    if np.any(noise <= 0):
        raise DomainError("noise matrix is zero; SNR undefined")
    return signal[-1] / noise


@dataclass
class DofStudyResult:
    """Per-rank df estimates across replications (means and standard errors)."""

    config: SimConfig
    ranks: list[int]
    naive: list[float]
    exact_mean: list[float]
    exact_se: list[float]
    exact_values: np.ndarray = field(repr=False)  # (reps, n_ranks)
    perturb_mean: list[float]
    perturb_se: list[float]
    mc: list[DofEstimate]


def run_dof_study(cfg: SimConfig, n_pert: int = 50) -> DofStudyResult:
    """Replicate the df comparison: exact vs naive vs perturbation vs
    Monte-Carlo truth, per candidate rank.

    Two passes. The first runs on the caller, in replication order: each
    replication's H and its SVD (``build_h(x, y, gram)``), the Monte-Carlo
    moments and the per-rank fit sums. Monte-Carlo truth takes its moments
    against the noise E_t (cov(F, Y) = cov(F, E) for the known XB): per-rank
    sums of the fits and each W'E_t, one r_x x q matrix per replication,
    from one stack of every E_t; H_t then takes the first r_x rows of E_t.
    The exact df of every replication comes from one `exact_df_path` call on
    the stack of spectra. The second pass runs whole replications on
    `linalg._two_threads`: each feeds that H_t and its n_pert perturbations
    (size 0.1 sigma), in order from substream (2, t), to `dof._h_space_cov`
    at every rank, whose own plan then runs inline on that thread. The
    covariances are taken in H space (see `dof`), with the draws before the
    fits, so no value depends on the thread that ran a replication.
    """
    m = int(_checked_ints(cfg.reps, 3, what="reps"))
    n_pert = int(_checked_ints(n_pert, 3, what="n_pert"))
    x, b = _design(cfg)[:2]
    xb = x @ b
    gram = gram_factors(x)  # X is fixed: factor it once
    w, r_x = gram.w, gram.r_x  # the fit of Y is W H
    r_bar = min(r_x, cfg.q)
    ranks = list(range(1, r_bar + 1))
    tau = 0.1 * float(np.sqrt(cfg.sigma2))
    noise = np.stack([_errors(cfg, t) for t in range(m)])  # E_t of every replication, then H_t
    e_bar = w.T @ (noise.sum(axis=0) / m)  # the mean noise, before any fit
    e_draws = w.T @ noise  # W'E_t: the noise of each replication in H space

    spectra = np.empty((m, r_bar))
    mc_ab = np.empty((2, m, r_bar))
    fit_sum = np.zeros((r_bar, r_x, cfg.q))  # component k of the fits, summed over replications
    for t in range(m):
        hf = build_h(x, xb + noise[t], gram)
        noise[t, :r_x] = hf.h  # E_t is read no more
        spectra[t] = hf.svd.d
        mc_ab[:, t] = _rank_moments(hf.svd, np.stack([e_draws[t], e_bar]))
        fit_sum += np.einsum("ik,jk->kij", hf.svd.left * hf.svd.d, hf.svd.right)
    mc_c = np.cumsum(e_draws.reshape(m, -1) @ fit_sum.reshape(r_bar, -1).T, axis=1) / m  # <mean fit, W'E_t>
    del fit_sum, e_draws  # freed before two threads draw at once
    exact_vals = exact_df_path(spectra, r_x, cfg.q, *hard_rows(ranks, r_bar))[0]

    pert_vals = np.empty((m, r_bar))

    def perturb(lo, hi):
        for t in range(lo, hi):
            pert_vals[t] = _h_space_cov(noise[t, :r_x], w, _substream(cfg.seed, 2, t), n_pert, tau, tau**2)[0]

    _two_threads(perturb, m, 1)
    mc = [DofEstimate(value=float(v), method="monte_carlo", std_error=float(se))
          for v, se in zip(*_cov_df(mc_ab[0], mc_ab[1], mc_c, cfg.sigma2))]
    return DofStudyResult(
        config=cfg,
        ranks=ranks,
        naive=naive_df(r_x, cfg.q, ranks),
        exact_mean=list(exact_vals.mean(axis=0)),
        exact_se=list(exact_vals.std(axis=0, ddof=1) / np.sqrt(m)),
        exact_values=exact_vals,
        perturb_mean=list(pert_vals.mean(axis=0)),
        perturb_se=list(pert_vals.std(axis=0, ddof=1) / np.sqrt(m)),
        mc=mc,
    )


@dataclass
class PredStudyResult:
    """Per-replication prediction metrics for exact-df vs naive-df selection."""

    config: SimConfig
    est_exact: list[float]
    est_naive: list[float]
    pred_exact: list[float]
    pred_naive: list[float]
    rank_exact: list[int]
    rank_naive: list[int]
    prg: list[float]
    snr: list[float]

    def summary(self) -> dict:
        def ms(v):
            a = np.asarray(v, dtype=float)
            return {"mean": float(a.mean()), "std": float(a.std(ddof=1))}

        return {
            "est": {"exact": ms(self.est_exact), "naive": ms(self.est_naive)},
            "pred": {"exact": ms(self.pred_exact), "naive": ms(self.pred_naive)},
            "rank": {"exact": ms(self.rank_exact), "naive": ms(self.rank_naive)},
            "prg": {**ms(self.prg), "median": float(np.median(self.prg))},
            "snr": ms(self.snr),
        }


#: GCV under both df modes, keyed by mode.
_PRED_CRITERIA = {mode: Criterion(kind="gcv", df_mode=mode) for mode in ("exact", "naive")}


def run_pred_study(cfg: SimConfig) -> PredStudyResult:
    """GCV selection with exact vs naive df: estimation error, prediction
    error (both scaled by 100 per entry), selected rank, and per-replication
    percentage relative gain PRG = 100 (Pred_naive - Pred_exact)/Pred_exact.
    Replications run in stacks of at most ``pipeline.STACK_BYTES`` of
    responses and coefficients (at least one), so memory does not grow with
    reps: one factor of X, then per stack one fit on it, one ``select_ranks``
    call and one coefficient product per df mode, each replication its own
    ``fit_ols``'s bit for bit. The summary's standard deviations need at
    least 2 replications."""
    reps = int(_checked_ints(cfg.reps, 2, what="reps"))
    x, b, _ = _design(cfg)
    xb, gram = x @ b, gram_factors(x)  # X is fixed: factor it once for every stack
    per_stack = max(1, pipeline.STACK_BYTES // (8 * (cfg.n + cfg.p) * cfg.q))
    stacks = []
    for lo in range(0, reps, per_stack):
        y = xb + np.stack([_errors(cfg, t) for t in range(lo, min(lo + per_stack, reps))])
        ls = _fit(x, y, gram)
        fields = {"snr": snr(x, b, y - xb)}
        for mode, report in select_ranks(ls.d, ls.rss, ls.gram.r_x, cfg.n, cfg.q, _PRED_CRITERIA).items():
            bhat = coef_matrix(ls, hard_rows(report.chosen, ls.r_bar))
            fields[f"est_{mode}"] = 100.0 * np.sum((b - bhat) ** 2, axis=(-2, -1)) / (cfg.p * cfg.q)
            fields[f"pred_{mode}"] = 100.0 * np.sum((xb - x @ bhat) ** 2, axis=(-2, -1)) / (cfg.n * cfg.q)
            fields[f"rank_{mode}"] = np.asarray(report.chosen)
        stacks.append(fields)
    fields = {name: np.concatenate([stack[name] for stack in stacks]) for name in stacks[0]}
    exact, naive = fields["pred_exact"], fields["pred_naive"]
    fields["prg"] = 100.0 * (naive - exact) / exact
    return PredStudyResult(config=cfg, **{name: v.tolist() for name, v in fields.items()})
