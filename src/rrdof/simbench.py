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

from .dof import DofEstimate, _cov_df, _rank_moments, _substream, exact_df_path, naive_df
from .estimators import coef_matrix, fit_ols, hard, hard_rows
from .exceptions import DomainError
from .linalg import _svd, build_h, gram_factors, thin_svd
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
        if self.r0 > min(self.p, self.q):
            raise DomainError("r0 cannot exceed min(p, q)")
        if not 0 < self.sigma2 < np.inf:
            raise DomainError("sigma2 must be positive and finite")
        if not 0 <= self.rho < 1:
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


def gen_instance(cfg: SimConfig, rep_index: int):
    """Return (x, b, y, sigma_eigvecs) for one replication.

    X and B are fixed across replications (drawn from substream 0 of the
    config seed); the error matrix is redrawn per rep_index (substream 1).
    """
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
    return x, b, x @ b + _errors(cfg, rep_index), evecs


def snr(x, b, e) -> float:
    """Smallest nonzero singular value of XB over largest singular value of E."""
    signal = thin_svd(np.asarray(x) @ np.asarray(b)).d
    signal = signal[signal > 1e-10 * signal[0]]
    noise = thin_svd(np.asarray(e)).d
    if noise[0] <= 0:
        raise DomainError("noise matrix is zero; SNR undefined")
    return float(signal[-1] / noise[0])


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

    The exact df comes from the spectrum of each replication's H,
    ``build_h(x, y, gram)``. The covariances are taken in H space (see
    `dof`), so no n x q fit is formed; draws come first, so each mean draw is
    known before its fits. Monte-Carlo truth takes its moments against the
    noise E_t (cov(F, Y) = cov(F, E) for the known XB): per-rank sums of the
    fits and each W'E_t, one r_x x q matrix per replication. The n_pert
    perturbations of replication t (size 0.1 sigma) fill one reused buffer
    in order from one generator, substream (2, t), and one stacked SVD of
    H_t + W'Delta by the sign-free `_svd` gives every rank's moments against
    each draw and the mean draw.
    """
    if cfg.reps < 3 or n_pert < 3:
        raise DomainError("reps and n_pert must be at least 3")
    x, b, _, _ = gen_instance(cfg, 0)  # X and B only; errors are drawn per replication
    xb = x @ b
    gram = gram_factors(x)  # X is fixed: factor it once
    w = (x @ gram.q_mat) / gram.s  # the fit of Y is W H
    r_x, m = gram.r_x, cfg.reps
    r_bar = min(r_x, cfg.q)
    ranks = list(range(1, r_bar + 1))
    tau = 0.1 * float(np.sqrt(cfg.sigma2))
    e_bar = w.T @ (sum(_errors(cfg, t) for t in range(m)) / m)  # the mean noise, before any fit

    exact_vals = np.empty((m, r_bar))
    pert_vals = np.empty((m, r_bar))
    mc_ab = np.empty((2, m, r_bar))
    e_draws = np.empty((m, r_x, cfg.q))  # W'E_t: the noise of each replication in H space
    fit_sum = np.zeros((r_bar, r_x, cfg.q))  # component k of the fits, summed over replications
    draws = np.empty((n_pert, cfg.n, cfg.q))  # the perturbations of one replication, refilled in place
    for t in range(m):
        noise = _errors(cfg, t)
        hf = build_h(x, xb + noise, gram)
        h, f = hf.h, hf.svd
        exact_vals[t] = exact_df_path(f.d, r_x, cfg.q, *hard_rows(ranks, r_bar))[0]
        e_draws[t] = w.T @ noise
        mc_ab[:, t] = _rank_moments(f, np.stack([e_draws[t], e_bar]))
        fit_sum += np.einsum("ik,jk->kij", f.left * f.d, f.right)
        _substream(cfg.seed, 2, t).standard_normal(out=draws)
        g = w.T @ np.multiply(draws, tau, out=draws)
        f_g = _svd(h + g)  # every perturbation of replication t in one stacked SVD
        pert_vals[t] = _cov_df(_rank_moments(f_g, g), _rank_moments(f_g, g.mean(axis=0)), None, tau**2)[0]
        del f_g  # not alive beside the next replication's stack

    mc_c = np.cumsum(e_draws.reshape(m, -1) @ fit_sum.reshape(r_bar, -1).T, axis=1) / m  # <mean fit, W'E_t>
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
    The summary's standard deviations need at least 2 replications."""
    if cfg.reps < 2:
        raise DomainError("reps must be at least 2")
    x, b, _, _ = gen_instance(cfg, 0)
    xb = x @ b
    gram = gram_factors(x)
    res = PredStudyResult(
        config=cfg, est_exact=[], est_naive=[], pred_exact=[], pred_naive=[],
        rank_exact=[], rank_naive=[], prg=[], snr=[],
    )
    for t in range(cfg.reps):
        y = xb + _errors(cfg, t)
        res.snr.append(snr(x, b, y - xb))
        ls = fit_ols(x, y, gram=gram)
        metrics = {}
        for mode, report in select_ranks(ls, _PRED_CRITERIA).items():
            bhat = coef_matrix(ls, hard(report.chosen))
            est = 100.0 * float(np.sum((b - bhat) ** 2)) / (cfg.p * cfg.q)
            pred = 100.0 * float(np.sum((xb - x @ bhat) ** 2)) / (cfg.n * cfg.q)
            metrics[mode] = (est, pred, report.chosen)
        res.est_exact.append(metrics["exact"][0])
        res.est_naive.append(metrics["naive"][0])
        res.pred_exact.append(metrics["exact"][1])
        res.pred_naive.append(metrics["naive"][1])
        res.rank_exact.append(metrics["exact"][2])
        res.rank_naive.append(metrics["naive"][2])
        res.prg.append(100.0 * (metrics["naive"][1] - metrics["exact"][1]) / metrics["exact"][1])
    return res
