"""Effective degrees of freedom for the shrinkage class of reduced-rank fits.

One closed form covers the class: with weights s_k in [0, 1] and derivatives
s_k' on the singular values d_k of the least-squares fit, the exact df is

    max(r_x, q) sum_k s_k + sum_{k<l} (s_k - s_l) C_kl + sum_k d_k s_k',
    C_kl = (d_k^2 + d_l^2) / (d_k^2 - d_l^2).

Hard truncation at rank r is s = 1[k < r]; soft thresholding gives the SVT
divergence. A vanished d_l (at most VANISH_TOL * max(d_1, 1)) takes the limit
C_kl = 1, so a fully vanished tail gives the naive count. Also here: the
singular-value/vector derivative kernels and three independent oracles (an
analytic divergence assembled from those kernels, a central finite-difference
divergence, and Monte-Carlo / data-perturbation covariance estimators).

The derivatives of the SVD H = U D V' (H tall) with respect to h_ij come in
factored form for a whole row i at once: with hv = h_i' V,
G_lk = 1/(d_l^2 - d_k^2) (zero diagonal) and A = V (G o hv[:, None]),

    dd_k/dh_ij = v_jk hv_k / d_k,  dV/dh_ij = -(A o v_j + ((V o v_j) G) o hv),

so the analytic divergence takes one SVD and two q x q products per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import ShrinkageRule, validate_weights
from .exceptions import ContractViolationError, DegeneracyError, DomainError
from .linalg import as_matrix, thin_svd


@dataclass(frozen=True)
class GapPolicy:
    """Handling of near-equal singular values.

    Relative gaps (d_k - d_{k+1}) / d_1 below `rel_gap_tol` either raise
    (mode="error") or set the degenerate flag while still computing
    (mode="flag", the default: the degenerate set has measure zero but
    floating point visits its neighborhood).
    """

    rel_gap_tol: float = 1e-8
    mode: str = "flag"

    def check(self, d: np.ndarray) -> bool:
        d = np.asarray(d, dtype=float)
        if d.size == 0 or d[0] <= 0:
            return False
        gaps = -np.diff(d) / d[0]
        degenerate = bool(gaps.size and np.min(gaps) < self.rel_gap_tol)
        if degenerate and self.mode == "error":
            raise DegeneracyError(
                "near-equal singular values (relative gap below "
                f"{self.rel_gap_tol:g})"
            )
        return degenerate


@dataclass(frozen=True)
class DofEstimate:
    """A degrees-of-freedom value plus its provenance.

    method is one of {naive, exact, analytic_divergence, finite_difference,
    monte_carlo, perturbation}; std_error is populated for the stochastic
    methods.
    """

    value: float
    method: str
    std_error: float | None = None
    degenerate_flag: bool = False


def naive_df(r_x: int, q: int, r: int) -> float:
    """Free-parameter count (r_x + q - r) * r of a rank-r coefficient matrix."""
    if not 0 <= r <= min(r_x, q):
        raise DomainError(f"rank {r} outside [0, {min(r_x, q)}]")
    return float((r_x + q - r) * r)


#: Singular values at most VANISH_TOL * max(d_1, 1) count as vanished.
VANISH_TOL = 1e-12


def _validate_spectrum(d, r_x: int, q: int) -> tuple[np.ndarray, int]:
    """The spectrum as floats and the count of its leading non-vanished
    values, which must be strictly decreasing; vanished ones may follow."""
    d = np.asarray(d, dtype=float)
    r_bar = min(r_x, q)
    if d.size != r_bar:
        raise DomainError(f"expected {r_bar} singular values, got {d.size}")
    tol = VANISH_TOL * np.max(d, initial=1.0)
    live = int(np.count_nonzero(d > tol))
    bad = not np.all((d >= 0) & (d < np.inf)) or np.any(d[live:] > tol)
    if bad or np.any(np.diff(d[:live]) >= 0):
        raise DomainError(
            "singular values must be nonnegative and strictly decreasing "
            f"down to a vanished tail (at most {VANISH_TOL:g} * max(d_1, 1))"
        )
    return d, live


def _df_kernel(d, live: int, r_x: int, q: int, s, s_prime, gp: GapPolicy) -> list[DofEstimate]:
    """The module formula for each row of the (m, r_bar) weights `s`, with C
    built once. The support x non-support block is summed apart from the
    within-support pairs, which vanish for flat (hard) weights."""
    d2 = d**2
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (d2[:, None] + d2[None, :]) / (d2[:, None] - d2[None, :])
    c[:, live:] = 1.0  # limit of the pair term against a vanished value
    c = np.triu(c, 1)
    support = np.count_nonzero(s > 0, axis=1)
    varying = np.ptp(s, axis=1) > 0  # only these rows have pair terms
    degenerate = bool(np.any(varying)) and gp.check(d[:live])
    inside = np.arange(d.size) < support[:, None]
    linear = max(r_x, q) * s.sum(axis=1) + (s_prime * inside) @ d
    out = []
    for w, r, value, vary in zip(s, support, linear, varying):
        w = w[:r]
        value += float(np.sum(w[:, None] * c[:r, r:]))
        if r and w[0] != w[-1]:
            value += float(np.sum((w[:, None] - w[None, :]) * c[:r, :r]))
        out.append(DofEstimate(float(value), "exact", degenerate_flag=degenerate and bool(vary)))
    return out


def exact_df_path(d, r_x: int, q: int, ranks, gp: GapPolicy = GapPolicy()) -> list[DofEstimate]:
    """Exact df of the rank-r fit for every r in `ranks`, from one kernel
    call; entry a equals ``exact_df_rrr(d, r_x, q, ranks[a])`` bit for bit."""
    d, live = _validate_spectrum(d, r_x, q)
    for r in ranks:
        if not 1 <= r <= d.size:
            raise DomainError(f"rank {r} outside [1, {d.size}]")
    s = (np.arange(d.size) < np.asarray(ranks, dtype=int)[:, None]).astype(float)
    return _df_kernel(d, live, r_x, q, s, np.zeros_like(s), gp)


def exact_df_rrr(d, r_x: int, q: int, r: int, gp: GapPolicy = GapPolicy()) -> DofEstimate:
    """Exact unbiased df of the rank-r reduced-rank fit: max(r_x, q) * r plus
    C_kl over kept/discarded pairs; exactly r_x * q at full rank."""
    return exact_df_path(d, r_x, q, [r], gp)[0]


def exact_df_shrunk(
    d, r_x: int, q: int, s, s_prime, gp: GapPolicy = GapPolicy()
) -> DofEstimate:
    """Exact unbiased df of a shrinkage-class fit with weights s, derivatives s'."""
    d, live = _validate_spectrum(d, r_x, q)
    s = np.asarray(s, dtype=float)
    s_prime = np.asarray(s_prime, dtype=float)
    if s.shape != d.shape or s_prime.shape != d.shape:
        raise DomainError("weights and derivatives must match the spectrum length")
    validate_weights(s, s_prime)
    if np.any(s[: np.count_nonzero(s > 0)] <= 0):
        raise ContractViolationError("weight support must be a leading block")
    return _df_kernel(d, live, r_x, q, s[None], s_prime[None], gp)[0]


def _tall(h: np.ndarray) -> np.ndarray:
    # Formulas are stated for r_x >= q; the divergence and the derivative
    # kernels are presented for H' otherwise.
    return h if h.shape[0] >= h.shape[1] else h.T


def _inverse_gaps(d: np.ndarray) -> np.ndarray:
    """G[l, k] = 1 / (d_l^2 - d_k^2) off the diagonal and 0 on it: the
    Moore-Penrose resolvent (D^2 - d_k^2 I)^+ of column k."""
    d2 = d**2
    gaps = d2[:, None] - d2[None, :]
    np.fill_diagonal(gaps, np.inf)
    return 1.0 / gaps


def _check_tied(d: np.ndarray) -> None:
    """Raise on exactly equal singular values, where the derivatives of the
    singular vectors do not exist (G would hold 1/0)."""
    tied = np.flatnonzero(d[1:] == d[:-1])
    if tied.size:
        k = int(tied[0]) + 1
        raise DegeneracyError(
            f"singular values d_{k} and d_{k + 1} are exactly tied ({float(d[k])!r}); "
            "the singular-vector derivatives are undefined"
        )


def _sv_derivative_row(h: np.ndarray, d: np.ndarray, v: np.ndarray, i: int):
    """Derivatives of the SVD of the tall `h` (singular values d, right
    vectors v) with respect to every entry (i, j) of its row i, in factored
    form (hv, dd, a, g): dd[j] holds the derivatives of the singular values
    and the derivative of v is dV_ij = -(a * v[j] + ((v * v[j]) @ g) * hv)."""
    hv = h[i] @ v  # equals d_k * u_{ik}
    dd = v * hv / d
    g = _inverse_gaps(d)
    a = v @ (g * hv[:, None])
    return hv, dd, a, g


def sv_derivatives(
    h, i: int, j: int, gp: GapPolicy = GapPolicy()
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of all singular values and right singular vectors of `h`
    with respect to its (i, j) entry.

    `h` is put in the tall orientation internally (transpose if rows < cols,
    with (i, j) swapped accordingly). Returns (dd, dv): dd[k] is the
    derivative of d_k; column k of dv is the derivative of the k-th right
    singular vector of the tall orientation. With hv = h_i' V and
    G[l, k] = 1/(d_l^2 - d_k^2) (zero diagonal), the Moore-Penrose resolvent
    formula dv_k = -V (D^2 - d_k^2 I)^+ V' (H'Z + Z'H) v_k for Z = e_i e_j'
    factors over all k as

        dd = v[j] * hv / d,  dv = -(A * v[j] + ((V * v[j]) G) * hv),
        A = V (G * hv[:, None]).

    Exactly tied singular values raise DegeneracyError naming the pair.
    """
    h = as_matrix(h)
    if h.shape[0] < h.shape[1]:
        h, (i, j) = h.T, (j, i)
    r_x, q = h.shape
    f = thin_svd(h)
    d, v = f.d, f.right
    if d[-1] <= 0:
        raise DegeneracyError("matrix must have full column rank")
    gp.check(d)
    _check_tied(d)
    if not (0 <= i < r_x and 0 <= j < q):
        raise DomainError(f"entry ({i}, {j}) outside a {r_x}x{q} matrix")
    hv, dd, a, g = _sv_derivative_row(h, d, v, i)
    return dd[j], -(a * v[j] + ((v * v[j]) @ g) * hv)


def divergence_analytic(
    h, rule: ShrinkageRule, gp: GapPolicy = GapPolicy()
) -> DofEstimate:
    """Divergence of the shrunk matrix, assembled from the derivative kernel
    one row of H at a time from one SVD; independent of the closed-form
    estimators. Exactly tied singular values raise DegeneracyError naming
    the pair; near-ties compute and set the degenerate flag."""
    h = _tall(as_matrix(h))
    r_x, q = h.shape
    f = thin_svd(h)
    d, v = f.d, f.right
    if d[-1] <= 0:
        raise DegeneracyError("matrix must have full column rank")
    degenerate = gp.check(d)
    _check_tied(d)
    s, s_prime = rule.weights(d)
    validate_weights(s, s_prime)
    m_trace = float(np.einsum("jk,k,jk->", v, s, v))  # sum of the diagonal of V diag(s) V'
    vvg = (v * v) @ _inverse_gaps(d)  # row j: ((V o V) G)_j, the same for every row i
    total = 0.0
    for i in range(r_x):
        hv, dd, a, g = _sv_derivative_row(h, d, v, i)
        # d h~_ij/dh_ij = [Z M]_ij + [H sum_k s_k (dv_k v_k' + v_k dv_k')]_ij
        #                + [H sum_k s_k' dd_k v_k v_k']_ij, summed over j with
        # row j of hdv = h_i' dV_ij and row j of dvj = row j of dV_ij. Both are
        # the literal entry derivatives: shortening the sum with V'V = I (some
        # parts sum to zero) would lead back to the closed form.
        hdv = -((h[i] @ a) * v + ((v * hv) @ g) * hv)
        dvj = -(a * v + vvg * hv)
        total += m_trace + float(np.sum(s * (hdv * v + hv * dvj)))
        total += float(np.sum(s_prime * dd * hv * v))
    return DofEstimate(value=total, method="analytic_divergence", degenerate_flag=degenerate)


def _apply_rule(h: np.ndarray, rule: ShrinkageRule) -> np.ndarray:
    f = thin_svd(h)
    s, _ = rule.weights(f.d)
    return (f.left * (s * f.d)[None, :]) @ f.right.T


def divergence_fd(h, rule: ShrinkageRule, step: float = 1e-6) -> DofEstimate:
    """Central finite-difference estimate of the divergence of the shrunk matrix."""
    if step <= 0:
        raise DomainError("step must be positive")
    h = _tall(as_matrix(h)).copy()
    r_x, q = h.shape
    total = 0.0
    for i in range(r_x):
        for j in range(q):
            orig = h[i, j]
            h[i, j] = orig + step
            plus = _apply_rule(h, rule)[i, j]
            h[i, j] = orig - step
            minus = _apply_rule(h, rule)[i, j]
            h[i, j] = orig
            total += (plus - minus) / (2.0 * step)
    return DofEstimate(value=total, method="finite_difference")


def _substream(seed: int, *path: int) -> np.random.Generator:
    """Reproducible substream keyed by (seed, path); order-independent."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path)))


def _cov_value(fitted: np.ndarray, draws: np.ndarray, scale: float) -> float:
    """Sum of sample covariances cov(fitted_ij, draws_ij)/scale over
    arrays of shape (reps, n*q)."""
    m = fitted.shape[0]
    cross = np.einsum("ti,ti->", fitted, draws)
    return float((cross - m * float(fitted.mean(axis=0) @ draws.mean(axis=0))) / (m - 1) / scale)


def _cov_df(fitted: np.ndarray, draws: np.ndarray, scale: float) -> tuple[float, float]:
    """`_cov_value` plus its leave-one-out jackknife standard error."""
    m = fitted.shape[0]
    # Jackknife: recompute the summed covariance leaving out each replication.
    s_ab = np.einsum("ti,ti->t", fitted, draws)  # per-rep inner products
    tot_ab = np.einsum("ti,ti->", fitted, draws)
    sum_a = fitted.sum(axis=0)
    sum_b = draws.sum(axis=0)
    loo = np.empty(m)
    for t in range(m):
        ab = tot_ab - s_ab[t]
        mean_dot = float((sum_a - fitted[t]) @ (sum_b - draws[t])) / (m - 1)
        loo[t] = (ab - mean_dot) / (m - 2) / scale
    se = float(np.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)))
    return _cov_value(fitted, draws, scale), se


def mc_df(
    mean,
    sigma2: float,
    fitter: Callable[[np.ndarray], np.ndarray],
    reps: int,
    seed: int,
) -> DofEstimate:
    """Monte-Carlo estimate of sum_ij cov(mu_hat_ij, y_ij) / sigma2.

    Draws Y = mean + Gaussian noise of variance sigma2, refits each draw, and
    uses unbiased sample covariances across replications.
    """
    if reps < 3:
        raise DomainError("reps must be at least 3")
    if sigma2 <= 0:
        raise DomainError("sigma2 must be positive")
    mean = as_matrix(mean)
    n, q = mean.shape
    fitted = np.empty((reps, n * q))
    draws = np.empty((reps, n * q))
    sd = float(np.sqrt(sigma2))
    for t in range(reps):
        rng = _substream(seed, 0, t)
        y = mean + sd * rng.standard_normal(mean.shape)
        draws[t] = y.ravel()
        fitted[t] = np.asarray(fitter(y), dtype=float).ravel()
    value, se = _cov_df(fitted, draws, sigma2)
    return DofEstimate(value=value, method="monte_carlo", std_error=se)


def perturbation_df(
    y,
    fitter: Callable[[np.ndarray], np.ndarray],
    n_pert: int,
    tau: float,
    seed: int,
) -> DofEstimate:
    """Data-perturbation estimate sum_ij cov(mu_hat_ij(Y + D), D_ij) / tau^2
    over Gaussian perturbations D with entrywise standard deviation tau."""
    if n_pert < 3:
        raise DomainError("n_pert must be at least 3")
    if tau <= 0:
        raise DomainError("tau must be positive")
    y = as_matrix(y)
    n, q = y.shape
    fitted = np.empty((n_pert, n * q))
    deltas = np.empty((n_pert, n * q))
    for t in range(n_pert):
        rng = _substream(seed, 1, t)
        delta = tau * rng.standard_normal(y.shape)
        deltas[t] = delta.ravel()
        fitted[t] = np.asarray(fitter(y + delta), dtype=float).ravel()
    value, se = _cov_df(fitted, deltas, tau**2)
    return DofEstimate(value=value, method="perturbation", std_error=se)
