"""Effective degrees of freedom for the shrinkage class of reduced-rank fits.

One closed form covers the class: with weights s_k in [0, 1] and derivatives
s_k' on the singular values d_k of the least-squares fit, the exact df is

    max(r_x, q) sum_k s_k + sum_{k<l} (s_k - s_l) C_kl + sum_k d_k s_k',
    C_kl = (d_k^2 + d_l^2) / (d_k^2 - d_l^2).

Hard truncation at rank r is s = 1[k < r]; soft thresholding gives the SVT
divergence. The pair term is linear in one hard-rank path: with
delta_r = s_r - s_{r+1} >= 0 (s_{r_bar+1} = 0) and P_r = sum_{k<=r<l} C_kl,
the pair term of hard rank r, it is sum_r delta_r P_r. A vanished d_l (at
most VANISH_TOL * max(d_1, 1)) takes the limit C_kl = 1, so a fully vanished
tail gives the naive count. Also here: the singular-value/vector derivative
kernels and three independent oracles (an analytic divergence assembled from
those kernels, a central finite-difference divergence, and Monte-Carlo /
data-perturbation covariance estimators).

The covariance estimators close in the moments a_t = <F_t, D_t>,
b_t = <F_t, mean D> and c_t = <mean F, D_t> of fits F_t and draws D_t
(`_cov_df`). With W = X Q S^-1 (`gram.w`, orthonormal) the fit of Y + D under
a rule is W f(H + G), G = W'D, so <F, D> = sum_k s_k d_k u_k' G v_k on the SVD
of H + G, with no n x q fit. One function serves the oracles and the df study:
`_h_space_cov` draws G, factors H + G_t in bounded stacks, under a rule or at
every hard rank at once (`_rank_moments`), and returns `_cov_df`'s values.

The derivatives of the SVD H = U D V' (H tall) with respect to h_ij come in
factored form for a whole row i at once: with hv = h_i' V,
G_lk = 1/(d_l^2 - d_k^2) (zero diagonal) and A = V (G o hv[:, None]),

    dd_k/dh_ij = v_jk hv_k / d_k,  dV/dh_ij = -(A o v_j + ((V o v_j) G) o hv),

so the analytic divergence takes one SVD and two q x q products per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import LsFit, ShrinkageRule, _checked_ints, _weights, hard_rows, validate_weights
from .exceptions import ContractViolationError, DegeneracyError, DomainError
from .linalg import SvdFactors, _svd, _two_threads, as_matrix, thin_svd


#: Relative gaps (d_k - d_{k+1}) / d_1 below this count as near-equal.
REL_GAP_TOL = 1e-8


def _near_tie(d: np.ndarray, live) -> np.ndarray:
    """Whether the leading `live` values of the decreasing spectrum `d` (or of
    each of a stack) have a relative gap below `REL_GAP_TOL`. A near-tie
    still computes and sets the degenerate flag: the degenerate set has
    measure zero but floating point visits its neighborhood."""
    with np.errstate(divide="ignore", invalid="ignore"):  # d_1 = 0 only when live = 0
        gaps = -np.diff(d, axis=-1) / d[..., :1]
    in_live = np.arange(1, d.shape[-1]) < np.asarray(live)[..., None]  # gap k lies between d_k and d_{k+1}
    return np.any((gaps < REL_GAP_TOL) & in_live, axis=-1)


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


def naive_df(r_x: int, q: int, r) -> float | list[float]:
    """Free-parameter count (r_x + q - r) * r of a rank-r coefficient matrix;
    a list of counts for a sequence of ranks."""
    ranks = _checked_ints(r, 0, min(r_x, q))
    return ((r_x + q - ranks) * ranks).astype(float).tolist()


#: Singular values at most VANISH_TOL * max(d_1, 1) count as vanished.
VANISH_TOL = 1e-12


def _where(v: np.ndarray, bad_value: np.ndarray, bad_pair: np.ndarray, stack: str, names: list[str]) -> str:
    """'<names[j]> = value' of the first flagged entry of `v` (..., k), in C order; its
    predecessor's first if only `bad_pair` flags it, and '<stack> i, ' first in a stack."""
    at = tuple(int(i) for i in np.unravel_index(np.argmax(bad_value | bad_pair), v.shape))
    j, lead = at[-1], at[:-1]
    where = f"{names[j]} = {float(v[at])!r}"
    if not bad_value[at]:
        where = f"{names[j - 1]} = {float(v[(*lead, j - 1)])!r} and {where}"
    if lead:
        where = f"{stack} {lead[0] if len(lead) == 1 else lead}, {where}"
    return where


def _validate_spectrum(d, r_x: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum as floats and the count of its leading non-vanished
    values, which must be strictly decreasing; vanished ones may follow. A
    stack (..., r_bar) of spectra gives one count per spectrum. The error
    names the first bad value, or the first pair out of order, and for a
    stack the spectrum holding it."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    r_bar = min(r_x, q)
    if d.shape[-1] != r_bar:
        raise DomainError(f"expected {r_bar} singular values, got {d.shape[-1]}")
    tol = VANISH_TOL * d.max(axis=-1, initial=1.0, keepdims=True)
    above = d > tol
    live = np.count_nonzero(above, axis=-1)
    in_tail = np.arange(r_bar) >= live[..., None]
    bad_value = ~((d >= 0) & (d < np.inf))
    bad_pair = np.zeros(d.shape, dtype=bool)  # at j: d_j and d_{j+1} (1-based) are out of order
    bad_pair[..., 1:] = (above & in_tail)[..., 1:] | ((d[..., 1:] >= d[..., :-1]) & ~in_tail[..., 1:])
    if (bad_value | bad_pair).any():
        raise DomainError(
            "singular values must be nonnegative and strictly decreasing "
            f"down to a vanished tail (at most {VANISH_TOL:g} * max(d_1, 1)): "
            + _where(d, bad_value, bad_pair, "spectrum", [f"d_{k}" for k in range(1, r_bar + 1)])
        )
    return d, live


def _df_kernel(d, live, r_x: int, q: int, s, s_prime) -> np.ndarray:
    """max(r_x, q) sum s + delta . P + (s' o support) . d for every row of the
    (m, r_bar) weights `s`, with P built from one column of C at a time, so a
    stack (..., r_bar) of spectra `d` (one `live` count each) gives (..., m)
    values without an r_bar x r_bar matrix per spectrum. A delta_r = 0 adds
    exactly 0 even where P_r is infinite; a hard row gets P_r itself."""
    d2 = d**2
    tail, hard_pair = np.zeros(d.shape), np.zeros(d.shape)  # tail[k] = sum_{l>=j} C_kl; P_{r_bar} = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(d.shape[-1] - 1, 0, -1):
            c = (d2[..., :j] + d2[..., j, None]) / (d2[..., :j] - d2[..., j, None])  # C_kj, k < j
            np.copyto(c, 1.0, where=(j >= live)[..., None])  # limit of the pair term against a vanished value
            tail[..., :j] += c
            hard_pair[..., j - 1] = np.cumsum(tail[..., :j], axis=-1)[..., -1]  # P_j: sum of tail[k < j]
    delta = s.copy()
    delta[:, :-1] -= s[:, 1:]
    pair = np.empty(d.shape[:-1] + (len(s),))
    for t in np.ndindex(d.shape[:-1]):  # one spectrum at a time: no (..., m, r_bar) array
        pair[t] = (delta * np.where(delta != 0, hard_pair[t], 0.0)).sum(axis=-1)
    # one (1, r_bar) @ (r_bar, 1) dot per row: a row scores the same alone or among others
    slope = (np.where(s > 0, s_prime, 0.0)[:, None, :] @ d[..., None, :, None])[..., 0, 0]
    return max(r_x, q) * s.sum(axis=1) + pair + slope


def exact_df_path(d, r_x: int, q: int, s, s_prime) -> tuple[np.ndarray, np.ndarray]:
    """Exact df and degenerate flag of every row of the (m, r_bar) weights
    `s` (hard ranks: `hard_rows`; a rule: its weights at d) and their
    derivatives `s_prime`, from one kernel call; rows are checked as by
    `validate_weights` and for a leading-block support. A row is flagged when
    it is not constant and the non-vanished spectrum has a near-tie. A stack
    (..., r_bar) of spectra gives (..., m) values and flags."""
    d, live = _validate_spectrum(d, r_x, q)
    s = np.ascontiguousarray(s, dtype=float)  # C order: s.sum sums each row as a one-row call does
    s_prime = np.asarray(s_prime, dtype=float)
    if s.ndim != 2 or s.shape[1] != d.shape[-1] or s_prime.shape != s.shape:
        raise DomainError(f"weights and derivatives must be rows of {d.shape[-1]} "
                          f"(the spectrum length), got shapes {s.shape} and {s_prime.shape}")
    validate_weights(s, s_prime)
    if np.any((s <= 0) & (np.arange(s.shape[1]) < np.count_nonzero(s > 0, axis=1)[:, None])):
        raise ContractViolationError("weight support must be a leading block")
    varying = np.any(s[:, 1:] != s[:, :-1], axis=1)  # a constant row has no pair term
    return _df_kernel(d, live, r_x, q, s, s_prime), varying & _near_tie(d, live)[..., None]


def exact_df_rrr(d, r_x: int, q: int, r: int) -> DofEstimate:
    """Exact unbiased df of the rank-r reduced-rank fit: max(r_x, q) * r plus
    C_kl over kept/discarded pairs; exactly r_x * q at full rank."""
    return exact_df_shrunk(d, r_x, q, *hard_rows(r, min(r_x, q)))


def exact_df_shrunk(d, r_x: int, q: int, s, s_prime) -> DofEstimate:
    """Exact unbiased df of a shrinkage-class fit with weights s, derivatives
    s' on one spectrum: the one-row `exact_df_path`."""
    if np.ndim(d) > 1:
        raise DomainError("exact_df_shrunk takes one spectrum; exact_df_path takes a stack")
    values, flags = exact_df_path(d, r_x, q, [s], [s_prime])
    return DofEstimate(float(values[0]), "exact", degenerate_flag=bool(flags[0]))


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


def _tall_svd(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray]:
    """Singular values d, right vectors v, the near-tie flag and the inverse
    gaps G of the tall validated `h`. Raise unless h has full column rank, and
    on exactly equal singular values, where the derivatives of the singular
    vectors do not exist (G would hold 1/0)."""
    f = thin_svd(h)
    d = f.d
    if d[-1] <= 0:
        raise DegeneracyError("matrix must have full column rank")
    degenerate = bool(_near_tie(d, d.size))
    tied = np.flatnonzero(d[1:] == d[:-1])
    if tied.size:
        k = int(tied[0]) + 1
        raise DegeneracyError(
            f"singular values d_{k} and d_{k + 1} are exactly tied ({float(d[k])!r}); "
            "the singular-vector derivatives are undefined"
        )
    return d, f.right, degenerate, _inverse_gaps(d)


def _sv_derivative_row(h: np.ndarray, d: np.ndarray, v: np.ndarray, g: np.ndarray, i: int):
    """Derivatives of the SVD of the tall `h` (singular values d, right
    vectors v, inverse gaps g) with respect to every entry (i, j) of its row
    i, in factored form (hv, dd, a): dd[j] holds the derivatives of the
    singular values and dV_ij = -(a * v[j] + ((v * v[j]) @ g) * hv)."""
    hv = h[i] @ v  # equals d_k * u_{ik}
    dd = v * hv / d
    a = v @ (g * hv[:, None])
    return hv, dd, a


def sv_derivatives(h, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
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

    Exactly tied singular values raise DegeneracyError naming the pair, and
    an (i, j) that is not an entry of `h` DomainError naming i or j.
    """
    h = as_matrix(h)
    i = int(_checked_ints(i, 0, h.shape[0] - 1, what="i"))
    j = int(_checked_ints(j, 0, h.shape[1] - 1, what="j"))
    if h.shape[0] < h.shape[1]:
        h, (i, j) = h.T, (j, i)
    d, v, _, g = _tall_svd(h)
    hv, dd, a = _sv_derivative_row(h, d, v, g, i)
    return dd[j], -(a * v[j] + ((v * v[j]) @ g) * hv)


def divergence_analytic(h, rule: ShrinkageRule) -> DofEstimate:
    """Divergence of the shrunk matrix, assembled from the derivative kernel
    one row of H at a time from one SVD; independent of the closed-form
    estimators. Exactly tied singular values raise DegeneracyError naming
    the pair; near-ties compute and set the degenerate flag. `rule` may also
    be a (weights, derivatives) pair taken at the spectrum of H (`_weights`)."""
    h = _tall(as_matrix(h))
    r_x, q = h.shape
    d, v, degenerate, g = _tall_svd(h)
    s, s_prime = _weights(rule, d)
    m_trace = float(np.einsum("jk,k,jk->", v, s, v))  # sum of the diagonal of V diag(s) V'
    vvg = (v * v) @ g  # row j: ((V o V) G)_j, the same for every row i
    total = 0.0
    for i in range(r_x):
        hv, dd, a = _sv_derivative_row(h, d, v, g, i)
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
    """Overwrite each matrix of the stack `h` with its shrunk fit, as of that
    matrix alone, and return `h`."""
    f = _svd(h)  # U diag(s d) V' is exactly unchanged when a pair (u_k, v_k) is negated
    s, _ = _weights(rule, f.d)
    np.multiply(f.left, (s * f.d)[..., None, :], out=f.left)  # in place: the factors are fresh
    return np.matmul(f.left, f.right.swapaxes(-1, -2), out=h)


#: Step of the central differences in `divergence_fd`.
FD_STEP = 1e-6

#: Bytes of one stack of copies of H (`divergence_fd`), draws or H + G_t (the
#: H-space engine): at most 11 copies of a 39x36 H. `_two_threads` cuts the
#: stacks of H near-equal. Larger stacks only hold more memory.
SHARED_STACK_BYTES = 1 << 17


def _refuse_pair(rule) -> None:
    """Refuse a pair before any copy or draw: each needs the weights at its own
    spectrum, and a pair tiled to their count passes `_weights`' shape gate."""
    if not isinstance(rule, ShrinkageRule):
        raise ContractViolationError("a perturbing oracle takes a rule, not a (weights, derivatives) pair: "
                                     "each perturbed copy or draw needs the weights at its own spectrum")


def divergence_fd(h, rule: ShrinkageRule) -> DofEstimate:
    """Central finite-difference estimate of the divergence of the shrunk
    matrix; H is validated once, not per perturbed copy. The copies with
    entry (i, j) moved by +-FD_STEP are fitted in near-equal stacks of up to
    `SHARED_STACK_BYTES` on `linalg._two_threads`, each fit in full and read
    at (i, j). The quotients are summed in (i, j) order after both threads
    finish: the value of a loop over single copies, bit for bit. Each copy
    needs the weights at its own spectrum, so a (weights, derivatives) pair
    is refused (`_refuse_pair`)."""
    _refuse_pair(rule)
    h = _tall(as_matrix(h))
    fits = np.empty(2 * h.size)

    def fit_stack(lo, hi):
        ids = np.arange(lo, hi)  # copy 2e moves entry e up, 2e + 1 down
        entry = (ids - lo, *np.divmod(ids // 2, h.shape[1]))
        copies = np.repeat(h[None], ids.size, axis=0)
        copies[entry] = h[entry[1:]] + np.where(ids % 2, -FD_STEP, FD_STEP)
        fits[lo:hi] = _apply_rule(copies, rule)[entry]

    _two_threads(fit_stack, fits.size, SHARED_STACK_BYTES // h.nbytes)  # an error never reaches the sum
    total = 0.0
    for quotient in ((fits[0::2] - fits[1::2]) / (2.0 * FD_STEP)).tolist():
        total += quotient  # one at a time, not pairwise as np.sum: the per-copy loop's bits
    return DofEstimate(value=total, method="finite_difference")


def _substream(seed: int, *path: int) -> np.random.Generator:
    """Reproducible substream keyed by (seed, path); order-independent, so a
    study may draw before it fits. Every seeded draw in rrdof uses it:

        simbench  (0,) X and B; (1, t) errors of replication t;
                  (2, t) the perturbations of replication t
        pipeline  (3, t) eval split t
        mc_df / perturbation_df  (0,) / (1,) of their own seed

    A batch of draws comes from one generator in order, so draw t is the
    t-th block and a shorter run draws a prefix of a longer one's draws.
    The seed must be a nonnegative integer; a Python int skips the check.
    """
    seed = seed if type(seed) is int and seed >= 0 else int(_checked_ints(seed, 0, what="seed"))
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(seq)


def _cov_df(a: np.ndarray, b: np.ndarray, c: np.ndarray | None, scale: float) -> tuple:
    """Covariance df of k candidates over m draws and its leave-one-out
    jackknife standard error, from the (m, k) or (m,) moments a, b, c (module
    docstring); with c None the errors are None. The value is
    (sum a - sum b) / ((m - 1) scale). Leaving draw t out leaves
    <sum F - F_t, sum D - D_t> = m sum b - m c_t - m b_t + a_t, so the
    jackknife values deviate from their mean by -m / ((m - 1)(m - 2) scale)
    times the deviations of a_t - b_t - c_t."""
    m = a.shape[0]
    value = np.sum(a - b, axis=0) / ((m - 1) * scale)
    if c is None:
        return value, None
    f = a - b - c
    se = np.sqrt(m / (m - 1) * np.sum((f - f.mean(axis=0)) ** 2, axis=0)) / ((m - 2) * scale)
    return value, se


def _sv_terms(f: SvdFactors, g: np.ndarray) -> np.ndarray:
    """d_k u_k' G v_k for the thin SVD f of one H or a stack of them and each
    G of the stack g (..., r_x, q)."""
    terms = g @ f.right
    terms *= f.left  # in place: one stack of products alive at a time
    return f.d * np.sum(terms, axis=-2)


def _rank_moments(f: SvdFactors, g: np.ndarray) -> np.ndarray:
    """<H_r, G> at every rank r: cumulative sums of `_sv_terms`."""
    return np.cumsum(_sv_terms(f, g), axis=-1)


def _h_space_cov(h: np.ndarray, w: np.ndarray, rng: np.random.Generator, m: int, sd: float,
                 scale: float, rule: ShrinkageRule | None = None) -> tuple:
    """`_cov_df` of the fits f(H + G_t) against G_t = W'(sd Z_t), for m standard
    normal (n, q) draws Z_t from `rng`, in order, drawn in chunks of at most
    `SHARED_STACK_BYTES`: every hard rank's values and no error with `rule`
    None, else the rule's at each draw's spectrum. `_svd` factors near-equal
    stacks of that budget on `_two_threads`; the stacks' fit sums for c_t are
    added in stack order after the join: no bit depends on threads."""
    g = np.empty((m, *h.shape))
    per_chunk = max(1, SHARED_STACK_BYTES // (8 * w.shape[0] * h.shape[1]))
    for lo in range(0, m, per_chunk):
        draws = rng.standard_normal((min(per_chunk, m - lo), w.shape[0], h.shape[1]))
        g[lo:lo + len(draws)] = w.T @ np.multiply(draws, sd, out=draws)
    g_bar = g.mean(axis=0)
    ab = np.empty((2, m, min(h.shape)) if rule is None else (2, m))
    fit_sums = {}  # by stack start, added in stack order for c_t = <mean F, G_t>

    def moments(lo, hi):
        f = _svd(h + g[lo:hi])
        if rule is None:
            ab[:, lo:hi] = _rank_moments(f, g[lo:hi]), _rank_moments(f, g_bar)
            return
        s = _weights(rule, f.d)[0]
        ab[:, lo:hi] = np.sum(s * _sv_terms(f, g[lo:hi]), axis=-1), np.sum(s * _sv_terms(f, g_bar), axis=-1)
        fits = np.multiply(f.left, (s * f.d)[..., None, :], out=f.left) @ f.right.swapaxes(-1, -2)
        fit_sums[lo] = fits.sum(axis=0)  # in draw order

    _two_threads(moments, m, SHARED_STACK_BYTES // h.nbytes)
    c = None if rule is None else g.reshape(m, -1) @ (sum(fit_sums[k] for k in sorted(fit_sums)) / m).ravel()
    return _cov_df(ab[0], ab[1], c, scale)


def mc_df(ls: LsFit, rule: ShrinkageRule, sigma2: float, reps: int, seed: int) -> DofEstimate:
    """Monte-Carlo estimate of sum_ij cov(mu_hat_ij, y_ij) / sigma2 for the
    fit of `rule` (least squares: hard(r_bar)) on the design of `ls` around
    the mean ls.y_hat = W H, with moments against the noise E_t (substream (0,)):
    cov(F, Y) = cov(F, E) for the known mean, without cancelling sums. reps >= 3;
    a weight pair is refused (`_refuse_pair`): each draw needs its own spectrum's."""
    reps = int(_checked_ints(reps, 3, what="reps"))
    if not 0 < sigma2 < np.inf:
        raise DomainError("sigma2 must be positive and finite")
    _refuse_pair(rule)
    value, se = _h_space_cov(ls.hf.h, ls.gram.w, _substream(seed, 0), reps, float(np.sqrt(sigma2)), sigma2, rule)
    return DofEstimate(value=float(value), method="monte_carlo", std_error=float(se))


def perturbation_df(ls: LsFit, rule: ShrinkageRule, n_pert: int, tau: float, seed: int) -> DofEstimate:
    """Data-perturbation estimate sum_ij cov(mu_hat_ij(Y + D), D_ij) / tau^2
    for the fit of `rule` (least squares: hard(r_bar)) on the data of `ls`,
    over Gaussian perturbations D with entrywise standard deviation tau
    (substream (1,)), taken in H space through `_cov_df`; n_pert >= 3, and a
    weight pair is refused, as in `mc_df`."""
    n_pert = int(_checked_ints(n_pert, 3, what="n_pert"))
    if not 0 < tau < np.inf:
        raise DomainError("tau must be positive and finite")
    _refuse_pair(rule)
    value, se = _h_space_cov(ls.hf.h, ls.gram.w, _substream(seed, 1), n_pert, tau, tau**2, rule)
    return DofEstimate(value=float(value), method="perturbation", std_error=float(se))
