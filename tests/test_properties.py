"""Property-based invariants over randomly generated inputs."""

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdof.dof import (
    _rank_moments,
    divergence_analytic,
    exact_df_path,
    exact_df_rrr,
    exact_df_shrunk,
    naive_df,
    sv_derivatives,
)
from rrdof.estimators import adaptive, coef_matrix, fit_ols, fit_shrunk, hard, hard_rows, soft, validate_weights
from rrdof.exceptions import SaturationError
from rrdof.linalg import RANK_TOL, _two_threads, gram_factors, thin_svd
from rrdof.pipeline import _mspe_path
from rrdof.selection import Criterion, _scores, lambda_grid, select_rank, select_ranks
from test_selection import assert_scores_match


def spectra(min_size=2, max_size=6):
    return st.lists(
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        min_size=min_size, max_size=max_size, unique=True,
    ).map(lambda v: np.sort(np.asarray(v))[::-1])


@given(d=spectra(), lam=st.floats(min_value=0.0, max_value=60.0))
def test_soft_weights_valid(d, lam):
    s, sp = soft(lam).weights(d)
    validate_weights(s)
    assert np.all(sp >= 0)


@given(
    d=spectra(),
    lam=st.floats(min_value=1e-3, max_value=60.0),
    gamma=st.floats(min_value=0.5, max_value=4.0),
)
def test_adaptive_weights_valid(d, lam, gamma):
    s, sp = adaptive(lam, gamma).weights(d)
    validate_weights(s)
    assert np.all(sp >= 0)
    # adaptive shrinks large singular values no more than soft at the same lam
    s_soft, _ = soft(lam).weights(d)
    assert np.all(s >= s_soft - 1e-12)


def _soft_as_before(lam, d):
    # the soft expressions from before soft and adaptive shared one mask
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(d > 0, 1.0 - lam / np.where(d > 0, d, 1.0), 0.0)
        active = s > 0
        s = np.where(active, s, 0.0)
        return s, np.where(active, lam / np.where(d > 0, d, 1.0) ** 2, 0.0)


def _adaptive_as_before(lam, g, d):
    # the adaptive expressions from before soft and adaptive shared one mask
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(d > 0, d, 1.0)
        s = np.where(d > 0, 1.0 - (lam / base) ** (g + 1.0), 0.0)
        active = s > 0
        s = np.where(active, s, 0.0)
        return s, np.where(active, (g + 1.0) * lam ** (g + 1.0) * base ** (-g - 2.0), 0.0)


@st.composite
def threshold_cases(draw):
    """Spectra with zeros, alone or in stacks, and a lambda that lies among
    their values or on one of them, with a gamma >= 0."""
    shape = draw(st.sampled_from([(5,), (3, 4), (2, 2, 3)]))
    values = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=100.0))
    d = np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    lam = draw(st.one_of(st.floats(min_value=0.0, max_value=120.0), st.sampled_from(d.ravel().tolist())))
    return d, lam, draw(st.floats(min_value=0.0, max_value=4.0))


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=300)
@given(case=threshold_cases())
def test_threshold_masking_keeps_its_bits(case):
    # soft and adaptive share one masking path, each with its own formula:
    # soft is not adaptive at gamma = 0 (lam * d^-2 and lam / d^2 differ in
    # the last bit for about a third of random d)
    d, lam, gamma = case
    assert_same_bits(soft(lam).weights(d), _soft_as_before(lam, d))
    assert_same_bits(adaptive(lam, gamma).weights(d), _adaptive_as_before(lam, gamma, d))


@given(d=spectra(), r=st.integers(min_value=1, max_value=6))
def test_exact_df_dominates_naive(d, r):
    r_bar = d.size
    r = min(r, r_bar)
    rel_gaps = -np.diff(np.concatenate([d, [0.0]])) / d[0]
    hypothesis.assume(np.min(rel_gaps) > 1e-3)
    for r_x, q in ((r_bar, r_bar), (r_bar + 3, r_bar)):
        assert exact_df_rrr(d, r_x, q, r).value >= naive_df(r_x, q, r) - 1e-9


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=2, max_value=8),
    cols=st.integers(min_value=2, max_value=8),
)
def test_thin_svd_reconstructs(seed, rows, cols):
    m = np.random.default_rng(seed).standard_normal((rows, cols))
    f = thin_svd(m)
    assert np.linalg.norm(f.left @ np.diag(f.d) @ f.right.T - m) < 1e-9
    assert np.all(np.diff(f.d) <= 0)


def reference_gram_factors(x):
    """gram_factors by sorting eigh's output: argsort, then one gather of the
    eigenvalues and one of the eigenvectors, as rows of the transpose so each
    slice is column-major. Kept as the reference for reading eigh backwards.
    Returns (q_mat, s, r_x, w, the sorted eigenvalues)."""
    evals, evecs = np.linalg.eigh(x.swapaxes(-1, -2) @ x)
    order = np.argsort(evals, axis=-1)[..., ::-1]
    evals = np.take_along_axis(evals, order, axis=-1)
    evecs = np.take_along_axis(evecs.swapaxes(-1, -2), order[..., None], axis=-2).swapaxes(-1, -2)
    r_x = int(np.count_nonzero(evals > RANK_TOL * evals[..., :1], axis=-1).max())
    q_mat, s = evecs[..., :r_x], np.sqrt(evals[..., :r_x])
    w = x @ q_mat
    w /= s[..., None, :]
    return q_mat, s, r_x, w, evals


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
    n=st.integers(min_value=2, max_value=12),
    p=st.integers(min_value=1, max_value=8),
)
def test_gram_factors_equal_the_sorted_route(seed, stack, n, p):
    x = np.random.default_rng(seed).standard_normal(stack + (n, p))
    q_mat, s, r_x, w, evals = reference_gram_factors(x)
    hypothesis.assume(np.all(np.diff(evals, axis=-1) < 0))  # distinct Gram eigenvalues
    floor = max(n, p) * np.finfo(float).eps * evals[..., :1]
    hypothesis.assume(not np.any((evals <= RANK_TOL * evals[..., :1]) & (evals > floor)))
    gf = gram_factors(x)
    assert gf.r_x == r_x
    for got, want in ((gf.q_mat, q_mat), (gf.s, s), (gf.w, w)):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert all(gf.q_mat[idx].flags.f_contiguous for idx in np.ndindex(stack))


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_hard_rule_projects(seed):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(0.5, 5.0, size=5))[::-1]
    for r in range(1, 6):
        s, sp = hard(r).weights(d)
        assert np.array_equal(s, (np.arange(5) < r).astype(float))
        assert np.array_equal(sp, np.zeros(5))


def reference_exact_df_shrunk(d, r_x, q, s, s_prime):
    """The closed form as an explicit double loop over the support, kept as an
    oracle for the vectorised kernel (valid for positive, distinct d)."""
    r_bar = min(r_x, q)
    r_tilde = int(np.count_nonzero(s > 0))
    if r_tilde == 0:
        return 0.0
    d2 = d**2
    value = max(r_x, q) * float(np.sum(s[:r_tilde]))
    if r_tilde < r_bar:
        kept = d2[:r_tilde, None]
        dropped = d2[None, r_tilde:]
        value += float(np.sum(s[:r_tilde, None] * (kept + dropped) / (kept - dropped)))
    for k in range(r_tilde):
        for l in range(r_tilde):
            if l != k:
                value += d2[k] * (s[k] - s[l]) / (d2[k] - d2[l])
    value += float(np.sum(d[:r_tilde] * s_prime[:r_tilde]))
    return value


def shapes(r_bar, extra, wide):
    """(r_x, q) with min(r_x, q) = r_bar; q > r_x when `wide`."""
    return (r_bar, r_bar + extra) if wide else (r_bar + extra, r_bar)


@settings(deadline=None, max_examples=150)
@given(
    d=spectra(max_size=8),
    extra=st.integers(min_value=0, max_value=5),
    wide=st.booleans(),
    kind=st.sampled_from(["soft", "adaptive"]),
    frac=st.floats(min_value=0.0, max_value=1.2),
    gamma=st.floats(min_value=0.5, max_value=4.0),
)
def test_kernel_matches_double_loop(d, extra, wide, kind, frac, gamma):
    r_x, q = shapes(d.size, extra, wide)
    lam = frac * float(d[0])
    rule = soft(lam) if kind == "soft" else adaptive(lam, gamma)
    s, sp = rule.weights(d)
    got = exact_df_shrunk(d, r_x, q, s, sp).value
    assert got == pytest.approx(reference_exact_df_shrunk(d, r_x, q, s, sp), rel=1e-12, abs=0)


@settings(deadline=None, max_examples=150)
@given(d=spectra(max_size=8), extra=st.integers(0, 5), wide=st.booleans(), data=st.data())
def test_path_equals_per_rank_bit_for_bit(d, extra, wide, data):
    r_x, q = shapes(d.size, extra, wide)
    ranks = data.draw(st.lists(st.integers(1, d.size), max_size=2 * d.size))
    path = exact_df_path(d, r_x, q, *hard_rows(ranks, d.size))[0].tolist()
    assert path == [exact_df_rrr(d, r_x, q, r).value for r in ranks]
    # hard weights through the double loop agree to rounding (the kernel sums
    # each rank's pairs by a cumulative sum, the loop in another order)
    hard_ref = [reference_exact_df_shrunk(d, r_x, q, *hard(r).weights(d)) for r in ranks]
    assert path == pytest.approx(hard_ref, rel=1e-13, abs=0)


@settings(deadline=None, max_examples=150)
@given(r_bar=st.integers(1, 8), extra=st.integers(0, 5), wide=st.booleans(), size=st.integers(0, 3),
       gamma=st.floats(min_value=0.5, max_value=4.0), data=st.data())
def test_weight_rows_equal_one_row_calls(r_bar, extra, wide, size, gamma, data):
    # Rows of hard ranks and of soft and adaptive lambda grids, scored in one
    # call, equal their one-row calls (==) in value and flag: on one spectrum
    # (size 0) or a stack of them, each ending in a vanished tail of its own
    # length.
    r_x, q = shapes(r_bar, extra, wide)

    def spectrum():
        live = data.draw(st.integers(1, r_bar))
        tail = data.draw(st.lists(st.sampled_from([0.0, 1e-15, 1e-13]),
                                  min_size=r_bar - live, max_size=r_bar - live))
        return np.concatenate([data.draw(spectra(live, live)), sorted(tail, reverse=True)])

    d = spectrum() if size == 0 else np.stack([spectrum() for _ in range(size)])
    first = d if size == 0 else d[0]
    grid = lambda_grid(float(first[0]), size=data.draw(st.integers(1, 6)))
    rules = [soft(lam) for lam in grid] + [adaptive(lam, gamma) for lam in grid]
    rows = list(zip(*hard_rows(data.draw(st.lists(st.integers(0, r_bar), max_size=r_bar + 1)), r_bar)))
    rows += [rule.weights(first) for rule in rules]
    s, s_prime = (np.array([row[k] for row in rows]) for k in (0, 1))
    values, flags = exact_df_path(d, r_x, q, s, s_prime)
    assert values.shape == flags.shape == d.shape[:-1] + (len(rows),)
    for j, one_d in enumerate(d[None] if size == 0 else d):
        for i in range(len(rows)):
            one = exact_df_shrunk(one_d, r_x, q, s[i], s_prime[i])
            at = (i,) if size == 0 else (j, i)
            assert values[at] == one.value and flags[at] == one.degenerate_flag


@settings(deadline=None, max_examples=150)
@given(d=spectra(min_size=1, max_size=12), extra=st.integers(0, 5), wide=st.booleans())
def test_hard_rank_df_within_ulps_of_fsum(d, extra, wide):
    # Every P_r comes from one reversed cumulative sum of C; against the
    # exactly rounded sum of the same C entries it is off by a few ulps.
    r_x, q = shapes(d.size, extra, wide)
    d2 = d**2
    path = exact_df_path(d, r_x, q, *hard_rows(range(1, d.size + 1), d.size))[0]
    for r, value in enumerate(path.tolist(), start=1):
        pairs = [(d2[k] + d2[l]) / (d2[k] - d2[l]) for k in range(r) for l in range(r, d.size)]
        ref = math.fsum([max(r_x, q) * r, *pairs])
        assert abs(value - ref) <= 4 * np.spacing(ref)


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(1, 12),
    q=st.integers(1, 8),
    sigma2=st.floats(min_value=1e-3, max_value=10.0),
    data=st.data(),
)
def test_array_scores_equal_scalar_scores(n, q, sigma2, data):
    # One formula per criterion: the array scores of a path equal the
    # tests-local scalar formulas (GCV and Cp bit for bit, BIC to 4 ulps),
    # +inf where those saturate (df at or beyond n*q, negative df, rss = 0
    # under BIC), with no warning.
    nq = n * q
    size = data.draw(st.integers(1, 8))
    rss = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 1e6)), min_size=size, max_size=size))
    df = data.draw(st.lists(st.one_of(st.floats(0.0, 1.5 * nq), st.sampled_from(
        [0.0, float(nq), nq - 1e-9, nq + 1.0, -1.0, math.inf])), min_size=size, max_size=size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("gcv", "cp", "bic"):
            got = _scores(kind, np.array(rss), np.array(df), n, q, sigma2)
            assert_scores_match(kind, got.tolist(), rss, df, n, q, sigma2)


@settings(deadline=None, max_examples=150)
@given(
    d=spectra(min_size=1, max_size=6),
    tail=st.lists(st.sampled_from([0.0, 1e-15, 1e-13]), min_size=1, max_size=4),
    extra=st.integers(0, 5),
    wide=st.booleans(),
)
def test_vanished_tail_gives_naive_count(d, tail, extra, wide):
    # ranks at or beyond the last non-vanished value get the naive count
    d = np.concatenate([d, sorted(tail, reverse=True)])
    r_x, q = shapes(d.size, extra, wide)
    for r in range(d.size - len(tail), d.size + 1):
        assert exact_df_rrr(d, r_x, q, r).value == naive_df(r_x, q, r)


def reference_sv_derivatives(h, i, j):
    """Per-entry derivative kernel with an SVD per call and a loop over k,
    kept as an oracle for the factored one (tall h)."""
    r_x, q = h.shape
    f = thin_svd(h)
    d, v = f.d, f.right
    hi = h[i]
    hv = hi @ v
    dd = v[j] * hv / d
    d2 = d**2
    dv = np.empty((q, q))
    for k in range(q):
        zv = hi * v[j, k]
        zv[j] += hv[k]
        coeff = v.T @ zv
        denom = d2 - d2[k]
        inv = np.zeros(q)
        mask = np.arange(q) != k
        inv[mask] = 1.0 / denom[mask]
        dv[:, k] = -(v @ (inv * coeff))
    return dd, dv


def reference_divergence_analytic(h, rule):
    """The divergence summed entry by entry from `reference_sv_derivatives`."""
    h = h if h.shape[0] >= h.shape[1] else h.T
    r_x, q = h.shape
    f = thin_svd(h)
    d, v = f.d, f.right
    s, s_prime = rule.weights(d)
    m_diag = np.einsum("jk,k,jk->j", v, s, v)
    total = 0.0
    for i in range(r_x):
        for j in range(q):
            dd, dv = reference_sv_derivatives(h, i, j)
            hi = h[i]
            hdv = hi @ dv
            hv = hi @ v
            term2 = float(np.sum(s * (hdv * v[j] + hv * dv[j])))
            term3 = float(np.sum(s_prime * dd * hv * v[j]))
            total += m_diag[j] + term2 + term3
    return total


def separated_h(rng, rows, cols):
    """A rows x cols matrix whose singular values are at least 0.3 apart."""
    r_bar = min(rows, cols)
    d = np.cumsum(rng.uniform(0.3, 2.0, size=r_bar))[::-1]
    u, _ = np.linalg.qr(rng.standard_normal((rows, r_bar)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, r_bar)))
    return (u * d) @ v.T


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(["hard", "soft", "adaptive"]),
    frac=st.floats(min_value=0.0, max_value=1.2),
    gamma=st.floats(min_value=0.5, max_value=4.0),
)
def test_factored_oracle_matches_per_entry_reference(seed, rows, cols, kind, frac, gamma):
    # tall, wide and square H, q = 1 included
    rng = np.random.default_rng(seed)
    h = separated_h(rng, rows, cols)
    tall = h if rows >= cols else h.T
    # the spectrum the oracle sees, so that lambda = d_1 falls on the same
    # side of the soft/adaptive kink for the oracle and the closed form
    d = thin_svd(tall).d
    if kind == "hard":
        rule = hard(int(round(frac / 1.2 * d.size)))
    elif kind == "soft":
        rule = soft(frac * d[0])
    else:
        rule = adaptive(frac * d[0], gamma)
    got = divergence_analytic(h, rule).value
    assert got == pytest.approx(reference_divergence_analytic(h, rule), rel=0, abs=1e-10)
    assert got == pytest.approx(exact_df_shrunk(d, rows, cols, *rule.weights(d)).value, abs=1e-9)
    for _ in range(3):
        i, j = int(rng.integers(tall.shape[0])), int(rng.integers(tall.shape[1]))
        dd, dv = sv_derivatives(h, j, i) if rows < cols else sv_derivatives(h, i, j)
        ref_dd, ref_dv = reference_sv_derivatives(tall, i, j)
        assert np.max(np.abs(dd - ref_dd)) <= 1e-12
        assert np.max(np.abs(dv - ref_dv)) <= 1e-12


def svt_divergence(h, lam):
    """Divergence of singular-value soft thresholding at the m x n matrix h,
    in the closed form of Candes, Sing-Long & Trzasko (2013):
    sum_i [1{s_i > lam} + |m - n| (1 - lam/s_i)_+]
    + 2 sum_{i != j} s_i (s_i - lam)_+ / (s_i^2 - s_j^2), for distinct
    nonzero singular values s_i and lam equal to none of them. Written
    from the paper, independently of rrdof's kernel."""
    m, n = h.shape
    s = np.linalg.svd(h, compute_uv=False)
    total = 0.0
    for i in range(s.size):
        total += float(s[i] > lam) + abs(m - n) * max(0.0, 1.0 - lam / s[i])
        for j in range(s.size):
            if j != i:
                total += 2.0 * s[i] * max(0.0, s[i] - lam) / (s[i] ** 2 - s[j] ** 2)
    return total


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=11),
    cols=st.integers(min_value=1, max_value=11),
    frac=st.floats(min_value=0.1, max_value=0.9),
    data=st.data(),
)
def test_soft_df_matches_published_svt_divergence(seed, rows, cols, frac, data):
    # tall, wide and square H with singular values at least 0.3 apart (as in
    # the analytic-divergence property above); lambda lies strictly inside one
    # gap of (0, d_r, ..., d_1, 1.5 d_1), at least a tenth of that gap from
    # every singular value, so no weight sits at the soft kink
    h = separated_h(np.random.default_rng(seed), rows, cols)
    d = thin_svd(h).d
    edges = np.concatenate([[1.5 * d[0]], d, [0.0]])
    k = data.draw(st.integers(min_value=0, max_value=d.size), label="gap")
    lam = edges[k + 1] + frac * (edges[k] - edges[k + 1])
    got = exact_df_shrunk(d, rows, cols, *soft(lam).weights(d)).value
    # an absolute bound on values of at most rows * cols = 121; 2000 random
    # cases of this strategy agreed within 6e-14
    assert got == pytest.approx(svt_divergence(h, lam), rel=0, abs=1e-11)


SELECTION_CRITERIA = {
    f"{kind}_{mode}": Criterion(kind=kind, df_mode=mode, sigma2=0.5 if kind == "cp" else None)
    for kind in ("gcv", "cp", "bic")
    for mode in ("naive", "exact")
}


def _outcome(fn):
    try:
        return fn()
    except SaturationError as exc:
        return (type(exc), str(exc))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=10),
    p=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=1, max_value=8),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
    order=st.permutations(sorted(SELECTION_CRITERIA)),
)
def test_select_ranks_equals_select_rank_per_criterion(seed, n, p, q, noise, order):
    # Tall (n > p) and wide (n <= p) designs; noiseless responses saturate.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal((p, q)) + noise * rng.standard_normal((n, q))
    ls = fit_ols(x, y)
    criteria = {name: SELECTION_CRITERIA[name] for name in order}
    each = {name: _outcome(lambda: select_rank(ls, crit)) for name, crit in criteria.items()}
    failed = [out for out in each.values() if isinstance(out, tuple)]
    together = _outcome(lambda: select_ranks(ls.d, ls.rss, ls.gram.r_x, n, q, criteria))
    if failed:
        assert together == failed[0]  # the first criterion that fails raises
    else:  # field by field: == on the reports' arrays is ambiguous
        np.testing.assert_equal({k: asdict(v) for k, v in together.items()},
                                {k: asdict(v) for k, v in each.items()})


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=10),
    p=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=1, max_value=8),
    size=st.integers(min_value=1, max_value=5),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_select_ranks_on_a_stack_equals_each_rows_call(seed, n, p, q, size, noise):
    # One design against a stack of responses, tall or wide; noiseless
    # responses saturate. Every field of every report equals the one-row
    # call's, and the stack raises exactly when one of its rows does.
    from dataclasses import fields

    from rrdof.selection import SelectionReport

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal((p, q)) + noise * rng.standard_normal((size, n, q))
    ls = fit_ols(x, y)
    stack = _outcome(lambda: select_ranks(ls.d, ls.rss, ls.gram.r_x, n, q, SELECTION_CRITERIA))
    rows = [_outcome(lambda: select_ranks(ls.d[i], ls.rss[i], ls.gram.r_x, n, q, SELECTION_CRITERIA))
            for i in range(size)]
    failed = [row for row in rows if isinstance(row, tuple)]
    if failed:
        assert stack == failed[0]
        return
    for name, rep in stack.items():
        assert rep.candidates == rows[0][name].candidates
        for f in fields(SelectionReport):
            if f.name != "candidates":
                np.testing.assert_equal(getattr(rep, f.name), [getattr(row[name], f.name) for row in rows],
                                        err_msg=f.name)


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=10),
    p=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=1, max_value=8),
)
def test_h_space_moments_equal_fitted_value_inner_products(seed, n, p, q):
    # Tall (n > p) and wide (n <= p) designs, q above and below r_x: the
    # moments the df study takes in H space, <H_r(Y + D), W'D> from one SVD
    # of H + W'D, are the inner products of the refitted rank-r values with D.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal((p, q)) + rng.standard_normal((n, q))
    delta = 0.1 * rng.standard_normal((n, q))
    ls = fit_ols(x, y)
    w = (x @ ls.gram.q_mat) / ls.gram.s
    g = w.T @ delta
    got = _rank_moments(thin_svd(ls.hf.h + g), g)
    refit = fit_ols(x, y + delta)
    fits = np.stack([fit_shrunk(refit, hard(r)) for r in range(1, ls.r_bar + 1)])
    want = np.einsum("kij,ij->k", fits, delta)
    # relative to the Cauchy-Schwarz bound, as an inner product can be ~0
    scale = np.linalg.norm(fits.reshape(ls.r_bar, -1), axis=1) * np.linalg.norm(delta)
    assert got.shape == (ls.r_bar,)
    assert np.all(np.abs(got - want) <= 1e-10 * scale)


def held_out_design(rng, design):
    """(n_train, n_test, p, q): r_x = p > q when "tall", r_x = p < q when
    "q_above_r_x", and r_x = n_train < p when "wide". At least 4 test rows,
    so a high-SNR residual is not one entry that is small by chance."""
    if design == "tall":
        p = rng.integers(2, 9)
        n_train, q = rng.integers(p + 1, 40), rng.integers(1, p)
    elif design == "q_above_r_x":
        p = rng.integers(1, 7)
        n_train, q = rng.integers(p + 1, 40), rng.integers(p + 1, 10)
    else:
        n_train = rng.integers(2, 11)
        p, q = rng.integers(n_train + 1, 17), rng.integers(1, 9)
    return n_train, rng.integers(4, 30), p, q


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    design=st.sampled_from(["tall", "q_above_r_x", "wide"]),
    snr=st.sampled_from([(1.0, 1.0), (100.0, 1e-6)]),
)
@hypothesis.example(seed=0, design="tall", snr=(100.0, 1e-6))
def test_held_out_mspe_path_is_a_direct_residual(seed, design, snr):
    # The held-out path is >= 0 and matches a long-double residual of the
    # rank-r coefficient matrices at every rank, at high SNR too (signal x100,
    # noise sd 1e-6), where ||Y||^2 - 2<Y, XB> + ||XB||^2 cancels to noise.
    rng = np.random.default_rng(seed)
    n_train, n_test, p, q = held_out_design(rng, design)
    scale, noise = snr
    r0 = rng.integers(1, min(p, q) + 1)
    x = rng.standard_normal((n_train + n_test, p))
    b = scale * rng.standard_normal((p, r0)) @ rng.standard_normal((r0, q))
    y = x @ b + noise * rng.standard_normal((n_train + n_test, q))
    ls = fit_ols(x[:n_train], y[:n_train])
    got = _mspe_path(ls, x[n_train:], y[n_train:])
    x_te, y_te = x[n_train:].astype(np.longdouble), y[n_train:].astype(np.longdouble)
    want = [2 * np.sum((y_te - x_te @ coef_matrix(ls, hard(r)).astype(np.longdouble)) ** 2) / y_te.size
            for r in range(1, ls.r_bar + 1)]
    assert got.shape == (ls.r_bar,) and np.all(got >= 0)
    np.testing.assert_allclose(got, np.array(want, dtype=float), rtol=1e-5, atol=0)


@settings(deadline=None, max_examples=300)
@given(m=st.integers(1, 200), per_stack=st.integers(0, 20), threads=st.sampled_from([1, 2]))
def test_two_threads_plans_near_equal_non_empty_stacks(m, per_stack, threads):
    # The stacks partition [0, m) in order, none is empty and none holds more
    # than max(1, per_stack) items. Their count is ceil(m / max(1, per_stack)),
    # plus one under two threads when that count is odd and neither 1 nor m.
    seen = []
    _two_threads(lambda lo, hi: seen.append((lo, hi)), m, per_stack, threads=threads)
    stacks = sorted(seen)
    assert threads == 2 or seen == stacks  # one thread runs them in order
    assert [lo for lo, _ in stacks] == [0] + [hi for _, hi in stacks[:-1]] and stacks[-1][1] == m
    sizes = [hi - lo for lo, hi in stacks]
    assert min(sizes) >= 1 and max(sizes) <= max(1, per_stack) and max(sizes) - min(sizes) <= 1
    count = -(-m // max(1, per_stack))
    assert len(stacks) == count + (threads == 2 and count % 2 == 1 and 1 < count < m)
