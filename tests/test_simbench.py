import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rrdof import dof, simbench
from rrdof.dof import DofEstimate, _cov_df, _rank_moments, _substream, exact_df_rrr, exact_df_shrunk, naive_df
from rrdof.estimators import coef_matrix, fit_ols, fit_shrunk, hard
from rrdof.exceptions import DomainError
from rrdof.linalg import SvdFactors, _svd, build_h, gram_factors, thin_svd
from rrdof.selection import Criterion, select_rank, select_ranks
from rrdof.simbench import (
    PRESETS,
    SimConfig,
    gen_instance,
    run_dof_study,
    run_pred_study,
    snr,
)

SMALL = SimConfig(n=30, p=6, q=5, r0=3, sigma2=1.0, rho=0.3, reps=25, seed=1)


class TestSimConfig:
    def test_presets_present(self):
        assert {"setting1", "setting2", "setting1_desk", "ld", "hd"} <= set(PRESETS)

    def test_preset_shapes(self):
        s1, s2 = PRESETS["setting1"], PRESETS["setting2"]
        assert (s1.n, s1.p, s1.q, s1.r0) == (100, 20, 12, 6)
        assert (s2.n, s2.p, s2.q, s2.r0) == (40, 80, 50, 10)
        hd = PRESETS["hd"]
        assert hd.sigma2 == 4.0 and hd.rho == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(n=10, p=3, q=3, r0=4)
        for sigma2 in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="sigma2"):
                SimConfig(n=10, p=3, q=3, r0=2, sigma2=sigma2)
        with pytest.raises(DomainError):
            SimConfig(n=10, p=3, q=3, r0=2, rho=1.0)
        for r0 in (-1, 4, 2.5):  # outside [0, min(p, q)], or not an integer
            with pytest.raises(DomainError, match="^r0 "):
                SimConfig(n=10, p=3, q=3, r0=r0)
        for name in ("n", "p", "q"):  # below 1, negative, or not an integer
            for bad in (0, -1, 2.5):
                with pytest.raises(DomainError, match=f"^{name} {bad} "):
                    SimConfig(**{"n": 10, "p": 3, "q": 3, "r0": 0, name: bad})
        cfg = SimConfig(n=10.0, p=3.0, q=3, r0=2.0)  # integral floats pass and are stored as ints
        assert [type(v) for v in (cfg.n, cfg.p, cfg.r0)] == [int] * 3
        for gap in (0.0, -2.0, float("nan"), float("inf")):  # outside (0, inf)
            with pytest.raises(DomainError, match="sv_gap"):
                SimConfig(n=10, p=3, q=3, r0=2, sv_gap=gap)


class TestGenInstance:
    def test_deterministic(self):
        a = gen_instance(SMALL, 3)
        b = gen_instance(SMALL, 3)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma, mb)

    def test_design_fixed_errors_vary(self):
        x0, b0, y0, _ = gen_instance(SMALL, 0)
        x1, b1, y1, _ = gen_instance(SMALL, 1)
        assert np.array_equal(x0, x1)
        assert np.array_equal(b0, b1)
        assert not np.array_equal(y0, y1)

    def test_b_structure(self):
        _, b, _, evecs = gen_instance(SMALL, 0)
        d = np.linalg.svd(b, compute_uv=False)
        assert np.allclose(d[: SMALL.r0], SMALL.sv_gap * np.arange(SMALL.r0, 0, -1))
        assert np.allclose(d[SMALL.r0 :], 0, atol=1e-10)
        # left singular space of B spans the leading eigenvectors of Sigma
        lead = evecs[:, : SMALL.r0]
        proj = lead @ lead.T
        assert np.linalg.norm(b - proj @ b) < 1e-10

    def test_rho_zero_identity_covariance(self):
        cfg = SimConfig(n=50_000, p=4, q=3, r0=2, rho=0.0, reps=1, seed=2)
        x, _, _, _ = gen_instance(cfg, 0)
        emp = x.T @ x / cfg.n
        assert np.linalg.norm(emp - np.eye(4), ord=2) < 0.05

    def test_large_n_covariance_matches_ar(self):
        cfg = SimConfig(n=200_000, p=5, q=3, r0=2, rho=0.6, reps=1, seed=3)
        x, _, _, _ = gen_instance(cfg, 0)
        emp = x.T @ x / cfg.n
        target = 0.6 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
        assert np.linalg.norm(emp - target, ord=2) < 0.05

    def test_error_variance(self):
        cfg = SimConfig(n=2000, p=4, q=50, r0=2, sigma2=4.0, seed=4)
        x, b, y, _ = gen_instance(cfg, 0)
        e = y - x @ b
        assert np.var(e) == pytest.approx(4.0, rel=0.05)


class TestSnr:
    def test_homogeneity(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((20, 5))
        b = rng.standard_normal((5, 4))
        e = rng.standard_normal((20, 4))
        base = snr(x, b, e)
        assert snr(x, 3.0 * b, e) == pytest.approx(3.0 * base, rel=1e-10)
        assert snr(x, b, 2.0 * e) == pytest.approx(base / 2.0, rel=1e-10)

    def test_zero_noise_rejected(self):
        with pytest.raises(DomainError):
            snr(np.eye(3), np.eye(3), np.zeros((3, 3)))

    def test_zero_signal_rejected(self):
        # B = 0 (r0 = 0), once for one error matrix and once for a stack
        e = np.random.default_rng(57).standard_normal((2, 3, 3))
        for noise in (e[0], e):
            with pytest.raises(DomainError, match="signal XB is zero"):
                snr(np.eye(3), np.zeros((3, 3)), noise)

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(56)
        x = rng.standard_normal((20, 5))
        b = rng.standard_normal((5, 4))
        e = rng.standard_normal((6, 20, 4))
        assert snr(x, b, e).tolist() == [snr(x, b, m) for m in e]
        e[3] = 0.0
        with pytest.raises(DomainError):
            snr(x, b, e)


@pytest.fixture(scope="module")
def study():
    return run_dof_study(SMALL, n_pert=20)


@pytest.fixture(scope="module")
def pred_study():
    cfg = SimConfig(n=50, p=12, q=10, r0=3, sigma2=1.0, rho=0.5, reps=30, seed=5)
    return run_pred_study(cfg)


class TestDofStudy:
    def test_shapes(self, study):
        r_bar = min(SMALL.p, SMALL.q)
        assert study.ranks == list(range(1, r_bar + 1))
        for seq in (study.naive, study.exact_mean, study.exact_se,
                    study.perturb_mean, study.perturb_se, study.mc):
            assert len(seq) == r_bar
        assert study.exact_values.shape == (SMALL.reps, r_bar)

    def test_naive_is_parameter_count(self, study):
        assert study.naive == [(6 + 5 - r) * r for r in study.ranks]

    def test_exact_dominates_naive(self, study):
        for m, nv in zip(study.exact_mean, study.naive):
            assert m >= nv - 1e-9

    def test_full_rank_anchors(self, study):
        assert study.exact_mean[-1] == pytest.approx(30.0, abs=1e-9)
        assert study.exact_se[-1] == pytest.approx(0.0, abs=1e-12)

    def test_exact_tracks_mc_truth(self, study):
        for m, se, mc in zip(study.exact_mean, study.exact_se, study.mc):
            band = 3.0 * np.hypot(se, mc.std_error)
            assert abs(m - mc.value) <= band

    def test_deterministic(self, study):
        again = run_dof_study(SMALL, n_pert=20)
        assert np.array_equal(again.exact_values, study.exact_values)
        assert again.perturb_mean == study.perturb_mean


def _reference_cov_df(fitted, draws, scale):
    # The covariance df as it was before the moment engine: sample
    # covariances of (reps, n*q) arrays of fits and draws, and a jackknife
    # that recomputes the sum leaving out each replication.
    m = fitted.shape[0]
    cross = np.einsum("ti,ti->", fitted, draws)
    value = float((cross - m * float(fitted.mean(axis=0) @ draws.mean(axis=0))) / (m - 1) / scale)
    s_ab = np.einsum("ti,ti->t", fitted, draws)
    sum_a, sum_b = fitted.sum(axis=0), draws.sum(axis=0)
    loo = np.empty(m)
    for t in range(m):
        mean_dot = float((sum_a - fitted[t]) @ (sum_b - draws[t])) / (m - 1)
        loo[t] = (cross - s_ab[t] - mean_dot) / (m - 2) / scale
    return value, float(np.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)))


def _moments(fitted, draws):
    return np.einsum("ti,ti->t", fitted, draws), fitted @ draws.mean(axis=0), draws @ fitted.mean(axis=0)


def _correlated(m, size, offset, seed):
    rng = np.random.default_rng(seed)
    draws = offset + rng.standard_normal((m, size))
    return 0.5 * draws + rng.standard_normal((m, size)), draws


@pytest.mark.parametrize("m,size,offset,seed", [
    (3, 1, 0.0, 0), (5, 12, 0.0, 1), (40, 30, 5.0, 2), (200, 8, 20.0, 3),
])
def test_cov_engine_equals_reference(m, size, offset, seed):
    fitted, draws = _correlated(m, size, offset, seed)
    value, se = _cov_df(*_moments(fitted, draws), 1.7)
    ref_value, ref_se = _reference_cov_df(fitted, draws, 1.7)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert se == pytest.approx(ref_se, rel=1e-10)
    assert _cov_df(*_moments(fitted, draws)[:2], None, 1.7)[1] is None


@pytest.mark.parametrize("seed", range(3))
def test_cov_engine_is_accurate_under_a_large_mean(seed):
    # With draws centred at 50 the uncentred sums cancel in both the engine
    # and the reference (whose jackknife is off by up to about 1e-11 here);
    # covariances of centred arrays are the accurate answer.
    fitted, draws = _correlated(200, 8, 50.0, seed)
    value, se = _cov_df(*_moments(fitted, draws), 1.7)
    e = np.einsum("ti,ti->t", fitted - fitted.mean(axis=0), draws - draws.mean(axis=0))
    loo = (e.sum() - 200 * e / 199) / 198 / 1.7
    assert value == pytest.approx(e.sum() / 199 / 1.7, rel=1e-11)
    assert se == pytest.approx(np.sqrt(199 / 200 * np.sum((loo - loo.mean()) ** 2)), rel=1e-12)


def _reference_dof_study(cfg, n_pert):
    # The study loop as first written: a fresh Gram factorisation for every
    # refit, one hard-rule fit per rank, and n*q fitted values for both covariance
    # estimates.
    x, _, _, _ = gen_instance(cfg, 0)
    r_x = fit_ols(x, np.zeros((cfg.n, cfg.q))).gram.r_x
    ranks = list(range(1, min(r_x, cfg.q) + 1))
    exact = np.empty((cfg.reps, len(ranks)))
    pert = np.empty((cfg.reps, len(ranks)))
    fitted = np.empty((len(ranks), cfg.reps, cfg.n * cfg.q))
    draws = np.empty((cfg.reps, cfg.n * cfg.q))
    tau = 0.1 * float(np.sqrt(cfg.sigma2))
    for t in range(cfg.reps):
        _, _, y, _ = gen_instance(cfg, t)
        draws[t] = y.ravel()
        ls = fit_ols(x, y)
        for a, r in enumerate(ranks):
            exact[t, a] = exact_df_rrr(ls.d, r_x, cfg.q, r).value
            fitted[a, t] = fit_shrunk(ls, hard(r)).ravel()
        p_fitted = np.empty((len(ranks), n_pert, cfg.n * cfg.q))
        deltas = tau * _substream(cfg.seed, 2, t).standard_normal((n_pert, *y.shape))
        for k, delta in enumerate(deltas):
            ls_k = fit_ols(x, y + delta)
            for a, r in enumerate(ranks):
                p_fitted[a, k] = fit_shrunk(ls_k, hard(r)).ravel()
        deltas = deltas.reshape(n_pert, -1)
        pert[t] = [_reference_cov_df(p_fitted[a], deltas, tau**2)[0] for a in range(len(ranks))]
    mc = [DofEstimate(value=v, method="monte_carlo", std_error=se)
          for v, se in (_reference_cov_df(fitted[a], draws, cfg.sigma2) for a in range(len(ranks)))]
    return {
        "ranks": ranks,
        "naive": [naive_df(r_x, cfg.q, r) for r in ranks],
        "exact_values": exact,
        "exact_mean": list(exact.mean(axis=0)),
        "exact_se": list(exact.std(axis=0, ddof=1) / np.sqrt(cfg.reps)),
        "perturb_mean": list(pert.mean(axis=0)),
        "perturb_se": list(pert.std(axis=0, ddof=1) / np.sqrt(cfg.reps)),
        "mc": mc,
    }


@pytest.mark.parametrize("cfg", [
    SimConfig(n=8, p=12, q=6, r0=2, reps=4, seed=3),  # wide: n < p
    SimConfig(n=20, p=5, q=7, r0=2, reps=5, seed=2),  # tall, q > r_x
], ids=["wide", "tall"])
def test_dof_study_equals_reference_loop(cfg):
    # The exact df is computed as before, bit for bit. The covariances are
    # taken in H space from moments, in another order of summation, so they
    # agree to rounding.
    got = run_dof_study(cfg, n_pert=6)
    ref = _reference_dof_study(cfg, n_pert=6)
    assert np.array_equal(got.exact_values, ref["exact_values"])
    for name in ("ranks", "naive", "exact_mean", "exact_se"):
        assert getattr(got, name) == ref[name], name
    np.testing.assert_allclose(got.perturb_mean, ref["perturb_mean"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.perturb_se, ref["perturb_se"], rtol=1e-10, atol=0)
    np.testing.assert_allclose([e.value for e in got.mc], [e.value for e in ref["mc"]],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([e.std_error for e in got.mc], [e.std_error for e in ref["mc"]],
                               rtol=1e-10, atol=0)


def _per_draw_dof_study(cfg, n_pert):
    # run_dof_study with one SVD of H + G_k and one _rank_moments call per
    # perturbation k, against the stack (G_k, mean G).
    x, b, _, _ = gen_instance(cfg, 0)
    xb = x @ b
    gram = gram_factors(x)
    w = (x @ gram.q_mat) / gram.s
    r_x, m = gram.r_x, cfg.reps
    r_bar = min(r_x, cfg.q)
    ranks = list(range(1, r_bar + 1))
    tau = 0.1 * float(np.sqrt(cfg.sigma2))
    e_bar = w.T @ (sum(simbench._errors(cfg, t) for t in range(m)) / m)
    exact, pert = np.empty((m, r_bar)), np.empty((m, r_bar))
    mc_ab = np.empty((2, m, r_bar))
    e_draws = np.empty((m, r_x, cfg.q))
    fit_sum = np.zeros((r_bar, r_x, cfg.q))
    for t in range(m):
        noise = simbench._errors(cfg, t)
        hf = build_h(x, xb + noise, gram)
        f = hf.svd
        exact[t] = [exact_df_shrunk(f.d, r_x, cfg.q, *hard(r).weights(f.d)).value for r in ranks]
        e_draws[t] = w.T @ noise
        mc_ab[:, t] = _rank_moments(f, np.stack([e_draws[t], e_bar]))
        fit_sum += np.einsum("ik,jk->kij", f.left * f.d, f.right)
        g = w.T @ (tau * _substream(cfg.seed, 2, t).standard_normal((n_pert, cfg.n, cfg.q)))
        g_bar = g.mean(axis=0)
        ab = np.array([_rank_moments(_svd(hf.h + gk), np.stack([gk, g_bar])) for gk in g])
        pert[t] = _cov_df(ab[:, 0], ab[:, 1], None, tau**2)[0]
    mc_c = np.cumsum(e_draws.reshape(m, -1) @ fit_sum.reshape(r_bar, -1).T, axis=1) / m
    mc = _cov_df(mc_ab[0], mc_ab[1], mc_c, cfg.sigma2)
    return {
        "exact_values": exact,
        "exact_mean": list(exact.mean(axis=0)),
        "exact_se": list(exact.std(axis=0, ddof=1) / np.sqrt(m)),
        "perturb_mean": list(pert.mean(axis=0)),
        "perturb_se": list(pert.std(axis=0, ddof=1) / np.sqrt(m)),
        "mc": [DofEstimate(value=float(v), method="monte_carlo", std_error=float(se)) for v, se in zip(*mc)],
    }


@pytest.mark.parametrize("cfg", [
    SimConfig(n=8, p=12, q=6, r0=2, reps=4, seed=3),  # wide: n < p, H is 8 x 6
    SimConfig(n=20, p=5, q=7, r0=2, reps=5, seed=2),  # tall: q > r_x, H is 5 x 7
    SimConfig(n=20, p=5, q=5, r0=2, reps=3, seed=4),  # H is 5 x 5
], ids=["wide", "tall", "square"])
def test_dof_study_equals_per_draw_loop_bit_for_bit(cfg, monkeypatch):
    # A stacked SVD over each stack of the perturbations of a replication
    # runs the same LAPACK call on every slice, and the moments reduce over
    # the same axes in the same order, so every field is unchanged bit for
    # bit, at the budget (one stack here) and in stacks of at most two draws
    # (of unequal size for an odd n_pert), whichever thread runs the
    # replication: with 3, 5 or 7 of them the caller runs one more than the
    # helper.
    budget = dof.SHARED_STACK_BYTES
    for reps in sorted({cfg.reps, 5, 7}):
        for n_pert, per_stack in [(6, None), (3, None), (5, None), (6, 2), (5, 2)]:
            monkeypatch.setattr(dof, "SHARED_STACK_BYTES", per_stack * 8 * min(cfg.n, cfg.p) * cfg.q
                                if per_stack else budget)
            got = run_dof_study(replace(cfg, reps=reps), n_pert=n_pert)
            ref = _per_draw_dof_study(replace(cfg, reps=reps), n_pert=n_pert)
            assert np.array_equal(got.exact_values, ref["exact_values"]), (reps, n_pert)
            for name in ("exact_mean", "exact_se", "perturb_mean", "perturb_se", "mc"):
                assert getattr(got, name) == ref[name], (name, reps, n_pert)


def _study_fields(res):
    return (res.exact_values.tolist(), res.exact_mean, res.exact_se, res.perturb_mean, res.perturb_se, res.mc)


def test_dof_study_under_raising_errstate_is_unchanged():
    # both threads run under the caller's error state, and nothing in the
    # study over- or underflows or divides by zero
    cfg = SimConfig(n=20, p=5, q=7, r0=2, reps=4, seed=2)
    with np.errstate(all="raise"):
        got = run_dof_study(cfg, n_pert=5)
    assert _study_fields(got) == _study_fields(run_dof_study(cfg, n_pert=5))


def test_dof_study_error_on_the_helper_thread_reaches_the_caller(monkeypatch):
    # Whole replications per thread: the caller runs replications 0 and 1,
    # the helper 2 and 3, each as four stacks of at most two of the five
    # perturbations. The helper fails at its first stack once the caller has
    # begun its own, and the caller goes on only once the helper has ended:
    # it finishes its current replication and starts no other.
    class Boom(Exception):
        pass

    on_main, helper = [], []
    began, raised = threading.Event(), threading.Event()

    def svd_failing_off_the_caller(stack):
        on_main.append(threading.current_thread() is threading.main_thread())
        if not on_main[-1]:
            helper.append(threading.current_thread())
            assert began.wait(10)
            raised.set()
            raise Boom("helper")
        if not began.is_set():
            began.set()
            assert raised.wait(10)
            helper[0].join(10)
            assert not helper[0].is_alive()
        return _svd(stack)

    cfg = SimConfig(n=20, p=5, q=7, r0=2, reps=4, seed=2)
    monkeypatch.setattr(dof, "SHARED_STACK_BYTES", 2 * 8 * 5 * 7)
    monkeypatch.setattr(dof, "_svd", svd_failing_off_the_caller)
    before = threading.active_count()
    with pytest.raises(Boom, match="helper"):
        run_dof_study(cfg, n_pert=5)
    assert threading.active_count() == before
    assert on_main.count(False) == 1 and on_main.count(True) == 4


def _started_threads(monkeypatch):
    # every thread started through threading.Thread
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


@pytest.mark.parametrize("cfg", [
    replace(PRESETS["setting1_desk"], reps=5),  # a 10 x 8 H: one stack of the 50 perturbations
    replace(PRESETS["setting2"], reps=3),  # a 40 x 50 H: eight stacks of them a replication
], ids=["small", "setting2"])
def test_dof_study_starts_one_helper(cfg, monkeypatch):
    # the replications split across the caller and one helper; each
    # replication's perturbation stacks then run on the thread that runs it
    started = _started_threads(monkeypatch)
    run_dof_study(cfg, n_pert=50)
    assert len(started) == 1


@pytest.mark.parametrize("cfg", [
    SimConfig(n=20, p=6, q=4, r0=2, reps=3, seed=4),  # H is 6 x 4
    SimConfig(n=20, p=4, q=6, r0=2, reps=3, seed=4),  # H is 4 x 6
    SimConfig(n=20, p=5, q=5, r0=2, reps=3, seed=4),  # H is 5 x 5
], ids=["tall", "wide", "square"])
def test_perturbation_fields_need_no_svd_sign_convention(cfg, monkeypatch):
    # The perturbation moments sum d_k u_k' G v_k, which is exactly unchanged
    # when a pair (u_k, v_k) is negated: the study with the backend's signs
    # equals the same study with sign-fixed SVDs of every slice bit for bit.
    # At most three of the four perturbations per stack: two stacks per
    # replication.
    monkeypatch.setattr(dof, "SHARED_STACK_BYTES", 3 * 8 * min(cfg.n, cfg.p) * cfg.q)
    got = run_dof_study(cfg, n_pert=4)
    flips = []

    def sign_fixed_svd(stack):
        fixed = [thin_svd(m) for m in stack]
        backend = np.linalg.svd(stack, full_matrices=False)[2]
        flips.append(np.any(np.stack([f.right.T for f in fixed]) != backend))
        return SvdFactors(*(np.stack([getattr(f, name) for f in fixed]) for name in ("left", "d", "right")))

    monkeypatch.setattr(dof, "_svd", sign_fixed_svd)
    ref = run_dof_study(cfg, n_pert=4)
    assert len(flips) == 2 * cfg.reps and any(flips)  # the stand-in ran on every stack, and changed signs
    assert got.perturb_mean == ref.perturb_mean
    assert got.perturb_se == ref.perturb_se


def _recorded_substreams(monkeypatch, cfg):
    # the substream paths the study opens, in order, each with whether the
    # calling thread opened it
    opened = []
    original = simbench._substream

    def recording(seed, *path):
        assert seed == cfg.seed
        opened.append((threading.current_thread() is threading.main_thread(), path))
        return original(seed, *path)

    monkeypatch.setattr(simbench, "_substream", recording)
    return opened


def test_dof_study_opens_one_perturbation_generator_per_replication(monkeypatch):
    # the n_pert perturbations of replication t come in order from substream
    # (2, t), opened once, by the thread that runs the replication: the
    # caller takes replications 0-2 in order, the helper 3 and 4. The design
    # (0,) and the errors (1, t) keep their streams, opened on the caller
    # before any thread starts. The study draws each E_t once, (1, 0)
    # included: X and B come from the design alone, with no error matrix.
    cfg = SimConfig(n=12, p=5, q=4, r0=2, reps=5, seed=9)
    opened = _recorded_substreams(monkeypatch, cfg)
    run_dof_study(cfg, n_pert=5)
    assert [p for on_caller, p in opened if p[0] == 2 and on_caller] == [(2, 0), (2, 1), (2, 2)]
    assert [p for on_caller, p in opened if p[0] == 2 and not on_caller] == [(2, 3), (2, 4)]
    assert sorted(p for _, p in opened) == sorted({(0,)} | {(k, t) for k in (1, 2) for t in range(cfg.reps)})
    assert opened[:cfg.reps + 1] == [(True, (0,))] + [(True, (1, t)) for t in range(cfg.reps)]


def test_pred_study_opens_each_error_generator_once(monkeypatch):
    # the design (0,) once, then the errors (1, t) of each replication once
    cfg = SimConfig(n=12, p=5, q=4, r0=2, reps=4, seed=9)
    opened = _recorded_substreams(monkeypatch, cfg)
    run_pred_study(cfg)
    assert opened == [(True, p) for p in [(0,)] + [(1, t) for t in range(cfg.reps)]]


def test_dof_study_memory_does_not_grow_with_reps():
    # The covariances keep per-rank sums and two n x q-sized arrays per
    # replication (E_t and W'E_t, 16 kB each here; W'E_t only until the
    # perturbations start), never a ranks x reps x n*q stack of fits.
    _substream(0).standard_normal()  # numpy.random's lazy import, outside the traces

    def peak(reps):
        tracemalloc.start()
        try:
            run_dof_study(replace(PRESETS["setting2"], reps=reps), n_pert=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) - peak(4) < 5e6


def test_dof_study_peak_memory_with_stacked_perturbations():
    # Each of the two threads runs one replication at a time, whose 50
    # perturbations are drawn and factored in stacks of at most
    # SHARED_STACK_BYTES (8 draws on setting2); only their W'Delta is kept
    # whole, 0.8 MB a thread. Holding all 50 draws and the SVD factors of two
    # halves of them at once peaks at 4.9 MB. numpy.random's lazy import
    # (about 0.76 MB when the test runs first in its process) is taken before
    # the trace.
    _substream(0).standard_normal()
    tracemalloc.start()
    try:
        run_dof_study(replace(PRESETS["setting2"], reps=4), n_pert=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


def test_dof_study_forms_each_h_once_on_the_caller(monkeypatch):
    # The ordered pass forms H_t with build_h, once per replication, on the
    # caller and before any perturbation. The threaded pass forms no H: it
    # reads H_t back from the first r_x rows of replication t's noise block.
    cfg = SimConfig(n=12, p=5, q=4, r0=2, reps=5, seed=9)
    events = []
    build_h, h_space_cov = simbench.build_h, simbench._h_space_cov

    def counting(*args):
        events.append(("build_h", threading.current_thread() is threading.main_thread()))
        return build_h(*args)

    def recording(h, *args):
        assert h.base is not None and h.base.shape == (cfg.reps, cfg.n, cfg.q)  # a view of the noise stack
        events.append(("perturb", h.copy()))
        return h_space_cov(h, *args)

    monkeypatch.setattr(simbench, "build_h", counting)
    monkeypatch.setattr(simbench, "_h_space_cov", recording)
    run_dof_study(cfg, n_pert=4)
    assert events[:cfg.reps] == [("build_h", True)] * cfg.reps
    assert [kind for kind, _ in events[cfg.reps:]] == ["perturb"] * cfg.reps
    x, b = simbench._design(cfg)[:2]
    gram = gram_factors(x)
    expected = [build_h(x, x @ b + simbench._errors(cfg, t), gram).h for t in range(cfg.reps)]
    found = [[t for t in range(cfg.reps) if np.array_equal(h, expected[t])] for _, h in events[cfg.reps:]]
    assert sorted(found) == [[t] for t in range(cfg.reps)]


@pytest.mark.parametrize("reps", [3, 5, 7])  # odd counts: unequal thread halves
@pytest.mark.parametrize("cfg", [
    SimConfig(n=30, p=6, q=5, r0=3, seed=4),  # tall: only the first r_x = 6 of 30 noise rows hold H_t
    SimConfig(n=12, p=20, q=8, r0=2, sigma2=4.0, seed=5),  # wide: r_x = n, the whole block
], ids=["tall", "wide"])
def test_dof_study_equals_a_run_that_re_forms_each_h(cfg, reps, monkeypatch):
    # Every field equals a run whose threaded pass forms each replication's
    # H again from the design and its errors (substream (2, t) names t).
    cfg = replace(cfg, reps=reps)
    got = run_dof_study(cfg, n_pert=5)
    x, b = simbench._design(cfg)[:2]
    gram = gram_factors(x)
    h_space_cov = simbench._h_space_cov

    def re_forming(h, w, rng, *args):
        t = rng.bit_generator.seed_seq.spawn_key[1]
        return h_space_cov(build_h(x, x @ b + simbench._errors(cfg, t), gram).h, w, rng, *args)

    monkeypatch.setattr(simbench, "_h_space_cov", re_forming)
    ref = run_dof_study(cfg, n_pert=5)
    assert np.array_equal(got.exact_values, ref.exact_values)
    for name in ("config", "ranks", "naive", "exact_mean", "exact_se", "perturb_mean", "perturb_se", "mc"):
        assert getattr(got, name) == getattr(ref, name), name


def test_dof_study_needs_three_replications():
    # the jackknife standard errors divide by m - 2
    with pytest.raises(DomainError):
        run_dof_study(SimConfig(n=20, p=5, q=7, r0=2, reps=2, seed=2), n_pert=6)
    with pytest.raises(DomainError):
        run_dof_study(SimConfig(n=20, p=5, q=7, r0=2, reps=5, seed=2), n_pert=2)


def test_pred_study_needs_two_replications():
    # the summary's sample standard deviations divide by reps - 1
    for reps in (0, 1):
        with pytest.raises(DomainError, match=rf"^reps {reps} outside \[2, inf\]$"):
            run_pred_study(SimConfig(n=20, p=5, q=7, r0=2, reps=reps, seed=2))


def test_null_signal_studies():
    # r0 = 0: the df study still runs; the prediction study's SNR is undefined
    cfg = SimConfig(n=20, p=5, q=7, r0=0, reps=3, seed=2)
    res = run_dof_study(cfg, n_pert=4)
    assert len(res.exact_mean) == 5 and np.all(np.isfinite(res.exact_mean))
    with pytest.raises(DomainError, match="signal XB is zero"):
        run_pred_study(cfg)


def test_pred_study_uses_each_replications_instance():
    cfg = SimConfig(n=20, p=5, q=7, r0=2, reps=4, seed=2)
    got = run_pred_study(cfg)
    x, b, _, _ = gen_instance(cfg, 0)
    for t in range(cfg.reps):
        y = gen_instance(cfg, t)[2]
        assert got.snr[t] == snr(x, b, y - x @ b)
        assert got.rank_exact[t] == select_rank(fit_ols(x, y), Criterion(kind="gcv")).chosen


def _per_replication_pred_study(cfg):
    # run_pred_study with one fit, one selection and one coefficient matrix
    # per replication, in a Python loop
    x, b, _, _ = gen_instance(cfg, 0)
    xb = x @ b
    res = {name: [] for name in ("est_exact", "est_naive", "pred_exact", "pred_naive",
                                 "rank_exact", "rank_naive", "prg", "snr")}
    for t in range(cfg.reps):
        y = xb + simbench._errors(cfg, t)
        res["snr"].append(snr(x, b, y - xb))
        ls = fit_ols(x, y)
        reports = select_ranks(ls.d, ls.rss, ls.gram.r_x, cfg.n, cfg.q, simbench._PRED_CRITERIA)
        for mode, report in reports.items():
            bhat = coef_matrix(ls, hard(report.chosen))
            res[f"est_{mode}"].append(100.0 * float(np.sum((b - bhat) ** 2)) / (cfg.p * cfg.q))
            res[f"pred_{mode}"].append(100.0 * float(np.sum((xb - x @ bhat) ** 2)) / (cfg.n * cfg.q))
            res[f"rank_{mode}"].append(report.chosen)
        res["prg"].append(100.0 * (res["pred_naive"][-1] - res["pred_exact"][-1]) / res["pred_exact"][-1])
    return res


@pytest.mark.parametrize("cfg", [
    SimConfig(n=30, p=6, q=5, r0=3, reps=12, seed=1),  # tall: n > p
    SimConfig(n=12, p=20, q=8, r0=2, sigma2=4.0, reps=10, seed=3),  # wide: p > n
], ids=["tall", "wide"])
def test_pred_study_equals_per_replication_loop(cfg):
    got = run_pred_study(cfg)
    for name, want in _per_replication_pred_study(cfg).items():
        assert getattr(got, name) == want, name


@pytest.mark.parametrize("cfg", [
    SimConfig(n=30, p=6, q=5, r0=3, reps=12, seed=1),  # tall: n > p
    SimConfig(n=12, p=20, q=8, r0=2, sigma2=4.0, reps=10, seed=3),  # wide: p > n
], ids=["tall", "wide"])
def test_pred_study_does_not_depend_on_the_stack_size(monkeypatch, cfg):
    from rrdof import pipeline

    default = run_pred_study(cfg)
    per_rep = 8 * (cfg.n + cfg.p) * cfg.q  # bytes of one replication's responses and coefficients
    for budget in (1, per_rep, 4 * per_rep + 1):
        monkeypatch.setattr(pipeline, "STACK_BYTES", budget)
        assert run_pred_study(cfg) == default


def test_pred_study_memory_does_not_grow_with_reps():
    # the replications run in stacks of at most pipeline.STACK_BYTES
    _substream(0).standard_normal()  # numpy.random's lazy import, outside the traces

    def peak(reps):
        tracemalloc.start()
        try:
            run_pred_study(replace(PRESETS["hd"], reps=reps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 1.2 * peak(100)


def test_pred_study_fits_and_selects_once(monkeypatch):
    from rrdof import pipeline

    calls = {"_fit": 0, "select_ranks": 0}  # _fit: fit_ols on the study's one factor of X

    def counting(name):
        original = getattr(simbench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(simbench, name, counting(name))
    cfg = SimConfig(n=20, p=5, q=7, r0=2, reps=6, seed=2)
    run_pred_study(cfg)
    assert calls == {"_fit": 1, "select_ranks": 1}  # 6 replications fit in one stack
    # once per stack: stacks of 4 and 2 replications
    monkeypatch.setattr(pipeline, "STACK_BYTES", 4 * 8 * (cfg.n + cfg.p) * cfg.q)
    run_pred_study(cfg)
    assert calls == {"_fit": 3, "select_ranks": 3}


def test_pred_study_factors_its_design_once(monkeypatch):
    from rrdof import estimators, linalg, pipeline

    calls = []

    def spy(x):
        calls.append(np.shape(x))
        return linalg.gram_factors(x)

    for module in (simbench, estimators):
        monkeypatch.setattr(module, "gram_factors", spy)
    cfg = SimConfig(n=20, p=5, q=7, r0=2, reps=9, seed=2)
    monkeypatch.setattr(pipeline, "STACK_BYTES", 4 * 8 * (cfg.n + cfg.p) * cfg.q)  # stacks of 4, 4 and 1
    run_pred_study(cfg)
    assert calls == [(cfg.n, cfg.p)]


class TestPredStudy:
    @pytest.fixture()
    def study(self, pred_study):
        return pred_study

    def test_lengths(self, study):
        reps = study.config.reps
        for seq in (study.est_exact, study.pred_exact, study.rank_exact,
                    study.prg, study.snr):
            assert len(seq) == reps

    def test_ranks_in_range(self, study):
        r_bar = min(study.config.p, study.config.q)
        assert all(1 <= r <= r_bar for r in study.rank_exact + study.rank_naive)

    def test_exact_selection_not_worse_on_average(self, study):
        assert np.mean(study.pred_exact) <= np.mean(study.pred_naive) + 1e-9

    def test_prg_consistent_with_pred(self, study):
        recomputed = 100.0 * (np.asarray(study.pred_naive) - np.asarray(study.pred_exact)) / np.asarray(study.pred_exact)
        assert np.allclose(recomputed, study.prg, rtol=1e-12)

    def test_summary_fields(self, study):
        s = study.summary()
        assert set(s) == {"est", "pred", "rank", "prg", "snr"}
        assert s["prg"]["median"] >= 0.0
        assert s["pred"]["exact"]["mean"] == pytest.approx(np.mean(study.pred_exact))
