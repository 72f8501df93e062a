import re
import sys
import threading
import time

import numpy as np
import pytest

from rrdof.exceptions import DegenerateDesignError, ShapeError
from rrdof.linalg import (
    _fix_signs,
    _two_threads,
    build_h,
    gram_factors,
    thin_svd,
)


def reconstruct(f):
    return f.left @ np.diag(f.d) @ f.right.T


class TestThinSvd:
    def test_identity(self):
        f = thin_svd(np.eye(3))
        assert np.allclose(f.d, [1, 1, 1])

    def test_diagonal(self):
        f = thin_svd(np.diag([3.0, 2.0]))
        assert np.allclose(f.d, [3, 2])
        assert np.allclose(f.left, np.eye(2))
        assert np.allclose(f.right, np.eye(2))

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 3))
        f = thin_svd(m)
        err = np.linalg.norm(reconstruct(f) - m) / max(1.0, np.linalg.norm(m))
        assert err < 1e-10

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 4))
        f = thin_svd(m)
        assert np.allclose(f.left.T @ f.left, np.eye(4), atol=1e-10)
        assert np.allclose(f.right.T @ f.right, np.eye(4), atol=1e-10)
        assert np.all(np.diff(f.d) <= 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        f1, f2 = thin_svd(m), thin_svd(m.copy())
        assert np.array_equal(f1.right, f2.right)
        for k in range(3):
            j = np.argmax(np.abs(f1.right[:, k]))
            assert f1.right[j, k] > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeError):
            thin_svd(np.array([[1.0, np.nan]]))


def _fix_signs_loop(u, vt):
    # Reference: the per-row loop that the vectorised _fix_signs replaces.
    for k in range(vt.shape[0]):
        row = vt[k]
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            vt[k] = -row
            u[:, k] = -u[:, k]
    return u, vt


@pytest.mark.parametrize("case", ["random", "tied", "zero_rows"])
def test_fix_signs_matches_loop(case):
    rng = np.random.default_rng(7)
    u = rng.standard_normal((6, 5))
    vt = rng.standard_normal((5, 4))
    if case == "tied":
        # equal magnitudes of both signs: the first maximal entry decides
        vt = rng.choice([-1.0, 1.0], size=(5, 4))
        vt[1] = [-2.0, 2.0, 1.0, 0.0]
        vt[2] = [2.0, -2.0, 0.0, 1.0]
    elif case == "zero_rows":
        vt[[0, 3]] = 0.0
        vt[4] = [0.0, -0.0, -3.0, 3.0]
    got_u, got_vt = _fix_signs(u.copy(), vt.copy())
    ref_u, ref_vt = _fix_signs_loop(u.copy(), vt.copy())
    assert np.array_equal(got_u, ref_u)
    assert np.array_equal(got_vt, ref_vt)
    assert np.array_equal(np.signbit(got_vt), np.signbit(ref_vt))


def test_fix_signs_matches_loop_on_a_stack_with_negative_zeros():
    # one multiply by +-1 per vector pair: a flipped pair's zeros change sign,
    # and a row whose largest entry is -0.0 is not flipped
    rng = np.random.default_rng(8)
    u = rng.standard_normal((2, 3, 6, 5))
    vt = rng.standard_normal((2, 3, 5, 4))
    u[..., 0, :], u[..., 1, :] = -0.0, 0.0
    vt[0, 0, 0] = [-0.0, 0.0, -0.0, 0.0]
    vt[0, 1, 1] = [0.0, -3.0, -0.0, 1.0]
    vt[1, 2, :, 0] = -0.0
    got_u, got_vt = _fix_signs(u.copy(), vt.copy())
    ref_u, ref_vt = u.copy(), vt.copy()
    for idx in np.ndindex(2, 3):
        _fix_signs_loop(ref_u[idx], ref_vt[idx])  # in place on each slice
    for got, ref in ((got_u, ref_u), (got_vt, ref_vt)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.signbit(got_vt[0, 0, 0]).tolist() == [True, False, True, False]
    assert np.signbit(got_vt[0, 1, 1]).tolist() == [True, False, False, True]


def conditioned_design(cond, seed=0, n=60, p=10):
    """An n x p design whose singular values are log-spaced from 1 to 1/cond."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, p)))[0]
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return (u * np.logspace(0, -np.log10(cond), p)) @ v.T


class TestGramFactors:
    def test_orthonormal_design(self):
        q_cols = np.linalg.qr(np.random.default_rng(4).standard_normal((10, 4)))[0]
        gf = gram_factors(q_cols)
        assert gf.r_x == 4
        assert np.allclose(gf.s, 1.0)

    def test_duplicated_column(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3))
        x = np.column_stack([x, x[:, 0]])
        assert gram_factors(x).r_x == 3  # its eigenvalue is roundoff: collinear, no error

    def test_wide_design_rank(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 80))
        gf = gram_factors(x)
        assert gf.r_x == np.linalg.matrix_rank(x) == 40

    def test_reconstructs_gram(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((12, 5))
        gf = gram_factors(x)
        xtx = x.T @ x
        approx = gf.q_mat @ np.diag(gf.s**2) @ gf.q_mat.T
        assert np.linalg.norm(approx - xtx) / np.linalg.norm(xtx) < 1e-8

    def test_zero_design(self):
        with pytest.raises(DegenerateDesignError):
            gram_factors(np.zeros((4, 3)))

    def test_tied_eigenvalues_of_a_pm1_orthogonal_design(self):
        # Sylvester's 8 x 8 Hadamard matrix, stacked twice: X'X = 16 I exactly,
        # so every eigenvalue is tied and eigh alone orders the eigenvectors
        had = np.ones((1, 1))
        for _ in range(3):
            had = np.block([[had, had], [had, -had]])
        x = np.vstack([had, had])[:, :6]
        assert np.array_equal(x.T @ x, 16.0 * np.eye(6))
        gf = gram_factors(x)
        assert gf.r_x == 6
        assert np.abs(gf.q_mat @ np.diag(gf.s**2) @ gf.q_mat.T - x.T @ x).max() < 1e-12
        assert np.abs(gf.w.T @ gf.w - np.eye(6)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_condition_number_under_1e5_keeps_every_direction(self, seed):
        # at exactly 1e5 the smallest eigenvalue sits on RANK_TOL, on either
        # side of it as rounding falls; 9e4 is clear of it
        assert gram_factors(conditioned_design(9e4, seed)).r_x == 10

    @pytest.mark.parametrize(
        "cond, named",
        [(2e5, "2e+05"), (1e8, "2.15e+05")],  # 1e8: the largest dropped direction, s_7 = 1e8**(-6/9)
    )
    def test_a_lost_direction_raises_naming_its_condition_number(self, cond, named):
        msg = f"design is ill-conditioned for X'X: condition number {named}"
        with pytest.raises(DegenerateDesignError, match=f"^{re.escape(msg)}$"):
            gram_factors(conditioned_design(cond))

    def test_a_stack_names_the_design_that_loses_a_direction(self):
        x = np.stack([conditioned_design(10.0, 1), conditioned_design(2e5, 2), conditioned_design(1e8, 3)])
        with pytest.raises(DegenerateDesignError, match=re.escape("design [1] of the stack is ill-conditioned")):
            gram_factors(x)
        with pytest.raises(DegenerateDesignError, match=re.escape("design [0, 1] of the stack")):
            gram_factors(x[None, [0, 2]])

    @pytest.mark.parametrize("shape", [(12, 5), (6, 10), (3, 12, 5)], ids=["tall", "wide", "stack"])
    def test_basis_is_x_q_over_s_with_orthonormal_columns(self, shape):
        x = np.random.default_rng(13).standard_normal(shape)
        gf = gram_factors(x)
        assert np.array_equal(gf.w, (x @ gf.q_mat) / gf.s[..., None, :])
        assert gf.w.shape == shape[:-1] + (gf.r_x,)
        wtw = gf.w.swapaxes(-1, -2) @ gf.w
        assert np.abs(wtw - np.eye(gf.r_x)).max() < 1e-10


class TestBuildH:
    def test_orthonormal_design_gives_xty(self):
        # h lives in the gram eigenbasis; with unit scale factors, rotating it
        # back recovers x' y exactly
        rng = np.random.default_rng(8)
        x = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        y = rng.standard_normal((10, 3))
        gf = gram_factors(x)
        hf = build_h(x, y, gf)
        assert np.allclose(gf.q_mat @ hf.h, x.T @ y, atol=1e-10)
        assert np.allclose(np.linalg.norm(hf.h), np.linalg.norm(x.T @ y))

    def test_spectrum_matches_projected_fit(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((15, 6))
        y = rng.standard_normal((15, 4))
        gf = gram_factors(x)
        hf = build_h(x, y, gf)
        y_hat = x @ np.linalg.pinv(x) @ y
        d_ref = np.linalg.svd(y_hat, compute_uv=False)
        assert np.allclose(hf.svd.d, d_ref, rtol=1e-8)

    def test_zero_response(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 3))
        hf = build_h(x, np.zeros((6, 2)), gram_factors(x))
        assert np.allclose(hf.h, 0)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 3))
        with pytest.raises(ShapeError):
            build_h(x, np.zeros((5, 2)), gram_factors(x))


def test_projection_idempotent():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((12, 20))  # wide: r_x = 12
    gf = gram_factors(x)
    xq = x @ gf.q_mat
    p = (xq / gf.s[None, :] ** 2) @ xq.T  # the hat matrix X (X'X)^+ X' from the Gram factors
    assert np.linalg.norm(p @ p - p) < 1e-8
    assert abs(np.trace(p) - gf.r_x) < 1e-6


def _on_caller():
    return threading.current_thread() is threading.main_thread()


@pytest.mark.parametrize("n_chunks", [1, 2, 5])
def test_two_threads_runs_each_half_on_one_thread(n_chunks):
    # one item a stack: the caller takes the first (larger) half in order,
    # the helper the rest; with threads=1 the caller takes every stack
    chunks = [(k, k + 1) for k in range(n_chunks)]
    for threads, half in ((2, (n_chunks + 1) // 2), (1, n_chunks)):
        seen = []
        _two_threads(lambda lo, hi: seen.append((_on_caller(), (lo, hi))), n_chunks, 1, threads=threads)
        assert [c for on_caller, c in seen if on_caller] == chunks[:half]
        assert [c for on_caller, c in seen if not on_caller] == chunks[half:]


def test_two_threads_starts_no_thread_for_one_chunk(monkeypatch):
    # nor for any number of stacks under threads=1
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    seen = []
    _two_threads(lambda lo, hi: seen.append((lo, hi)), 3, 3)
    assert seen == [(0, 3)]
    seen.clear()
    _two_threads(lambda lo, hi: seen.append((lo, hi)), 7, 2, threads=1)
    assert seen == [(0, 1), (1, 3), (3, 5), (5, 7)]


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_two_threads_error_in_either_thread_reaches_the_caller(raiser):
    # The raising thread fails on its first stack once the other thread has
    # begun its own. The other thread finishes that stack only after the
    # failure and then starts no other; the caller raises the error once the
    # helper has been joined.
    class Boom(Exception):
        pass

    began, raised, ran = threading.Event(), threading.Event(), []

    def work(lo, hi):
        ran.append(lo)
        if _on_caller() == (raiser == "caller"):
            assert began.wait(10)
            raised.set()
            raise Boom(raiser)
        began.set()
        assert raised.wait(10)
        time.sleep(0.05)  # lets the raising thread record its error

    before = threading.active_count()
    with pytest.raises(Boom, match=raiser):
        _two_threads(work, 8, 2)  # stacks (0, 2), (2, 4) on the caller, (4, 6), (6, 8) on the helper
    assert sorted(ran) == [0, 4]
    assert threading.active_count() == before


def test_two_threads_runs_both_threads_under_the_callers_errstate():
    # a new thread may start from numpy's default error state
    seen = []
    with np.errstate(divide="ignore", over="raise", under="warn", invalid="raise"):
        caller = np.geterr()
        _two_threads(lambda lo, hi: seen.append((_on_caller(), np.geterr())), 2, 1)
    assert sorted(on_caller for on_caller, _ in seen) == [False, True]
    assert all(modes == caller for _, modes in seen)


def test_two_threads_writes_every_slot_once_under_frequent_switches():
    # the stacks are disjoint and cover [0, m): no slot is written twice or
    # skipped however often the interpreter switches threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            out = np.zeros(63)

            def work(lo, hi):
                out[lo:hi] += 1

            _two_threads(work, out.size, 4)  # 16 stacks of 3 or 4
            assert np.all(out == 1)
    finally:
        sys.setswitchinterval(interval)


def _started_threads(monkeypatch):
    # every thread started through threading.Thread, in start order
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def test_two_threads_runs_a_plan_nested_in_a_stack_inline(monkeypatch):
    # A plan started inside a stack of another plan cuts its usual stacks (5
    # items, at most 2 a stack: an even count of 4) but starts no thread: it
    # runs them in order on the thread of the stack that started it. Only the
    # outer plan's helper starts.
    started = _started_threads(monkeypatch)
    seen = {}

    def outer(lo, hi):
        inner = []
        _two_threads(lambda a, b: inner.append((threading.get_ident(), (a, b))), 5, 2)
        seen[lo] = (threading.get_ident(), _on_caller(), inner)

    _two_threads(outer, 2, 1)
    assert len(started) == 1
    assert sorted(on_caller for _, on_caller, _ in seen.values()) == [False, True]
    for ident, _, inner in seen.values():
        assert inner == [(ident, stack) for stack in [(0, 1), (1, 2), (2, 3), (3, 5)]]


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_two_threads_error_in_a_nested_stack_reaches_the_outermost_caller(raiser):
    # the nested plan of the raising outer stack stops at its failed stack;
    # the error passes through the outer plan to its caller after the join
    class Boom(Exception):
        pass

    ran = []

    def inner(lo, hi):
        ran.append((_on_caller(), lo))
        if lo == 1 and _on_caller() == (raiser == "caller"):
            raise Boom(raiser)

    before = threading.active_count()
    with pytest.raises(Boom, match=raiser):
        _two_threads(lambda lo, hi: _two_threads(inner, 3, 1), 2, 1)
    assert threading.active_count() == before
    assert [lo for on_caller, lo in ran if on_caller == (raiser == "caller")] == [0, 1]


def test_two_threads_starts_its_helper_after_a_failing_nested_plan(monkeypatch):
    # a failure inside a nested plan leaves the calling thread outside any
    # stack, so its next plan splits across two threads again
    started = _started_threads(monkeypatch)

    def failing(lo, hi):
        raise ValueError("nested")

    with pytest.raises(ValueError, match="nested"):
        _two_threads(lambda lo, hi: _two_threads(failing, 4, 1), 1, 1)
    assert started == []
    seen = []
    _two_threads(lambda lo, hi: seen.append((_on_caller(), (lo, hi))), 2, 1)
    assert len(started) == 1
    assert sorted(seen) == [(False, (1, 2)), (True, (0, 1))]
