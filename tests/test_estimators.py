import numpy as np
import pytest

import rrdof
from rrdof.estimators import (
    ShrinkageRule,
    adaptive,
    coef_matrix,
    fit_ols,
    fit_shrunk,
    hard,
    hard_rows,
    soft,
    validate_weights,
)
from rrdof.exceptions import ContractViolationError, DomainError, ShapeError
from rrdof.linalg import build_h, gram_factors
from rrdof.selection import rss_path


def projection_matrix(x, gf):
    """Hat matrix P = X (X'X)^+ X' from the Gram factors; idempotent with trace r_x."""
    xq = x @ gf.q_mat
    return (xq / gf.s[None, :] ** 2) @ xq.T


@pytest.fixture
def random_xy():
    rng = np.random.default_rng(20)
    return rng.standard_normal((10, 5)), rng.standard_normal((10, 4))


@pytest.fixture
def random_fit(random_xy):
    return fit_ols(*random_xy)


class TestFitOls:
    def test_square_invertible_reproduces_y(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        y = rng.standard_normal((5, 3))
        assert np.allclose(fit_ols(x, y).y_hat, y, atol=1e-8)

    def test_orthonormal_projection_form(self):
        rng = np.random.default_rng(22)
        x = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        y = rng.standard_normal((12, 3))
        assert np.allclose(fit_ols(x, y).y_hat, x @ (x.T @ y), atol=1e-10)

    def test_matches_per_column_normal_equations(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((15, 6))
        y = rng.standard_normal((15, 4))
        ls = fit_ols(x, y)
        for j in range(4):
            beta = np.linalg.solve(x.T @ x, x.T @ y[:, j])
            assert np.allclose(ls.y_hat[:, j], x @ beta, atol=1e-9)

    def test_high_dimensional_ok(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((8, 20))
        y = rng.standard_normal((8, 12))
        ls = fit_ols(x, y)
        assert ls.gram.r_x == 8
        assert ls.r_bar == 8
        # saturated projection: column space of X is all of R^8
        assert np.allclose(ls.y_hat, y, atol=1e-8)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            fit_ols(np.ones((4, 2)), np.ones((5, 2)))

    @pytest.mark.parametrize("shapes", [((12, 5), (12, 4)), ((6, 9), (6, 7)), ((12, 5), (3, 12, 4)),
                                        ((3, 12, 5), (3, 12, 4))],
                             ids=["tall", "wide", "stack of responses", "stack of designs"])
    def test_y_hat_is_the_stored_fit_of_before(self, shapes):
        # Y_hat is formed from the design factor on demand, with the bits of
        # the expression fit_ols once stored
        rng = np.random.default_rng(33)
        x, y = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
        ls = fit_ols(x, y)
        q, s = ls.gram.q_mat, ls.gram.s
        assert np.array_equal(ls.y_hat, ((x @ q) / s[..., None, :]) @ ls.hf.h)
        assert ls.dims == y.shape[-2:]


class TestSharedGram:
    """One 2-d design against a stack of responses is factored once."""

    @pytest.mark.parametrize("shape", [(12, 5, 4), (6, 9, 7)])
    def test_stack_of_responses_equals_each_own_fit(self, shape):
        n, p, q = shape
        rng = np.random.default_rng(26)
        x = rng.standard_normal((n, p))
        y = rng.standard_normal((3, n, q))
        got = fit_ols(x, y)
        assert got.gram.w.shape == (n, got.gram.r_x) and got.gram.q_mat.shape == (p, got.gram.r_x)
        assert got.y_hat.shape == (3, n, q)
        for t in range(3):
            one = fit_ols(x, y[t])
            assert got.r_bar == one.r_bar
            assert np.array_equal(got.y_hat[t], one.y_hat)
            assert np.array_equal(got.hf.h[t], one.hf.h)
            assert np.array_equal(got.d[t], one.d)
            assert np.array_equal(got.hf.svd.left[t], one.hf.svd.left)
            assert np.array_equal(got.hf.svd.right[t], one.hf.svd.right)

    def test_gram_of_another_design_shape_rejected(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((10, 5))
        other = gram_factors(rng.standard_normal((10, 6)))
        with pytest.raises(ShapeError, match="gram factors do not match"):
            build_h(x, rng.standard_normal((10, 3)), other)
        with pytest.raises(ShapeError, match="gram factors do not match"):
            build_h(x, rng.standard_normal((2, 10, 3)), other)


class TestLsFitRss:
    """fit_ols sums the least-squares rss once per fit; the rank path reads it."""

    @pytest.mark.parametrize("layout", ["2-d", "stack of designs", "stack of responses"])
    def test_rss_is_the_residual_sum_of_squares_bit_for_bit(self, layout):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((3, 12, 5) if layout == "stack of designs" else (12, 5))
        y = rng.standard_normal((12, 4) if layout == "2-d" else (3, 12, 4))
        ls = fit_ols(x, y)
        assert np.shape(ls.rss) == y.shape[:-2]
        assert np.array_equal(ls.rss, np.sum((y - ls.y_hat) ** 2, axis=(-2, -1)))
        assert np.array_equal(rss_path(ls.d, ls.rss, [ls.r_bar])[..., 0], ls.rss)
        if layout != "2-d":  # each fit of a stack has its own fit's rss
            for t in range(3):
                assert ls.rss[t] == fit_ols(x[t] if x.ndim == 3 else x, y[t]).rss


class TestShrinkageRules:
    def test_hard_weights(self):
        s, sp = hard(2).weights(np.array([5.0, 3.0, 1.0]))
        assert np.array_equal(s, [1, 1, 0])
        assert np.array_equal(sp, [0, 0, 0])

    def test_soft_weights(self):
        s, sp = soft(1.0).weights(np.array([2.0, 1.0]))
        assert np.allclose(s, [0.5, 0.0])
        assert np.allclose(sp, [0.25, 0.0])

    def test_adaptive_weights_monotone(self):
        d = np.array([4.0, 2.5, 1.2, 0.9])
        s, sp = adaptive(1.0).weights(d)
        assert np.all(s >= 0) and np.all(s <= 1)
        assert np.all(np.diff(s) <= 0)
        assert np.all(sp >= 0)

    def test_adaptive_shrunk_value_form(self):
        d = np.array([3.0, 2.0])
        lam, g = 1.0, 2.0
        s, _ = adaptive(lam, g).weights(d)
        assert np.allclose(s * d, np.maximum(d - lam ** (g + 1) * d ** (-g), 0))

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_parameter_validation(self, bad):
        for make, name in ((soft, "lambda"), (adaptive, "lambda"),
                           (lambda v: adaptive(1.0, v), "gamma")):
            with pytest.raises(DomainError, match=f"^{name} must be nonnegative$"):
                make(bad)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(DomainError, match="^unknown shrinkage kind: 'bogus'$"):
            ShrinkageRule("bogus").weights(np.array([2.0, 1.0]))

    def test_infinite_gamma_is_rejected(self):
        # it once gave weight derivatives of NaN, and so a NaN df
        with pytest.raises(DomainError, match="^gamma must be finite$"):
            adaptive(2.0, gamma=float("inf"))

    def test_validate_rejects_non_monotone(self):
        with pytest.raises(ContractViolationError):
            validate_weights(np.array([0.5, 0.8]))

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ContractViolationError):
            validate_weights(np.array([1.2, 0.1]))

    def test_validate_rejects_non_finite(self):
        for s, s_prime in (([1.0, np.nan], None), ([1.0, 0.5], [0.0, np.inf]), ([1.0, 0.5], [np.nan, 0.0])):
            with pytest.raises(ContractViolationError, match="must be finite"):
                validate_weights(np.array(s), s_prime)


class TestFitRrr:
    def test_full_rank_equals_ols(self, random_fit):
        y_fit = fit_shrunk(random_fit, hard(random_fit.r_bar))
        assert np.allclose(y_fit, random_fit.y_hat, atol=1e-10)

    def test_rank_one_is_leading_term(self, random_fit):
        y_fit = fit_shrunk(random_fit, hard(1))
        f = random_fit.hf.svd
        w1 = random_fit.y_hat @ f.right[:, 0] / f.d[0]
        expected = f.d[0] * np.outer(w1, f.right[:, 0])
        assert np.allclose(y_fit, expected, atol=1e-9)

    def test_rank_out_of_range(self, random_fit):
        # the hard rule checks its rank against the spectrum where it is applied
        r = random_fit.r_bar
        with pytest.raises(DomainError, match=rf"^rank {r + 1} outside \[0, {r}\]$"):
            fit_shrunk(random_fit, hard(r + 1))
        # a negative or non-integer rank is named, not truncated
        with pytest.raises(DomainError, match=r"^rank -1 outside"):
            fit_shrunk(random_fit, hard(-1))
        with pytest.raises(DomainError, match=r"^rank 2.7 is not an integer$"):
            fit_shrunk(random_fit, hard(2.7))
        assert np.count_nonzero(hard(2.0).weights(random_fit.d)[0]) == hard(np.int64(2)).rank == 2
        # rank 0 is the zero fit
        assert not np.any(fit_shrunk(random_fit, hard(0)))
        assert not np.any(coef_matrix(random_fit, hard(0)))

    def test_eckart_young_monotone_residuals(self, random_fit, random_xy):
        y = random_xy[1]
        rss = [
            np.linalg.norm(y - fit_shrunk(random_fit, hard(r)))
            for r in range(1, random_fit.r_bar + 1)
        ]
        assert np.all(np.diff(rss) <= 1e-12)

    def test_beats_alternating_least_squares(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((10, 5))
        y = rng.standard_normal((10, 4))
        ls = fit_ols(x, y)
        y_fit = fit_shrunk(ls, hard(2))
        # ALS oracle: B = L R' with L (5x2), R (4x2), alternating ridge-free
        # least squares updates.
        left = rng.standard_normal((5, 2))
        for _ in range(200):
            xl = x @ left
            right = np.linalg.lstsq(xl, y, rcond=None)[0].T  # 4x2
            lt = np.linalg.lstsq(np.kron(right, x), y.ravel(order="F"), rcond=None)[0]
            left = lt.reshape(5, 2, order="F")
        b_als = left @ right.T
        assert np.linalg.norm(y - y_fit) <= np.linalg.norm(y - x @ b_als) + 1e-8


class TestFitShrunk:
    def test_soft_zero_is_identity(self, random_fit):
        y_fit = fit_shrunk(random_fit, soft(0.0))
        assert np.allclose(y_fit, random_fit.y_hat, atol=1e-10)

    def test_total_shrinkage(self, random_fit):
        # lambda = inf is legal: the zero-fit limit
        for rule in (soft(float(random_fit.d[0]) + 1.0), soft(np.inf), adaptive(np.inf)):
            assert not np.any(np.concatenate(rule.weights(random_fit.d)))
            assert np.allclose(fit_shrunk(random_fit, rule), 0)

    def test_soft_shrunk_values(self):
        x = np.eye(3)
        y = np.diag([2.0, 1.0, 0.0])[:, :2]
        ls = fit_ols(x, y)
        d_tilde = soft(1.0).weights(ls.d)[0] * ls.d
        assert np.allclose(np.sort(d_tilde)[::-1], [1.0, 0.0])

    def test_rejects_bad_rule(self, random_fit):
        class Bad(ShrinkageRule):
            def weights(self, d):
                return np.linspace(0, 1, d.size), np.zeros(d.size)

        for apply in (fit_shrunk, coef_matrix):
            with pytest.raises(ContractViolationError):
                apply(random_fit, Bad(kind="hard"))

    def test_stack_equals_each_slice(self):
        # a stack of fits is shrunk along its leading axes, as each slice alone
        rng = np.random.default_rng(30)
        x, y = rng.standard_normal((4, 12, 5)), rng.standard_normal((4, 12, 4))
        ls = fit_ols(x, y)
        got = fit_shrunk(ls, hard(2))
        assert got.shape == (4, 12, 4)
        for t in range(4):
            assert np.array_equal(got[t], fit_shrunk(fit_ols(x[t], y[t]), hard(2)))

    def test_weight_rows_per_fit(self):
        rng = np.random.default_rng(31)
        x, y = rng.standard_normal((12, 5)), rng.standard_normal((3, 12, 4))
        ls = fit_ols(x, y)
        ranks = [1, 3, 2]
        got = fit_shrunk(ls, hard_rows(ranks, ls.r_bar))
        for t, r in enumerate(ranks):
            assert np.array_equal(got[t], fit_shrunk(fit_ols(x, y[t]), hard(r)))

    def test_column_space_containment(self, random_fit, random_xy):
        p = projection_matrix(random_xy[0], random_fit.gram)
        for rule in (hard(2), soft(0.5), adaptive(0.5)):
            y_fit = fit_shrunk(random_fit, rule)
            assert np.linalg.norm(y_fit - p @ y_fit) < 1e-8


class TestCoefMatrix:
    def test_square_invertible(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        y = rng.standard_normal((4, 3))
        ls = fit_ols(x, y)
        b = coef_matrix(ls, hard(ls.r_bar))
        assert np.allclose(b, np.linalg.solve(x, ls.y_hat), atol=1e-8)

    def test_total_shrinkage_zero(self, random_fit):
        assert np.allclose(coef_matrix(random_fit, soft(float(random_fit.d[0]) + 1)), 0)

    def test_self_consistency(self, random_fit, random_xy):
        for rule in (hard(1), hard(3), soft(0.7), adaptive(0.4)):
            b = coef_matrix(random_fit, rule)
            assert np.linalg.norm(random_xy[0] @ b - fit_shrunk(random_fit, rule)) < 1e-8

    @pytest.mark.parametrize("shape", [(10, 5, 4), (6, 10, 3), (8, 3, 7)])
    def test_self_consistency_across_shapes(self, shape):
        n, p, q = shape
        rng = np.random.default_rng(29)
        x = rng.standard_normal((n, p))
        ls = fit_ols(x, rng.standard_normal((n, q)))
        rules = [hard(r) for r in range(ls.r_bar + 1)] + [soft(0.7), adaptive(0.4)]
        for rule in rules:
            assert np.linalg.norm(x @ coef_matrix(ls, rule) - fit_shrunk(ls, rule)) < 1e-8

    def test_row_space_containment(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((6, 10))  # rank-deficient design
        y = rng.standard_normal((6, 3))
        ls = fit_ols(x, y)
        b = coef_matrix(ls, hard(2))
        # b should be reachable from the row space of x
        proj = x.T @ np.linalg.pinv(x.T)
        assert np.linalg.norm(proj @ b - b) < 1e-8

    @pytest.mark.parametrize("stacked_x", [False, True], ids=["one_design", "stacked_designs"])
    def test_weight_rows_of_a_stack_equal_each_slice(self, stacked_x):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((3, 12, 5) if stacked_x else (12, 5))
        y = rng.standard_normal((3, 12, 4))
        ls = fit_ols(x, y)
        ranks = [2, 0, 4]
        got = coef_matrix(ls, hard_rows(ranks, ls.r_bar))
        assert got.shape == (3, 5, 4)
        for t, r in enumerate(ranks):
            one = fit_ols(x[t] if stacked_x else x, y[t])
            assert np.array_equal(got[t], coef_matrix(one, hard(r)))
        assert np.array_equal(coef_matrix(ls, hard(2))[0], got[0])  # a rule applies to every fit

    def test_weight_rows_are_checked(self, random_fit):
        s, sp = hard_rows(2, random_fit.r_bar)
        with pytest.raises(ContractViolationError, match="nonincreasing"):
            coef_matrix(random_fit, (s[::-1], sp))

    def test_rejects_out_of_range_ranks(self, random_fit):
        for r in (-1, random_fit.r_bar + 1):
            with pytest.raises(DomainError, match=f"rank {r} outside"):
                coef_matrix(random_fit, hard(r))
        with pytest.raises(DomainError, match=r"^rank 2.9 is not an integer$"):
            coef_matrix(random_fit, hard(2.9))


def test_public_names_resolve():
    for name in rrdof.__all__:
        assert getattr(rrdof, name) is not None
    for gone in ("FittedModel", "fit_rrr", "rrr_coef"):
        assert not hasattr(rrdof, gone)
        assert gone not in rrdof.__all__
