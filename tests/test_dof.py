import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from rrdof.dof import (
    _cov_df,
    _substream,
    divergence_analytic,
    divergence_fd,
    exact_df_path,
    exact_df_rrr,
    exact_df_shrunk,
    mc_df,
    naive_df,
    perturbation_df,
    sv_derivatives,
)
from rrdof.estimators import ShrinkageRule, adaptive, coef_matrix, fit_ols, fit_shrunk, hard, hard_rows, soft
from rrdof.exceptions import ContractViolationError, DegeneracyError, DomainError
from rrdof.linalg import thin_svd
from rrdof.pipeline import fixture_paths, ingest_csv
from rrdof.selection import Criterion, select_rank


def random_h(rng, r_x, q, min_rel_gap=0.1):
    """A random matrix with all relative spectral gaps above min_rel_gap."""
    while True:
        h = rng.standard_normal((r_x, q))
        d = np.linalg.svd(h, compute_uv=False)
        gaps = -np.diff(np.concatenate([d, [0.0]])) / d[0]
        if np.min(gaps) > min_rel_gap:
            return h


class TestNaiveDf:
    def test_paper_count(self):
        assert naive_df(3, 2, 1) == 4

    def test_empty_model(self):
        assert naive_df(20, 12, 0) == 0

    def test_full_rank_is_parameter_count(self):
        assert naive_df(3, 2, 2) == 6

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            naive_df(3, 2, 3)
        # the message names the first bad rank; non-integers are rejected
        for r, msg in (([1, 3, 4], "rank 3 outside [0, 2]"), (2.5, "rank 2.5 is not an integer"),
                       ([1, 1.5], "rank 1.5 is not an integer")):
            with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
                naive_df(3, 2, r)
        assert naive_df(3, 2, [1.0, np.int64(2)]) == [4.0, 6.0]


class TestExactDfRrr:
    def test_full_rank_anchor(self):
        assert exact_df_rrr([2.0, 1.0], 3, 2, 2).value == 6.0

    def test_two_by_three_value(self):
        est = exact_df_rrr([2.0, 1.0], 3, 2, 1)
        assert est.value == pytest.approx(3 + 5 / 3, abs=1e-12)

    def test_matches_fd_oracle(self):
        # H with singular values exactly (2, 1)
        h = np.zeros((3, 2))
        h[0, 0], h[1, 1] = 2.0, 1.0
        fd = divergence_fd(h, hard(1)).value
        assert exact_df_rrr([2.0, 1.0], 3, 2, 1).value == pytest.approx(fd, abs=1e-4)

    def test_non_monotone_near_tie(self):
        d = [10.0, 3.01, 3.0]
        df2 = exact_df_rrr(d, 5, 3, 2).value
        df3 = exact_df_rrr(d, 5, 3, 3).value
        assert df2 > df3
        assert df2 > 300  # the near-tie cross term dominates

    def test_lower_bound_strict(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r_x, q = rng.integers(2, 9, size=2)
            r_bar = min(r_x, q)
            d = np.sort(rng.uniform(0.5, 10.0, size=r_bar))[::-1]
            if np.min(-np.diff(d, append=0.0)) < 1e-3:
                continue
            for r in range(1, r_bar + 1):
                assert exact_df_rrr(d, r_x, q, r).value >= naive_df(r_x, q, r) - 1e-12

    def test_degeneracy_policy(self):
        d = [2.0, 1.0 + 1e-12, 1.0]
        est = exact_df_rrr(d, 4, 3, 1)
        assert est.degenerate_flag

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            exact_df_rrr([1.0, 2.0], 3, 2, 1)

    def test_vanished_tail_takes_the_limit(self):
        # every kept/vanished pair contributes its limit 1
        assert exact_df_rrr([2.0, 1.0, 0.0], 5, 3, 2).value == 12.0
        assert exact_df_rrr([2.0, 1e-13, 0.0], 5, 3, 1).value == naive_df(5, 3, 1)
        assert exact_df_rrr([0.0, 0.0], 3, 2, 1).value == naive_df(3, 2, 1)

    def test_rejects_negative_or_interleaved_vanished_values(self):
        for d in ([2.0, -1.0, 0.0], [2.0, 0.0, 1.0], [2.0, np.nan, 0.0], [np.inf, 1.0, 0.0]):
            with pytest.raises(DomainError):
                exact_df_rrr(d, 5, 3, 1)

    def test_noiseless_rank_two_agrees_with_selection(self):
        # the instance of test_degenerate_zero_tail_falls_back_to_naive_count:
        # the two trailing singular values vanish
        rng = np.random.default_rng(75)
        x = rng.standard_normal((30, 5))
        b = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        ls = fit_ols(x, x @ b)
        rep = select_rank(ls, Criterion(kind="gcv"))
        for r, used in zip(rep.candidates, rep.df_used):
            s, sp = hard(r).weights(ls.d)
            assert exact_df_rrr(ls.d, 5, 4, r).value == used
            assert exact_df_shrunk(ls.d, 5, 4, s, sp).value == used
        assert rep.df_used[2] == 18.0


class TestExactDfPath:
    def test_equals_per_rank(self):
        d = [10.0, 6.0, 3.01, 3.0, 0.5]
        values, flags = exact_df_path(d, 7, 5, *hard_rows([3, 1, 5, 3], 5))
        assert values.tolist() == [exact_df_rrr(d, 7, 5, r).value for r in (3, 1, 5, 3)]
        assert flags.tolist() == [exact_df_rrr(d, 7, 5, r).degenerate_flag for r in (3, 1, 5, 3)]
        assert [a.tolist() for a in exact_df_path(d, 7, 5, *hard_rows([], 5))] == [[], []]

    def test_rejects_out_of_range_rank(self):
        # the ranks are checked as one array; the message names the first bad one
        for ranks, bad in (([1, -1], -1), ([1, 6], 6), ([2, 6, -1], 6), (np.array([3, 7]), 7)):
            with pytest.raises(DomainError, match=rf"^rank {bad} outside \[0, 5\]$"):
                hard_rows(ranks, 5)
        # a non-integer rank is named, not truncated; integral floats pass
        for ranks, bad in (([1.9], 1.9), ([2, 2.5], 2.5), ([3.5, 7], 3.5), ([2, np.nan], "nan")):
            with pytest.raises(DomainError, match=rf"^rank {bad} is not an integer$"):
                hard_rows(ranks, 5)
        d = [3.0, 2.0, 1.0, 0.5, 0.1]
        with pytest.raises(DomainError, match=r"^rank 2.5 is not an integer$"):
            exact_df_rrr(d, 7, 5, 2.5)
        for got, want in zip(hard_rows([2.0, np.int64(3)], 5), hard_rows([2, 3], 5)):
            assert got.tolist() == want.tolist()
        # the rows are the hard rule's weights; rank 0 is the zero fit
        s, s_prime = hard_rows([0, 2, 5], 5)
        assert s.tolist() == [[0.0] * 5, [1.0, 1.0, 0.0, 0.0, 0.0], [1.0] * 5]
        assert s_prime.tolist() == [[0.0] * 5] * 3
        assert [a.shape for a in hard_rows(2, 5)] == [(5,), (5,)]
        assert exact_df_path(d, 7, 5, s, s_prime)[0][0] == 0.0

    def test_gap_policy_applies_below_full_rank(self):
        d = [2.0, 1.0 + 1e-12, 1.0]
        values, flags = exact_df_path(d, 4, 3, *hard_rows([1, 2, 3], 3))
        assert flags.tolist() == [True, True, False]
        assert flags.tolist() == [exact_df_rrr(d, 4, 3, r).degenerate_flag for r in (1, 2, 3)]
        assert values[2] == 12.0

    def test_rejects_malformed_rows(self):
        d = [3.0, 2.0, 1.0]
        good, zero = np.array([[1.0, 0.5, 0.0]]), np.zeros((1, 3))
        for s, s_prime, error in (
            (good[0], zero[0], DomainError),  # one row, not an (m, r_bar) matrix
            (good[None], zero[None], DomainError),
            (good[:, :2], zero[:, :2], DomainError),  # not the spectrum length
            (good, np.zeros((2, 3)), DomainError),  # derivatives of another shape
            ([[1.0, 0.5, 0.0], [0.5, 0.8, 0.0]], np.zeros((2, 3)), ContractViolationError),  # increasing
            ([[1.2, 0.5, 0.0]], zero, ContractViolationError),  # above 1
            ([[0.5, 0.0, -0.5]], zero, ContractViolationError),  # below 0
            ([[1.0, np.nan, 0.0]], zero, ContractViolationError),
            ([[np.inf, 0.5, 0.0]], zero, ContractViolationError),
            (good, [[0.0, np.inf, 0.0]], ContractViolationError),
            (good, [[0.0, np.nan, 0.0]], ContractViolationError),
            ([[0.5, 0.0, 5e-13]], zero, ContractViolationError),  # support not a leading block
        ):
            with pytest.raises(error):
                exact_df_path(d, 4, 3, s, s_prime)


class TestExactDfShrunk:
    def test_hard_reduction(self):
        rng = np.random.default_rng(32)
        d = np.sort(rng.uniform(1, 9, size=5))[::-1]
        for r in range(1, 6):
            s = np.where(np.arange(5) < r, 1.0, 0.0)
            a = exact_df_shrunk(d, 7, 5, s, np.zeros(5)).value
            b = exact_df_rrr(d, 7, 5, r).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_soft_value(self):
        s, sp = soft(1.0).weights(np.array([2.0, 1.0]))
        est = exact_df_shrunk([2.0, 1.0], 3, 2, s, sp)
        assert est.value == pytest.approx(17 / 6, abs=1e-12)

    def test_all_zero_weights(self):
        est = exact_df_shrunk([2.0, 1.0], 3, 2, [0.0, 0.0], [0.0, 0.0])
        assert est.value == 0.0

    def test_rejects_non_monotone_weights(self):
        with pytest.raises(ContractViolationError):
            exact_df_shrunk([2.0, 1.0], 3, 2, [0.4, 0.9], [0.0, 0.0])

    def test_rejects_non_finite_weights_and_derivatives(self):
        # NaN passes every comparison, so these once gave a NaN or inf df
        d = [3.0, 2.0, 1.0]
        for s, s_prime in (([1.0, 0.5, np.nan], [0.0] * 3), ([1.0, 0.5, 0.2], [0.0, 0.0, np.inf])):
            with pytest.raises(ContractViolationError, match="must be finite"):
                exact_df_shrunk(d, 4, 3, s, s_prime)

    def test_rejects_a_stack_of_spectra(self):
        with pytest.raises(DomainError, match="one spectrum"):
            exact_df_shrunk([[2.0, 1.0], [3.0, 1.0]], 3, 2, [1.0, 0.0], [0.0, 0.0])

    def test_rejects_a_spectrum_of_the_wrong_length(self):
        # r_bar = min(4, 4) = 4 values are expected
        with pytest.raises(DomainError, match="^expected 4 singular values, got 2$"):
            exact_df_shrunk([2.0, 1.0], 4, 4, [1.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize("apply", [
    fit_shrunk,
    coef_matrix,
    lambda ls, rule: exact_df_shrunk(ls.d, ls.gram.r_x, ls.dims[1], *rule.weights(ls.d)),
    lambda ls, rule: divergence_analytic(ls.hf.h, rule),
], ids=["fit_shrunk", "coef_matrix", "exact_df_shrunk", "divergence_analytic"])
def test_hard_rank_above_the_spectrum_is_an_error(apply):
    # r_bar = 4: a rank-9 hard rule is rejected where it is applied, not
    # silently read as the full-rank fit
    rng = np.random.default_rng(60)
    ls = fit_ols(rng.standard_normal((10, 5)), rng.standard_normal((10, 4)))
    with pytest.raises(DomainError, match=r"^rank 9 outside \[0, 4\]$"):
        apply(ls, hard(9))


class TestSvDerivatives:
    def test_diagonal_cases(self):
        h = np.zeros((2, 2))
        h[0, 0], h[1, 1] = 2.0, 1.0
        dd, dv = sv_derivatives(h, 0, 0)
        assert dd[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(dv[:, 0], 0, atol=1e-12)
        dd, _ = sv_derivatives(h, 0, 1)
        assert dd[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (6, 4), (4, 6)])
    def test_matches_finite_differences(self, shape):
        from rrdof.linalg import thin_svd

        rng = np.random.default_rng(33)
        h = random_h(rng, *shape, min_rel_gap=0.2)
        tall = h if shape[0] >= shape[1] else h.T
        eps = 1e-6
        for i in range(tall.shape[0]):
            for j in range(tall.shape[1]):
                dd, dv = sv_derivatives(tall, i, j)
                hp, hm = tall.copy(), tall.copy()
                hp[i, j] += eps
                hm[i, j] -= eps
                fp, fm = thin_svd(hp), thin_svd(hm)
                assert np.max(np.abs(dd - (fp.d - fm.d) / (2 * eps))) < 1e-6
                assert np.max(np.abs(dv - (fp.right - fm.right) / (2 * eps))) < 1e-6

    def test_entry_must_be_an_integer_index(self):
        # a float index once reached numpy as a raw IndexError
        h = random_h(np.random.default_rng(35), 2, 3)  # wide: (i, j) index h, not its transpose
        for i, j, msg in ((2, 0, r"^i 2 outside \[0, 1\]$"), (0, -1, r"^j -1 outside \[0, 2\]$"),
                          (1.5, 0, r"^i 1.5 is not an integer$")):
            with pytest.raises(DomainError, match=msg):
                sv_derivatives(h, i, j)
        assert np.array_equal(sv_derivatives(h, 1.0, 2.0)[0], sv_derivatives(h, 1, 2)[0])

    def test_wide_input_transposed(self):
        rng = np.random.default_rng(34)
        h = random_h(rng, 2, 4, min_rel_gap=0.2)
        dd_wide, _ = sv_derivatives(h, 1, 3)
        dd_tall, _ = sv_derivatives(h.T, 3, 1)
        assert np.allclose(dd_wide, dd_tall, atol=1e-12)


def reference_divergence_fd(h, rule, step=1e-6):
    """Central differences through the sign-fixed thin_svd, one validated SVD
    per perturbed copy (tall orientation)."""
    h = (h if h.shape[0] >= h.shape[1] else h.T).copy()
    total = 0.0
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            orig, sides = h[i, j], []
            for value in (orig + step, orig - step):
                h[i, j] = value
                f = thin_svd(h)
                s, _ = rule.weights(f.d)
                sides.append(((f.left * (s * f.d)[None, :]) @ f.right.T)[i, j])
            h[i, j] = orig
            total += (sides[0] - sides[1]) / (2.0 * step)
    return total


class TestDivergences:
    def test_identity_rule_gives_rxq(self):
        rng = np.random.default_rng(35)
        h = random_h(rng, 4, 3)
        est = divergence_analytic(h, hard(3))
        assert est.value == pytest.approx(12.0, abs=1e-8)
        fd = divergence_fd(h, hard(3))
        assert fd.value == pytest.approx(12.0, abs=1e-6)

    def test_zero_rule(self):
        rng = np.random.default_rng(36)
        h = random_h(rng, 4, 3)
        assert divergence_fd(h, soft(100.0)).value == 0.0

    def test_analytic_needs_full_column_rank(self):
        # a zero column gives an exactly zero singular value: the derivative
        # kernel would divide by it
        h = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert thin_svd(h).d[-1] == 0.0
        with pytest.raises(DegeneracyError, match="^matrix must have full column rank$"):
            divergence_analytic(h, hard(1))

    @pytest.mark.parametrize("oracle", ["exact", "analytic", "fd"])
    def test_every_oracle_checks_the_weights(self, oracle):
        # soft() rejects a negative lambda; built directly, the rule gives
        # weights above 1, which no oracle may turn into a value
        h = random_h(np.random.default_rng(48), 6, 4)
        rule = ShrinkageRule("soft", lam=-1.0)
        d = thin_svd(h).d
        run = {"exact": lambda: exact_df_shrunk(d, 6, 4, *rule.weights(d)),
               "analytic": lambda: divergence_analytic(h, rule),
               "fd": lambda: divergence_fd(h, rule)}[oracle]
        with pytest.raises(ContractViolationError, match=r"must lie in \[0, 1\]"):
            run()

    @pytest.mark.parametrize("make_rule", [lambda d1: hard(1), lambda d1: soft(0.4 * d1), lambda d1: adaptive(0.4 * d1)])
    def test_triple_agreement(self, make_rule):
        rng = np.random.default_rng(37)
        for _ in range(10):
            r_x = int(rng.integers(2, 7))
            q = int(rng.integers(2, 7))
            h = random_h(rng, r_x, q)
            d = np.linalg.svd(h, compute_uv=False)
            rule = make_rule(float(d[0]))
            s, sp = rule.weights(d)
            closed = exact_df_shrunk(d, r_x, q, s, sp).value
            analytic = divergence_analytic(h, rule).value
            fd = divergence_fd(h, rule).value
            assert closed == pytest.approx(analytic, abs=1e-8)
            assert closed == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)], ids=["tall", "wide", "square"])
    def test_fd_equals_sign_fixed_copy(self, shape):
        # Each perturbed copy is factored without a sign convention; U diag(s d) V'
        # is exactly unchanged when a singular-vector pair is negated, so the
        # value is the sign-fixed loop's, bit for bit.
        h = random_h(np.random.default_rng(47), *shape)
        for rule in (hard(2), soft(0.4), adaptive(0.4)):
            assert divergence_fd(h, rule).value == reference_divergence_fd(h, rule)

    @pytest.mark.parametrize("one_copy", [False, True], ids=["budget", "one-copy"])
    @pytest.mark.parametrize("shape", [(14, 13), (13, 14)], ids=["tall", "wide"])
    def test_fd_stacks_equal_the_per_copy_loop(self, shape, one_copy, monkeypatch):
        # 2 * 14 * 13 = 364 copies: four stacks of 90 and one of 4 under the
        # budget; one copy per stack is the loop over single copies. The two
        # threads fit the first and the second half of the stacks.
        from rrdof import dof

        h = np.random.default_rng(48).standard_normal(shape)
        if one_copy:
            monkeypatch.setattr(dof, "SHARED_STACK_BYTES", h.nbytes)
        for rule in (hard(5), soft(0.6), adaptive(0.6)):
            assert dof.divergence_fd(h, rule).value == reference_divergence_fd(h, rule)

    @pytest.mark.parametrize("shape", [(14, 13), (13, 14), (39, 36)])
    def test_fd_factors_one_stack_per_budget(self, shape, monkeypatch):
        from rrdof import dof

        stacks = []
        original = dof._svd

        def counting(m):
            stacks.append(m.shape[0])
            return original(m)

        monkeypatch.setattr(dof, "_svd", counting)
        h = np.random.default_rng(49).standard_normal(shape)
        per_stack = dof.SHARED_STACK_BYTES // h.nbytes
        full, rest = divmod(2 * h.size, per_stack)
        dof.divergence_fd(h, soft(0.6))
        # two threads record their stacks in either order
        assert sorted(stacks) == ([rest] if rest else []) + [per_stack] * full

    @staticmethod
    def _stack_spy(monkeypatch, on_stack):
        """Patch `_apply_rule` to call on_stack(copies) first."""
        from rrdof import dof

        original = dof._apply_rule

        def spy(copies, rule):
            on_stack(copies)
            return original(copies, rule)

        monkeypatch.setattr(dof, "_apply_rule", spy)

    @pytest.mark.parametrize("raiser", ["helper", "caller"])
    def test_fd_error_in_either_thread_reaches_the_caller(self, raiser, monkeypatch):
        # Five stacks: the caller fits the first three and the helper the
        # last two; either one failing fails the call (`_two_threads` has
        # the thread-level checks).
        class Boom(Exception):
            pass

        def on_stack(copies):
            if (threading.current_thread() is threading.main_thread()) == (raiser == "caller"):
                raise Boom(raiser)

        self._stack_spy(monkeypatch, on_stack)
        with pytest.raises(Boom, match=raiser):
            divergence_fd(np.random.default_rng(51).standard_normal((14, 13)), soft(0.6))

    def test_fd_helper_runs_under_the_callers_errstate(self, monkeypatch):
        # Five stacks: the caller and one helper fit them, and numpy's error
        # state is the caller's in both.
        seen = []
        self._stack_spy(monkeypatch, lambda copies: seen.append((threading.current_thread(), np.geterr())))
        h = np.random.default_rng(52).standard_normal((14, 13))
        with np.errstate(all="raise"):
            assert divergence_fd(h, soft(0.6)).value == reference_divergence_fd(h, soft(0.6))
        assert len({thread for thread, _ in seen}) == 2
        assert all(set(modes.values()) == {"raise"} for _, modes in seen)

    def test_analytic_factors_h_once(self, monkeypatch):
        from rrdof import dof

        calls = []

        def counting_svd(m):
            calls.append(np.shape(m))
            return thin_svd(m)

        monkeypatch.setattr(dof, "thin_svd", counting_svd)
        h = random_h(np.random.default_rng(44), 6, 4)
        dof.divergence_analytic(h, soft(0.5))
        assert calls == [(6, 4)]

    def test_analytic_is_independent_of_the_closed_form(self, monkeypatch):
        from rrdof import dof

        def closed_form(*args, **kwargs):
            raise AssertionError("the oracle used the closed-form kernel")

        h = random_h(np.random.default_rng(45), 5, 3)
        d = np.linalg.svd(h, compute_uv=False)
        rule = adaptive(0.5 * float(d[0]))
        expected = exact_df_shrunk(d, 5, 3, *rule.weights(d)).value
        monkeypatch.setattr(dof, "_df_kernel", closed_form)
        assert dof.divergence_analytic(h, rule).value == pytest.approx(expected, abs=1e-10)


class TestExactTies:
    """Exactly tied singular values have no singular-vector derivatives."""

    TIED = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_analytic_divergence_names_the_tied_pair(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneracyError, match="d_1 and d_2 are exactly tied"):
                divergence_analytic(self.TIED, soft(0.5))
            with pytest.raises(DegeneracyError, match="d_1 and d_2 are exactly tied"):
                divergence_analytic(self.TIED.T, soft(0.5))

    def test_sv_derivatives_names_the_tied_pair(self):
        h = np.diag([3.0, 2.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneracyError, match="d_2 and d_3 are exactly tied"):
                sv_derivatives(h, 0, 1)

    def test_finite_differences_still_give_a_value(self):
        assert divergence_fd(self.TIED, soft(0.5)).value == pytest.approx(4.5, abs=1e-6)

    def test_near_tie_computes_and_flags(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-12], [0.0, 0.0]])
        est = divergence_analytic(h, soft(0.5))
        assert est.degenerate_flag
        assert est.value == pytest.approx(4.5, abs=1e-6)

    def test_checked_once_per_call(self, monkeypatch):
        from rrdof import dof

        calls = []
        original = dof._tall_svd

        def counting(h):
            calls.append(h.shape)
            return original(h)

        monkeypatch.setattr(dof, "_tall_svd", counting)
        dof.divergence_analytic(random_h(np.random.default_rng(46), 6, 4), soft(0.5))
        assert calls == [(6, 4)]


def _identity_df(center, sd, scale, m, seed, stream):
    # The identity smoother F(Y) = Y has df = nq; no design gives it, so its
    # moments against draws from substream (stream, t) go to the covariance
    # engine directly.
    d = np.stack([sd * _substream(seed, stream, t).standard_normal(center.shape)
                  for t in range(m)]).reshape(m, -1)
    f = center.ravel() + d
    return _cov_df(np.einsum("ti,ti->t", f, d), f @ d.mean(axis=0), d @ f.mean(axis=0), scale)


class TestStochasticEstimators:
    def test_mc_identity_smoother(self):
        rng = np.random.default_rng(38)
        rng.standard_normal((8, 3))  # skipped: the identity smoother has no design
        mean = rng.standard_normal((8, 4))
        value, se = _identity_df(mean, 1.0, 1.0, 2000, 5, 0)
        assert abs(value - 32) <= 3 * se

    def test_mc_ols_projection(self):
        rng = np.random.default_rng(39)
        x = rng.standard_normal((12, 4))
        mean = rng.standard_normal((12, 3))
        ls = fit_ols(x, mean)
        est = mc_df(ls, hard(ls.r_bar), 1.0, reps=1500, seed=6)  # least squares
        assert abs(est.value - 12) <= 3 * est.std_error

    def test_mc_rrr_matches_exact(self):
        from rrdof.simbench import SimConfig, gen_instance

        cfg = SimConfig(n=50, p=10, q=8, r0=4, sigma2=1.0, rho=0.3, seed=3)
        x, b, _, _ = gen_instance(cfg, 0)
        mean = x @ b
        r = 3
        est = mc_df(fit_ols(x, mean), hard(r), 1.0, reps=500, seed=7)
        # average exact df over fresh draws
        vals = []
        rng = np.random.default_rng(8)
        for _ in range(200):
            ls = fit_ols(x, mean + rng.standard_normal(mean.shape))
            vals.append(exact_df_rrr(ls.d, ls.gram.r_x, 8, r).value)
        exact_mean = np.mean(vals)
        exact_se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        combined = np.hypot(est.std_error, exact_se)
        assert abs(est.value - exact_mean) <= 3 * combined

    def test_perturbation_identity(self):
        rng = np.random.default_rng(40)
        rng.standard_normal((8, 3))  # skipped: the identity smoother has no design
        y = rng.standard_normal((8, 4))
        value, se = _identity_df(y, 0.1, 0.1**2, 2000, 9, 1)
        assert abs(value - 32) <= 3 * se

    def test_perturbation_ols(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((12, 4))
        y = rng.standard_normal((12, 3))
        ls = fit_ols(x, y)
        est = perturbation_df(ls, hard(ls.r_bar), n_pert=1500, tau=0.1, seed=10)  # least squares
        assert abs(est.value - 12) <= 3 * est.std_error

    def test_perturbation_rrr_agrees_with_exact(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((20, 6))
        b = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5)) * 2
        y = x @ b + rng.standard_normal((20, 5))
        ls = fit_ols(x, y)
        exact = exact_df_rrr(ls.d, ls.gram.r_x, 5, 2).value
        est = perturbation_df(ls, hard(2), n_pert=800, tau=0.1, seed=11)
        assert abs(est.value - exact) <= 3 * est.std_error

    @pytest.mark.parametrize("seed", range(3))
    def test_mc_is_accurate_under_a_large_mean(self, seed):
        # The moments are taken against the noise, not against draws whose
        # mean is about 50, so no large sums cancel: against a long-double
        # centred covariance of n x q refits the value is within 5e-15
        # relative (moments against the draws were off by about 2e-13). The
        # perturbation estimate shares the H-space front end; rebuilding its
        # draws in order from substream (1,) pins their layout.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 4))
        mean = 50.0 + x @ rng.standard_normal((4, 5))
        sigma2, tau, reps = 1.7, 0.3, 40

        def fitter(y):
            return fit_shrunk(fit_ols(x, y), hard(2))

        def reference(stream, sd, scale):
            e = sd * _substream(seed, stream).standard_normal((reps, *mean.shape))
            f = np.stack([fitter(mean + et) for et in e]).astype(np.longdouble)
            e = e.astype(np.longdouble)

            def centred(keep):
                fk, ek = f[keep], e[keep]
                return np.sum((fk - fk.mean(axis=0)) * (ek - ek.mean(axis=0))) / ((keep.sum() - 1) * scale)

            loo = np.array([centred(np.arange(reps) != t) for t in range(reps)])
            se = np.sqrt((reps - 1) / reps * np.sum((loo - loo.mean()) ** 2))
            return float(centred(np.ones(reps, dtype=bool))), float(se)

        ls = fit_ols(x, mean)  # the fits of mean + E and of ls.y_hat + E are one fit
        est = mc_df(ls, hard(2), sigma2, reps=reps, seed=seed)
        value, se = reference(0, np.sqrt(sigma2), sigma2)
        assert est.value == pytest.approx(value, rel=5e-15)
        assert est.std_error == pytest.approx(se, rel=2e-14)
        est = perturbation_df(ls, hard(2), n_pert=reps, tau=tau, seed=seed)
        value, se = reference(1, tau, tau**2)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-12)

    @pytest.mark.parametrize("n,p,q", [(8, 12, 5), (10, 3, 6), (6, 6, 6)], ids=["wide", "tall", "square"])
    @pytest.mark.parametrize("rule", [None, hard(2), soft(1.0)], ids=["ols", "hard", "soft"])
    def test_perturbation_equals_n_by_q_refits(self, n, p, q, rule):
        # The H-space moments against refits of y + D_t through fit_ols: wide
        # designs (r_x = n), q above r_x and square H. Another summation
        # order, so they agree to rounding.
        rng = np.random.default_rng(n * p * q)
        x = rng.standard_normal((n, p))
        y = x @ rng.standard_normal((p, q)) + rng.standard_normal((n, q))
        ls = fit_ols(x, y)
        est = perturbation_df(ls, hard(ls.r_bar) if rule is None else rule, n_pert=30, tau=0.3, seed=3)
        d = 0.3 * _substream(3, 1).standard_normal((30, *y.shape))
        fits = [fit_ols(x, y + dt) for dt in d]
        f = np.stack([ls.y_hat if rule is None else fit_shrunk(ls, rule) for ls in fits]).reshape(30, -1)
        d = d.reshape(30, -1)
        value, se = _cov_df(np.einsum("ti,ti->t", f, d), f @ d.mean(axis=0), d @ f.mean(axis=0), 0.3**2)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-12)

    def test_each_batch_opens_one_generator(self, monkeypatch):
        # every draw of a batch comes in order from one substream: (0,) for
        # mc_df and (1,) for perturbation_df, never one per draw
        from rrdof import dof

        paths = []
        original = dof._substream

        def recording(seed, *path):
            paths.append((seed, path))
            return original(seed, *path)

        monkeypatch.setattr(dof, "_substream", recording)
        rng = np.random.default_rng(49)
        ls = fit_ols(rng.standard_normal((10, 3)), rng.standard_normal((10, 4)))
        mc_df(ls, hard(2), 1.0, reps=7, seed=5)
        assert paths == [(5, (0,))]
        paths.clear()
        perturbation_df(ls, soft(0.5), n_pert=7, tau=0.1, seed=6)
        assert paths == [(6, (1,))]

    def test_reps_validation(self):
        ls = fit_ols(np.eye(3)[:, :2], np.zeros((3, 2)))
        with pytest.raises(DomainError):
            mc_df(ls, hard(2), 1.0, reps=1, seed=0)
        with pytest.raises(DomainError):
            perturbation_df(ls, hard(2), n_pert=1, tau=0.1, seed=0)
        # the jackknife divides by m - 2, so two draws raise instead of warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                mc_df(ls, hard(2), 1.0, reps=2, seed=0)
            with pytest.raises(DomainError):
                perturbation_df(ls, hard(2), n_pert=2, tau=0.1, seed=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_scale_validation(self, bad):
        ls = fit_ols(np.eye(3)[:, :2], np.zeros((3, 2)))
        with pytest.raises(DomainError, match="^sigma2 must be positive and finite$"):
            mc_df(ls, hard(2), bad, reps=3, seed=0)
        with pytest.raises(DomainError, match="^tau must be positive and finite$"):
            perturbation_df(ls, hard(2), n_pert=3, tau=bad, seed=0)

    @pytest.mark.parametrize("oracle", [
        lambda ls: mc_df(ls, hard(3), 1.0, reps=400, seed=0),
        lambda ls: perturbation_df(ls, hard(3), n_pert=400, tau=0.1, seed=0),
    ], ids=["mc_df", "perturbation_df"])
    def test_peak_memory_at_400_draws(self, oracle):
        # The draws are taken and factored in stacks of at most
        # SHARED_STACK_BYTES; only G = W'D is kept whole, 11 KB a draw on the
        # fixture. Holding every draw and its SVD factors at once peaks at
        # 36 MB here.
        ls = fit_ols(*(ingest_csv(path) for path in fixture_paths()))
        tracemalloc.start()
        try:
            oracle(ls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((6, 2))
        mean = rng.standard_normal((6, 3))
        a = mc_df(fit_ols(x, mean), hard(1), 1.0, reps=50, seed=99)
        b = mc_df(fit_ols(x, mean), hard(1), 1.0, reps=50, seed=99)
        assert a.value == b.value and a.std_error == b.std_error
