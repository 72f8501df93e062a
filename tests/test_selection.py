import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from rrdof.dof import naive_df
from rrdof.estimators import fit_ols, fit_shrunk, hard
from rrdof.exceptions import DomainError
from rrdof.selection import (
    Criterion,
    _scores,
    lambda_grid,
    rss_path,
    select_rank,
    select_ranks,
)


def scalar_score(kind, rss, df, n, q, sigma2=None):
    """One candidate's criterion in scalar arithmetic, written apart from
    `_scores`: +inf where the fit leaves no residual degrees of freedom
    (df outside [0, n q)) and, under BIC, where rss = 0."""
    nq = n * q
    if kind == "cp":
        return rss / nq + 2.0 * df * sigma2 / nq
    if not 0 <= df < nq or (kind == "bic" and rss <= 0):
        return math.inf
    if kind == "gcv":
        return nq * rss / ((nq - df) * (nq - df))
    return nq * math.log(rss / nq) + math.log(nq) * df


def assert_scores_match(kind, got, rss, df, n, q, sigma2=None):
    """`_scores` output `got` against `scalar_score` at every (rss, df): GCV
    and Cp bit for bit, BIC within 4 ulps of the larger of the score and its
    log term (numpy's log is not libm's), with +inf at the same places."""
    want = [scalar_score(kind, r, f, n, q, sigma2) for r, f in zip(rss, df)]
    if kind != "bic":
        assert list(got) == want
        return
    for g, w, r in zip(got, want, rss):
        assert math.isinf(g) == math.isinf(w)
        if not math.isinf(w):
            assert abs(g - w) <= 4 * np.spacing(max(abs(w), n * q * abs(math.log(r / (n * q)))))


class TestScores:
    def test_gcv_instance(self):
        # 20 * 5 / (20 - 4)^2
        assert float(_scores("gcv", 5.0, 4.0, 10, 2)) == pytest.approx(0.390625)

    def test_gcv_saturates(self):
        assert float(_scores("gcv", 5.0, 20.0, 10, 2)) == math.inf

    def test_cp_instance(self):
        # 10/10 + 2*3*1/10
        assert float(_scores("cp", 10.0, 3.0, 5, 2, 1.0)) == pytest.approx(1.6)

    def test_cp_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            Criterion(kind="cp", sigma2=-1.0)

    def test_bic_instance(self):
        nq = 12
        expected = nq * math.log(6.0 / nq) + math.log(nq) * 2.0
        assert float(_scores("bic", 6.0, 2.0, 4, 3)) == pytest.approx(expected)

    def test_bic_zero_rss(self):
        assert float(_scores("bic", 0.0, 2.0, 4, 3)) == math.inf

    def test_bic_saturates_like_gcv(self):
        for df in (12.0, 13.0):  # n*q and beyond
            assert _scores("bic", 6.0, df, 4, 3) == _scores("gcv", 6.0, df, 4, 3) == math.inf

    def test_criterion_validation(self):
        with pytest.raises(DomainError):
            Criterion(kind="aic")
        with pytest.raises(DomainError):
            Criterion(kind="gcv", df_mode="approximate")
        with pytest.raises(DomainError):
            Criterion(kind="cp")  # missing sigma2
        for sigma2 in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="sigma2"):
                Criterion(kind="cp", sigma2=sigma2)


class TestLambdaGrid:
    def test_range_and_size(self):
        g = lambda_grid(4.0)
        assert g.size == 50
        assert g[0] == pytest.approx(4.0)
        assert g[-1] == pytest.approx(4e-3)
        assert np.all(np.diff(g) < 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            lambda_grid(0.0)

    @pytest.mark.parametrize("d1", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, d1):
        # both once gave a grid of NaN or inf
        with pytest.raises(DomainError, match="^leading singular value must be positive and finite$"):
            lambda_grid(d1)

    @pytest.mark.parametrize("size", [0, -1, 2.5, float("nan")])
    def test_rejects_bad_size(self, size):
        # 0 once gave an empty grid, -1 numpy's ValueError and 2.5 a TypeError
        why = "outside \\[1, inf\\]" if size in (0, -1) else "is not an integer"
        with pytest.raises(DomainError, match=rf"^size {size} {why}$"):
            lambda_grid(4.0, size=size)

    def test_size_one(self):
        assert lambda_grid(4.0, size=1).tolist() == [4.0]
        assert lambda_grid(4.0, size=3.0).tolist() == lambda_grid(4.0, size=3).tolist()  # an integral float


class TestRssPath:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((20, 6))
        y = rng.standard_normal((20, 5))
        ls = fit_ols(x, y)
        ranks = list(range(1, ls.r_bar + 1))
        path = rss_path(ls.d, ls.rss, ranks)
        direct = [float(np.sum((y - fit_shrunk(ls, hard(r))) ** 2)) for r in ranks]
        assert np.allclose(path, direct, rtol=1e-10)

    def test_full_rank_is_base_rss(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal((15, 3))
        ls = fit_ols(x, y)
        assert rss_path(ls.d, ls.rss, [ls.r_bar])[0] == pytest.approx(
            float(np.sum((y - ls.y_hat) ** 2))
        )


class TestSufficientStatistics:
    """select_ranks and rss_path read only the spectrum, the least-squares
    rss, r_x, n and q of a fit."""

    def test_select_rank_is_select_ranks_on_the_fits_statistics(self):
        rng = np.random.default_rng(52)
        for n, p, q in [(30, 6, 5), (8, 12, 6), (20, 4, 9)]:  # tall, wide, q > r_x
            x = rng.standard_normal((n, p))
            ls = fit_ols(x, x @ rng.standard_normal((p, q)) + rng.standard_normal((n, q)))
            for kind in ("cp", "gcv", "bic"):
                for mode in ("exact", "naive"):
                    crit = Criterion(kind, mode, 1.0 if kind == "cp" else None)
                    got = select_ranks(ls.d, ls.rss, ls.gram.r_x, n, q, {"c": crit})["c"]
                    np.testing.assert_equal(asdict(select_rank(ls, crit)), asdict(got))

    def test_statistics_of_the_wrong_shape_raise(self):
        rng = np.random.default_rng(53)
        ls = fit_ols(rng.standard_normal((20, 5)), rng.standard_normal((20, 4)))
        crit = {"gcv": Criterion("gcv", "naive")}
        with pytest.raises(DomainError, match="expected 4 singular values"):
            select_ranks(ls.d[:3], ls.rss, 5, 20, 4, crit)  # r_bar = min(r_x, q) = 4
        with pytest.raises(DomainError, match="one rss per fit"):
            select_ranks(np.stack([ls.d, ls.d]), ls.rss, 5, 20, 4, crit)
        np.testing.assert_equal(asdict(select_ranks(ls.d, ls.rss, 5, 20, 4, crit)["gcv"]),
                                asdict(select_rank(ls, crit["gcv"])))

    @pytest.mark.parametrize("mode", ["exact", "naive"])
    @pytest.mark.parametrize("d, rss, where", [
        ([3.0, 2.0, 1.0], math.nan, "rss = nan"), ([3.0, 2.0, 1.0], math.inf, "rss = inf"),
        ([3.0, 2.0, 1.0], -5.0, "rss = -5.0"), ([3.0, math.nan, 1.0], 4.0, "d_2 = nan"),
        ([math.inf, 2.0, 1.0], 4.0, "d_1 = inf"), ([3.0, 2.0, -1.0], 4.0, "d_3 = -1.0"),
        ([1.0, 2.0, 3.0], 4.0, "d_1 = 1.0 and d_2 = 2.0"), ([1.0, 2.0, 3.0], math.nan, "rss = nan"),
    ], ids=["rss_nan", "rss_inf", "rss_negative", "d_nan", "d_inf", "d_negative", "d_increasing", "rss_first"])
    def test_bad_statistics_raise_in_both_df_modes(self, d, rss, where, mode):
        # Before this check an rss of NaN gave all-NaN scores and rank 1, an
        # rss of -5 rank 3, and naive GCV picked rank 1 on [3, NaN, 1] and
        # rank 3 on [1, 2, 3], all silently. A stack fails on one bad fit.
        # The message names the first bad entry, a fit's rss before its
        # spectrum, and in a stack the fit holding it.
        message = "rss and singular values must be finite and nonnegative, the values nonincreasing: "
        for kind in ("cp", "gcv", "bic"):
            crit = {"c": Criterion(kind, mode, 1.0 if kind == "cp" else None)}
            with pytest.raises(DomainError, match=f"^{re.escape(message + where)}$"):
                select_ranks(d, rss, 3, 20, 3, crit)
            with pytest.raises(DomainError, match=f"^{re.escape(message + 'fit 1, ' + where)}$"):
                select_ranks(np.stack([[3.0, 2.0, 1.0], d]), [4.0, rss], 3, 20, 3, crit)

    def test_exact_ties_stay_legal_in_naive_mode(self):
        naive = select_ranks([2.0, 2.0, 1.0], 4.0, 3, 20, 3, {"c": Criterion("gcv", "naive")})["c"]
        assert naive.chosen == 3 and np.all(np.isfinite(naive.scores))
        with pytest.raises(DomainError, match="strictly decreasing"):  # the exact df needs distinct values
            select_ranks([2.0, 2.0, 1.0], 4.0, 3, 20, 3, {"c": Criterion("gcv")})

    def test_reports_hold_the_calls_arrays(self):
        # the rss path and each df mode's path are built once per call and
        # shared by its reports, one row per fit of a stack
        rng = np.random.default_rng(54)
        x = rng.standard_normal((20, 5))
        ls = fit_ols(x, x @ rng.standard_normal((5, 4)) + rng.standard_normal((3, 20, 4)))
        crit = {"gcv": Criterion("gcv"), "bic": Criterion("bic"), "gcv_naive": Criterion("gcv", "naive")}
        reports = select_ranks(ls.d, ls.rss, ls.gram.r_x, 20, 4, crit)
        for rep in reports.values():
            for v in (rep.scores, rep.df_used, rep.residual_ss):
                assert isinstance(v, np.ndarray) and v.shape == (3, 4)
            assert rep.candidates == [1, 2, 3, 4] and len(rep.chosen) == 3
        assert reports["gcv"].residual_ss is reports["bic"].residual_ss is reports["gcv_naive"].residual_ss
        assert reports["gcv"].df_used is reports["bic"].df_used
        assert np.array_equal(reports["gcv_naive"].df_used, np.broadcast_to(naive_df(5, 4, [1, 2, 3, 4]), (3, 4)))


class TestSelectRank:
    def make_instance(self, seed, r0=2, n=60, p=8, q=6, scale=4.0, noise=1.0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        b = scale * rng.standard_normal((p, r0)) @ rng.standard_normal((r0, q))
        y = x @ b + noise * rng.standard_normal((n, q))
        return fit_ols(x, y)

    @pytest.mark.parametrize("kind", ["gcv", "cp", "bic"])
    def test_recovers_planted_rank(self, kind):
        hits = 0
        for seed in range(8):
            ls = self.make_instance(60 + seed)
            crit = Criterion(kind=kind, sigma2=1.0 if kind == "cp" else None)
            if select_rank(ls, crit).chosen == 2:
                hits += 1
        assert hits >= 7

    def test_noiseless_picks_planted_rank(self):
        ls = self.make_instance(70, noise=0.0)
        # gcv stays finite at zero rss; bic saturates below the planted rank
        rep = select_rank(ls, Criterion(kind="gcv"))
        assert rep.chosen == 2

    def test_report_fields_consistent(self):
        ls = self.make_instance(71)
        rep = select_rank(ls, Criterion(kind="gcv"))
        assert rep.candidates == list(range(1, ls.r_bar + 1))
        assert len(rep.scores) == len(rep.df_used) == len(rep.residual_ss)
        assert rep.chosen == rep.candidates[int(np.argmin(rep.scores))]
        assert all(np.diff(rep.residual_ss) <= 1e-9)

    def test_argmin_invariant_to_monotone_shift(self):
        # adding a constant to every score never changes the argmin; verify
        # the reported chosen rank equals a from-scratch recomputation
        ls = self.make_instance(72)
        rep = select_rank(ls, Criterion(kind="cp", sigma2=1.0))
        rss = rss_path(ls.d, ls.rss, rep.candidates)
        nq = 60 * 6  # the size of make_instance's y
        scores = [
            r_rss / nq + 2 * d * 1.0 / nq
            for r_rss, d in zip(rss, rep.df_used)
        ]
        assert np.allclose(scores, rep.scores, rtol=1e-12)

    def test_naive_mode_uses_parameter_counts(self):
        ls = self.make_instance(73)
        rep = select_rank(ls, Criterion(kind="gcv", df_mode="naive"))
        q = 6  # make_instance's y
        for r, d in zip(rep.candidates, rep.df_used):
            assert d == naive_df(ls.gram.r_x, q, r)

    def test_exact_at_least_naive(self):
        ls = self.make_instance(74)
        exact = select_rank(ls, Criterion(kind="gcv")).df_used
        naive = select_rank(ls, Criterion(kind="gcv", df_mode="naive")).df_used
        for e, nv in zip(exact, naive):
            assert e >= nv - 1e-9

    def test_degenerate_zero_tail_falls_back_to_naive_count(self):
        # a noiseless rank-2 response: trailing singular values vanish and the
        # continuity limit of the exact df equals the naive count
        rng = np.random.default_rng(75)
        x = rng.standard_normal((30, 5))
        b = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        ls = fit_ols(x, x @ b)
        rep = select_rank(ls, Criterion(kind="gcv"))
        q = 4
        for r, d in zip(rep.candidates, rep.df_used):
            if r >= 2:
                assert d == pytest.approx(naive_df(5, q, r), abs=1e-6)

    def test_saturated_small_problem(self):
        # n*q small enough that the full-rank df saturates gcv: its score is
        # +inf but smaller ranks still compete
        rng = np.random.default_rng(76)
        x = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        y = rng.standard_normal((3, 3))
        ls = fit_ols(x, y)
        rep = select_rank(ls, Criterion(kind="gcv"))
        assert math.isinf(rep.scores[-1])
        assert rep.chosen < ls.r_bar

    def test_bic_never_picks_an_interpolating_fit(self):
        # n < p: the full-rank fit interpolates (rss is roundoff, df = n*q)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((10, 20)), rng.standard_normal((10, 30))
        ls = fit_ols(x, y)
        bic = select_rank(ls, Criterion("bic", "exact"))
        gcv = select_rank(ls, Criterion("gcv", "exact"))
        assert bic.residual_ss[-1] < 1e-20 and bic.df_used[-1] == pytest.approx(300.0)
        saturated = [r for r, sc in zip(bic.candidates, bic.scores) if math.isinf(sc)]
        assert saturated == [7, 10]
        assert saturated == [r for r, sc in zip(gcv.candidates, gcv.scores) if math.isinf(sc)]
        assert bic.chosen == 1

    def test_report_scores_are_the_scalar_scores(self):
        # the interpolating instance above: ranks that saturate GCV and BIC
        # score +inf exactly where the scalar formulas saturate
        rng = np.random.default_rng(0)
        ls = fit_ols(rng.standard_normal((10, 20)), rng.standard_normal((10, 30)))
        criteria = {f"{k}_{m}": Criterion(k, m, 0.7 if k == "cp" else None)
                    for k in ("gcv", "cp", "bic") for m in ("exact", "naive")}
        for name, rep in select_ranks(ls.d, ls.rss, ls.gram.r_x, 10, 30, criteria).items():
            kind = name.split("_")[0]
            assert_scores_match(kind, rep.scores, rep.residual_ss, rep.df_used, 10, 30, 0.7)
