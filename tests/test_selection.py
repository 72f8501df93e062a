import math

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


class TestRssPath:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((20, 6))
        y = rng.standard_normal((20, 5))
        ls = fit_ols(x, y)
        ranks = list(range(1, ls.r_bar + 1))
        path = rss_path(ls, ranks)
        direct = [float(np.sum((y - fit_shrunk(ls, hard(r))) ** 2)) for r in ranks]
        assert np.allclose(path, direct, rtol=1e-10)

    def test_full_rank_is_base_rss(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal((15, 3))
        ls = fit_ols(x, y)
        assert rss_path(ls, [ls.r_bar])[0] == pytest.approx(
            float(np.sum((y - ls.y_hat) ** 2))
        )


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
        rss = rss_path(ls, rep.candidates)
        scores = [
            r_rss / ls.y.size + 2 * d * 1.0 / ls.y.size
            for r_rss, d in zip(rss, rep.df_used)
        ]
        assert np.allclose(scores, rep.scores, rtol=1e-12)

    def test_naive_mode_uses_parameter_counts(self):
        ls = self.make_instance(73)
        rep = select_rank(ls, Criterion(kind="gcv", df_mode="naive"))
        q = ls.y.shape[1]
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
        for name, rep in select_ranks(ls, criteria).items():
            kind = name.split("_")[0]
            assert_scores_match(kind, rep.scores, rep.residual_ss, rep.df_used, 10, 30, 0.7)
