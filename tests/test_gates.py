"""The input gates: one integer check (`estimators._checked_ints`) for every
count, rank and seed, and one weight gate (`estimators._weights`) from a rule
or a (weights, derivatives) pair to checked weights."""

import numpy as np
import pytest

from rrdof import dof
from rrdof.dof import _substream, divergence_analytic, divergence_fd, mc_df, perturbation_df
from rrdof.estimators import adaptive, coef_matrix, fit_ols, fit_shrunk, hard, soft
from rrdof.exceptions import ContractViolationError, DomainError
from rrdof.pipeline import eval_splits
from rrdof.selection import Criterion, lambda_grid
from rrdof.simbench import SimConfig, run_dof_study, run_pred_study

#: One rule of each kind, built at a spectrum d; the thresholds lie between d_2 and d_3.
RULES = {
    "hard": lambda d: hard(2),
    "soft": lambda d: soft(np.sqrt(d[1] * d[2])),
    "adaptive": lambda d: adaptive(np.sqrt(d[1] * d[2]), gamma=1.0),
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((30, 6))
    y = x @ rng.standard_normal((6, 4)) + rng.standard_normal((30, 4))
    return x, y


@pytest.fixture(scope="module")
def ls(data):
    return fit_ols(*data)  # a tall H: 6 x 4


class TestWeightGate:
    @pytest.mark.parametrize("make", RULES.values(), ids=RULES)
    @pytest.mark.parametrize("oracle, copies, first_call", [
        (lambda ls, rule: divergence_fd(ls.hf.h, rule), 2 * 6 * 4, "_svd"),
        (lambda ls, rule: mc_df(ls, rule, 1.0, reps=5, seed=1), 5, "_substream"),
        (lambda ls, rule: perturbation_df(ls, rule, n_pert=5, tau=0.1, seed=1), 5, "_substream"),
    ], ids=["divergence_fd", "mc_df", "perturbation_df"])
    def test_perturbing_oracles_refuse_a_pair(self, ls, make, oracle, copies, first_call, monkeypatch):
        # the pair holds the weights at ls.d; every perturbed copy or draw
        # has its own spectrum, so reusing them would give a wrong value, also
        # when the pair is tiled to one row per copy or draw and so has the
        # shape of their spectra. The refusal comes before the first copy's
        # SVD or the first draw's generator.
        rule = make(ls.d)
        oracle(ls, rule)  # the rule itself is accepted
        calls = []
        monkeypatch.setattr(dof, first_call, lambda *args: calls.append(args))
        s, s_prime = rule.weights(ls.d)
        for pair in [(s, s_prime), (np.tile(s, (copies, 1)), np.tile(s_prime, (copies, 1)))]:
            with pytest.raises(ContractViolationError,
                               match=r"^a perturbing oracle takes a rule, not a \(weights, derivatives\) pair: "):
                oracle(ls, pair)
        assert calls == []

    @pytest.mark.parametrize("make", RULES.values(), ids=RULES)
    def test_a_pair_at_its_own_spectrum_gives_the_rules_bits(self, ls, make):
        rule = make(ls.d)
        pair = rule.weights(ls.d)
        assert np.array_equal(fit_shrunk(ls, pair), fit_shrunk(ls, rule))
        assert np.array_equal(coef_matrix(ls, pair), coef_matrix(ls, rule))
        assert divergence_analytic(ls.hf.h, pair) == divergence_analytic(ls.hf.h, rule)

    @pytest.mark.parametrize("make", RULES.values(), ids=RULES)
    def test_a_pair_at_a_stack_of_spectra_gives_the_rules_bits(self, data, make):
        x, y = data
        stack = fit_ols(x, np.stack([y, 2.0 * y, y[:, ::-1]]))
        rule = make(stack.d[0])
        pair = rule.weights(stack.d)  # one row per fit
        assert np.array_equal(fit_shrunk(stack, pair), fit_shrunk(stack, rule))
        assert np.array_equal(coef_matrix(stack, pair), coef_matrix(stack, rule))
        with pytest.raises(ContractViolationError, match=r"\(4,\), \(4,\) != spectra \(3, 4\)"):
            fit_shrunk(stack, rule.weights(stack.d[0]))  # one row for three fits


def _sim(**kw):
    return SimConfig(**{"n": 20, "p": 5, "q": 7, "r0": 2, "reps": 3, "seed": 2, **kw})


#: Every count and seed entry point: (call with the value v, argument name, minimum).
ENTRY_POINTS = {
    "mc_df.reps": (lambda v, ls, data: mc_df(ls, hard(1), 1.0, reps=v, seed=0), "reps", 3),
    "mc_df.seed": (lambda v, ls, data: mc_df(ls, hard(1), 1.0, reps=3, seed=v), "seed", 0),
    "perturbation_df.n_pert": (lambda v, ls, data: perturbation_df(ls, hard(1), n_pert=v, tau=0.1, seed=0),
                               "n_pert", 3),
    "perturbation_df.seed": (lambda v, ls, data: perturbation_df(ls, hard(1), n_pert=3, tau=0.1, seed=v),
                             "seed", 0),
    "run_dof_study.reps": (lambda v, ls, data: run_dof_study(_sim(reps=v), n_pert=3), "reps", 3),
    "run_dof_study.n_pert": (lambda v, ls, data: run_dof_study(_sim(), n_pert=v), "n_pert", 3),
    "run_dof_study.seed": (lambda v, ls, data: run_dof_study(_sim(seed=v), n_pert=3), "seed", 0),
    "run_pred_study.reps": (lambda v, ls, data: run_pred_study(_sim(reps=v)), "reps", 2),
    "run_pred_study.seed": (lambda v, ls, data: run_pred_study(_sim(seed=v)), "seed", 0),
    "eval_splits.n_splits": (lambda v, ls, data: eval_splits(*data, {"gcv": Criterion("gcv")}, n_splits=v),
                             "n_splits", 1),
    "eval_splits.seed": (lambda v, ls, data: eval_splits(*data, {"gcv": Criterion("gcv")}, n_splits=2, seed=v),
                         "seed", 0),
    "lambda_grid.size": (lambda v, ls, data: lambda_grid(4.0, size=v), "size", 1),
    "_substream.seed": (lambda v, ls, data: _substream(v, 3), "seed", 0),
}


class TestIntegerGate:
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_rejects_non_integers_negatives_and_values_below_the_minimum(self, ls, data, entry):
        call, name, lo = entry
        for bad in sorted({2.5, -1, lo - 1}):
            why = "is not an integer" if bad == 2.5 else rf"outside \[{lo}, inf\]"
            with pytest.raises(DomainError, match=rf"^{name} {bad} {why}$"):
                call(bad, ls, data)

    def test_integral_floats_pass_as_their_ints(self, ls, data):
        assert mc_df(ls, soft(1.0), 1.0, reps=4.0, seed=3.0) == mc_df(ls, soft(1.0), 1.0, reps=4, seed=3)
        assert perturbation_df(ls, hard(2), n_pert=4.0, tau=0.1, seed=5.0) == \
            perturbation_df(ls, hard(2), n_pert=4, tau=0.1, seed=5)
        crit = {"bic": Criterion("bic")}
        as_float = eval_splits(*data, crit, n_splits=3.0, seed=4.0)
        assert as_float.n_splits == 3 and type(as_float.n_splits) is int
        assert as_float == eval_splits(*data, crit, n_splits=3, seed=4)

    def test_a_python_int_seed_skips_the_check_with_the_same_bits(self, data, monkeypatch):
        # a nonnegative Python int needs no check; a numpy int, an integral
        # float and a bool are checked, and give the same draws as the int
        calls = []
        original = dof._checked_ints
        monkeypatch.setattr(dof, "_checked_ints", lambda *args, **kw: calls.append(args) or original(*args, **kw))
        draws = [_substream(seed, 3, 1).standard_normal(4) for seed in (1, np.int64(1), 1.0, True)]
        assert len(calls) == 3
        assert all(np.array_equal(d, draws[0]) for d in draws)
        calls.clear()
        eval_splits(*data, {"gcv": Criterion("gcv")}, n_splits=4, seed=2)  # eval checks its seed once, itself
        assert calls == []

    def test_a_seed_beyond_int64_is_kept_whole(self):
        # numpy's own advice for a fresh seed is a 128-bit integer
        seed = 2**100 + 1
        expect = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,))).standard_normal(4)
        assert np.array_equal(_substream(seed, 3).standard_normal(4), expect)
