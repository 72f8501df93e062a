import json
import threading

import numpy as np
import pytest

from rrdof.exceptions import DegenerateDesignError, DomainError, ParseError, SaturationError, ShapeError
from rrdof.pipeline import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    eval_splits,
    fixture_paths,
    ingest_csv,
    synthetic_fixture,
    write_matrix_csv,
    write_report,
)
from rrdof.selection import Criterion, select_ranks


class TestIngestCsv:
    def write(self, tmp_path, text, name="m.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_basic(self, tmp_path):
        m = ingest_csv(self.write(tmp_path, "1,2\n3,4\n"))
        assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_skipped(self, tmp_path):
        m = ingest_csv(self.write(tmp_path, "1,2\n\n3,4\n\n"))
        assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        m = ingest_csv(self.write(tmp_path, "a,b\n1,2\n"), header=True)
        assert np.array_equal(m, [[1.0, 2.0]])

    def test_log_transform(self, tmp_path):
        m = ingest_csv(self.write(tmp_path, "1,10\n"), log_transform=True)
        assert np.allclose(m, [[0.0, np.log(10.0)]])

    def test_log_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_csv(self.write(tmp_path, "1,-2\n"), log_transform=True)

    def test_standardize(self, tmp_path):
        m = ingest_csv(self.write(tmp_path, "1,10\n2,20\n3,30\n"), standardize=True)
        assert np.allclose(m.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(m.std(axis=0, ddof=1), 1, atol=1e-12)

    def test_missing_value_located(self, tmp_path):
        with pytest.raises(ParseError, match="row 2, column 2"):
            ingest_csv(self.write(tmp_path, "1,2\n3,\n"))

    def test_non_numeric_located(self, tmp_path):
        with pytest.raises(ParseError, match="row 1, column 1"):
            ingest_csv(self.write(tmp_path, "x,2\n"))

    @pytest.mark.parametrize("text,header,cell,row,col", [
        ("1,2\nnan,3\n4,inf\n", False, "nan", 2, 1),
        ("a,b\n1,inf\n", True, "inf", 2, 2),  # rows count the header
        ("a,b\n1,2\n-inf,3\n", True, "-inf", 3, 1),
    ])
    def test_non_finite_located(self, tmp_path, text, header, cell, row, col):
        with pytest.raises(ParseError) as info:
            ingest_csv(self.write(tmp_path, text), header=header)
        assert str(info.value) == f"non-finite cell {cell!r} at row {row}, column {col}"

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="ragged"):
            ingest_csv(self.write(tmp_path, "1,2\n3,4,5\n"))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            ingest_csv(self.write(tmp_path, ""))

    def test_standardize_rejects_constant_columns(self, tmp_path):
        path = self.write(tmp_path, "1,5,2,7\n2,5,3,7\n3,5,4,7\n")
        with pytest.raises(ParseError, match=r"constant column\(s\) 2, 4$"):
            ingest_csv(path, standardize=True)
        assert ingest_csv(path).shape == (3, 4)  # raw values are still read

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        m = rng.standard_normal((7, 4))
        path = tmp_path / "rt.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(ingest_csv(path), m)


class TestReports:
    def test_schema_validates(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        path = tmp_path / "r.json"
        write_report(path, "fit", {"rss": 1.0}, seed=7)
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["kind"] == "fit"
        assert doc["seed"] == 7

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"z": 1, "a": [1, 2], "m": {"y": 0, "x": 1}}
        write_report(a, "k", payload)
        write_report(b, "k", payload)
        assert a.read_bytes() == b.read_bytes()

    def test_numpy_values_are_written_as_their_lists(self, tmp_path):
        # arrays (inf, a read-only broadcast view) and numpy scalars write the
        # bytes of the same payload converted with .tolist() by hand
        arrays = {"inf": np.array([1.5, np.inf, -np.inf]), "view": np.broadcast_to(np.array([3.0, 4.0]), (2, 2)),
                  "int": np.int64(7), "float": np.float64(0.1), "bool": np.bool_(True)}
        assert not arrays["view"].flags.writeable
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(a, "k", {"nested": [arrays], **arrays})
        listed = {k: v.tolist() for k, v in arrays.items()}
        write_report(b, "k", {"nested": [listed], **listed})
        assert a.read_bytes() == b.read_bytes()
        for value in (object(), {1, 2}):
            with pytest.raises(TypeError, match="not JSON serializable"):
                write_report(tmp_path / "c.json", "k", {"v": value})


@pytest.fixture(scope="module")
def small_xy():
    rng = np.random.default_rng(81)
    x = rng.standard_normal((40, 6))
    b = 3.0 * rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
    y = x @ b + rng.standard_normal((40, 4))
    return x, y


class TestEvalSplits:
    def test_structure_and_determinism(self, small_xy):
        x, y = small_xy
        crit = {"gcv_exact": Criterion(kind="gcv")}
        a = eval_splits(x, y, crit, n_splits=5, seed=3)
        b = eval_splits(x, y, crit, n_splits=5, seed=3)
        assert a.mspe == b.mspe and a.ranks == b.ranks
        assert len(a.mspe["gcv_exact"]) == len(a.mspe["ols"]) == 5
        assert not a.failures

    def test_seed_changes_splits(self, small_xy):
        x, y = small_xy
        crit = {"gcv_exact": Criterion(kind="gcv")}
        a = eval_splits(x, y, crit, n_splits=5, seed=3)
        b = eval_splits(x, y, crit, n_splits=5, seed=4)
        assert a.mspe["ols"] != b.mspe["ols"]

    def test_jobs_match_sequential(self, monkeypatch, small_xy):
        from rrdof import pipeline

        x, y = small_xy
        crit = {
            "gcv_exact": Criterion(kind="gcv"),
            "bic_naive": Criterion(kind="bic", df_mode="naive"),
        }
        # one split per stack, so that the helper thread takes three of them
        monkeypatch.setattr(pipeline, "STACK_BYTES", x.nbytes + y.nbytes)
        seq = eval_splits(x, y, crit, n_splits=6, seed=9, jobs=1)
        par = eval_splits(x, y, crit, n_splits=6, seed=9, jobs=2)
        assert seq.mspe == par.mspe and seq.ranks == par.ranks

    def test_summary_and_payload(self, small_xy):
        x, y = small_xy
        rep = eval_splits(x, y, {"gcv_exact": Criterion(kind="gcv")}, n_splits=4, seed=1)
        s = rep.summary()
        assert set(s) == {"gcv_exact", "ols"}
        assert "mean_rank" in s["gcv_exact"] and "mean_rank" not in s["ols"]
        payload = rep.to_payload()
        json.dumps(payload)  # must be JSON-serializable
        assert payload["n_splits"] == 4

    def test_validation(self, small_xy):
        x, y = small_xy
        crit = {"gcv_exact": Criterion(kind="gcv")}
        with pytest.raises(DomainError):
            eval_splits(x, y[:-1], crit, n_splits=2)
        with pytest.raises(DomainError):
            eval_splits(x, y, crit, n_splits=0)
        with pytest.raises(DomainError):
            eval_splits(x, y, crit, n_splits=2, split_fraction=1.5)
        for jobs in (0, -1, 3):
            with pytest.raises(DomainError, match="^jobs must be 1 or 2$"):
                eval_splits(x, y, crit, n_splits=2, jobs=jobs)

    def test_split_fraction_must_leave_both_sets(self, small_xy):
        # n = 10 at 1 %: round(0.1) = 0 training rows
        x, y = small_xy
        with pytest.raises(DomainError, match="^split_fraction leaves an empty train or test set$"):
            eval_splits(x[:10], y[:10], {"gcv_exact": Criterion(kind="gcv")}, n_splits=2, split_fraction=0.01)

    def test_selection_failing_on_every_split_is_an_error(self, small_xy):
        # a zero response has rss 0 at every rank, which BIC scores +inf: every candidate saturates
        x, _ = small_xy
        with pytest.raises(SaturationError, match="^selection failed on every split$"):
            eval_splits(x, np.zeros((len(x), 3)), {"bic_exact": Criterion(kind="bic")}, n_splits=3)

    def test_inputs_are_checked_before_splitting(self, small_xy):
        # a bad entry or shape is named at once, not met by each split: a NaN
        # row would give NaN MSPE on every split that holds it out, and a 1-d
        # y or a zero design a failure on every split
        x, y = small_xy
        crit = {"gcv_exact": Criterion(kind="gcv")}
        bad = x.copy()
        bad[3, 1] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            eval_splits(bad, y, crit, n_splits=6)
        with pytest.raises(ShapeError, match="non-finite"):
            eval_splits(x, np.where(y == y[0, 0], np.inf, y), crit, n_splits=6)
        with pytest.raises(ShapeError, match="2-d"):
            eval_splits(x, y[:, 0], crit, n_splits=2)
        with pytest.raises(DegenerateDesignError, match="no nonzero column"):
            eval_splits(np.zeros_like(x), y, crit, n_splits=2)


class TestTwoJobs:
    """jobs=2 runs the stacks through `linalg._two_threads`, the one place
    rrdof starts a thread."""

    def test_every_stack_runs_under_the_callers_errstate(self, monkeypatch):
        from rrdof import pipeline

        seen = []
        original = pipeline.fit_ols  # one call per stack, on the thread running it

        def spy(*args):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["divide"]))
            return original(*args)

        monkeypatch.setattr(pipeline, "fit_ols", spy)
        x, y = synthetic_fixture()
        with np.errstate(all="raise"):
            eval_splits(x, y, ALL_CRITERIA, n_splits=12, seed=1, jobs=2)
        assert [divide for _, divide in seen] == ["raise"] * len(seen)
        assert {on_caller for on_caller, _ in seen} == {True, False}  # both threads ran stacks

    def test_an_error_on_the_helper_thread_reaches_the_caller_after_the_join(self, monkeypatch):
        from rrdof import pipeline

        class Boom(Exception):
            pass

        original = pipeline.fit_ols  # one call per stack, on the thread running it

        def failing_off_the_caller(*args):
            if threading.current_thread() is not threading.main_thread():
                raise Boom("helper")
            return original(*args)

        monkeypatch.setattr(pipeline, "fit_ols", failing_off_the_caller)
        x, y = synthetic_fixture()
        before = threading.active_count()
        with pytest.raises(Boom, match="helper"):
            eval_splits(x, y, ALL_CRITERIA, n_splits=12, seed=1, jobs=2)
        assert threading.active_count() == before


class TestFixture:
    def test_shapes_and_determinism(self):
        x1, y1 = synthetic_fixture()
        x2, y2 = synthetic_fixture()
        assert x1.shape == (118, 39) and y1.shape == (118, 36)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_bundled_csvs_match_generator(self):
        px, py = fixture_paths()
        x, y = synthetic_fixture()
        assert np.array_equal(ingest_csv(px), x)
        assert np.array_equal(ingest_csv(py), y)


def direct_mspe(y_te, pred):
    """2 ||Y_te - pred||^2 / (n_te q): the held-out error as a direct residual."""
    return 2.0 * float(np.sum((y_te - pred) ** 2)) / y_te.size


def reference_eval(x, y, criteria, n_splits, split_fraction=0.5, seed=0):
    """The split loop as a black box: one select_rank and one
    coef_matrix(ls, hard(r)) per criterion, plus OLS, each scored by its
    direct held-out residual. Returns (mspe, ranks, failures) as eval_splits
    reports them."""
    from rrdof.estimators import coef_matrix, fit_ols, hard
    from rrdof.exceptions import SaturationError
    from rrdof.selection import select_rank

    n_train = int(round(x.shape[0] * split_fraction))
    names = list(criteria)
    mspe = {name: [] for name in names + ["ols"]}
    ranks = {name: [] for name in names}
    failures = []
    for t in range(n_splits):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(3, t)))
        perm = rng.permutation(x.shape[0])
        train, test = perm[:n_train], perm[n_train:]
        x_te, y_te = x[test], y[test]
        try:
            ls = fit_ols(x[train], y[train])
            got_mspe, got_ranks = {}, {}
            for name, crit in criteria.items():
                rep = select_rank(ls, crit)
                bhat = coef_matrix(ls, hard(rep.chosen))
                got_mspe[name] = direct_mspe(y_te, x_te @ bhat)
                got_ranks[name] = rep.chosen
            got_mspe["ols"] = direct_mspe(y_te, x_te @ coef_matrix(ls, hard(ls.r_bar)))
        except (SaturationError, DomainError) as exc:
            failures.append({"split": t, "error": str(exc)})
            continue
        for name in names:
            mspe[name].append(got_mspe[name])
            ranks[name].append(got_ranks[name])
        mspe["ols"].append(got_mspe["ols"])
    return mspe, ranks, failures


ALL_CRITERIA = {
    f"{kind}_{mode}": Criterion(kind=kind, df_mode=mode, sigma2=1.0 if kind == "cp" else None)
    for kind in ("cp", "gcv", "bic")
    for mode in ("exact", "naive")
}


def wide_xy():
    """n = 24 rows, p = 30 columns: every training half has n_train < p."""
    rng = np.random.default_rng(82)
    x = rng.standard_normal((24, 30))
    b = 2.0 * rng.standard_normal((30, 2)) @ rng.standard_normal((2, 9))
    return x, x @ b + rng.standard_normal((24, 9))


def saturating_xy():
    """q = 1 and four distinct rows, each twice: a training half of four
    distinct rows has r_x = n_train, so its one candidate has df = n*q and
    GCV saturates; a half holding a repeated row does not."""
    rng = np.random.default_rng(83)
    x = rng.standard_normal((4, 4))[[0, 0, 1, 1, 2, 2, 3, 3]]
    y = x @ rng.standard_normal((4, 1)) + rng.standard_normal((8, 1))
    return x, y


def assert_mspe_close(got, want):
    # The held-out path sums the squared error in another order than the
    # direct residual does, so MSPE agrees to roundoff, not bit for bit.
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-13, atol=0)


def _train_x(x, seed, t):
    # the training rows of split t of x (or of y), drawn as eval_splits draws them
    from rrdof.dof import _substream

    perm = _substream(seed, 3, t).permutation(x.shape[0])
    return x[perm[: int(round(x.shape[0] * 0.5))]]


def _inject_failures(monkeypatch, target, x, y, seed, n_splits, fails, hook=None):
    """Patch pipeline.<target>, "fit_ols" or "select_ranks", to raise
    DegeneracyError(fails[t]) on any call that holds split t, which it knows
    by its training design (fit_ols) or its training fit's spectrum
    (select_ranks). Returns the list of the splits of each call, in call
    order; `hook(splits)` sees them before the call raises or runs."""
    from rrdof import pipeline
    from rrdof.estimators import fit_ols
    from rrdof.exceptions import DegeneracyError

    original = getattr(pipeline, target)
    keys = [_train_x(x, seed, t) for t in range(n_splits)]
    if target == "select_ranks":  # _train_x draws the rows of y as those of x
        keys = [fit_ols(k, _train_x(y, seed, t)).d for t, k in enumerate(keys)]
    calls = []

    def failing(first, *args):
        rows = np.reshape(first, (-1, *keys[0].shape))  # one training design or spectrum per split
        splits = [t for row in rows for t, key in enumerate(keys) if np.array_equal(row, key)]
        calls.append(splits)
        if hook is not None:
            hook(splits)
        for t in splits:
            if t in fails:
                raise DegeneracyError(fails[t])
        return original(first, *args)

    monkeypatch.setattr(pipeline, target, failing)
    return calls


class TestOneRankPathPerSplit:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("data", ["fixture", "wide"])
    def test_equals_per_criterion_loop(self, data, jobs):
        x, y = synthetic_fixture() if data == "fixture" else wide_xy()
        got = eval_splits(x, y, ALL_CRITERIA, n_splits=25, seed=5, jobs=jobs)
        mspe, ranks, failures = reference_eval(x, y, ALL_CRITERIA, n_splits=25, seed=5)
        assert_mspe_close(got.mspe, mspe)
        assert got.ranks == ranks
        assert got.failures == failures

    @pytest.mark.parametrize("per_stack", [1, 3, None])
    def test_one_df_path_per_stack_and_no_fitted_values(self, monkeypatch, per_stack):
        from rrdof import estimators, pipeline, selection

        calls = []
        original = selection.exact_df_path

        def counting_path(d, *args, **kwargs):
            calls.append(np.shape(d))
            return original(d, *args, **kwargs)

        def no_fit(*args, **kwargs):
            raise AssertionError("the eval path built fitted values")

        monkeypatch.setattr(selection, "exact_df_path", counting_path)
        monkeypatch.setattr(estimators, "fit_shrunk", no_fit)
        x, y = synthetic_fixture()
        if per_stack is not None:
            monkeypatch.setattr(pipeline, "STACK_BYTES", per_stack * (x.nbytes + y.nbytes))
        rep = eval_splits(x, y, ALL_CRITERIA, n_splits=7, seed=2)
        assert calls == [(7, 36)]  # the spectra of every stack in one df path
        assert len(rep.mspe["ols"]) == 7

    def test_no_coefficient_matrix_per_split(self, monkeypatch):
        from rrdof import estimators

        def no_coef(*args, **kwargs):
            raise AssertionError("the eval path built a coefficient matrix")

        # every coefficient matrix and fit weighs the spectrum through _weights
        monkeypatch.setattr(estimators, "coef_matrix", no_coef)
        monkeypatch.setattr(estimators, "_weights", no_coef)
        x, y = synthetic_fixture()
        rep = eval_splits(x, y, ALL_CRITERIA, n_splits=7, seed=2)
        assert not rep.failures and len(rep.mspe["ols"]) == 7

    @staticmethod
    def check_split_2_fails(monkeypatch, target, jobs):
        from rrdof import pipeline

        x, y = synthetic_fixture()
        monkeypatch.setattr(pipeline, "STACK_BYTES", 4 * (x.nbytes + y.nbytes))
        clean = eval_splits(x, y, ALL_CRITERIA, n_splits=5, seed=3, jobs=jobs)
        error = "tied singular values on this split"
        calls = _inject_failures(monkeypatch, target, x, y, 3, 5, {2: error})
        got = eval_splits(x, y, ALL_CRITERIA, n_splits=5, seed=3, jobs=jobs)
        assert got.failures == [{"split": 2, "error": error}]
        for name in clean.mspe:
            assert got.mspe[name] == [v for t, v in enumerate(clean.mspe[name]) if t != 2]
        for name in clean.ranks:
            assert got.ranks[name] == [v for t, v in enumerate(clean.ranks[name]) if t != 2]
        # the call-mates of split 2 (splits 0, 1 and 3) report as they did together
        for name in clean.ranks:
            assert got.ranks[name][:3] == [clean.ranks[name][t] for t in (0, 1, 3)]
            assert got.mspe[name][:3] == [clean.mspe[name][t] for t in (0, 1, 3)]
        return calls

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_any_rrdof_error_is_recorded_per_split(self, monkeypatch, jobs):
        # a selection error: the run's five splits are scored in one call,
        # which fails, then one at a time
        calls = self.check_split_2_fails(monkeypatch, "select_ranks", jobs)
        assert calls == [[0, 1, 2, 3, 4], [0], [1], [2], [3], [4]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_any_rrdof_error_in_a_fit_is_recorded_per_split(self, monkeypatch, jobs):
        # splits 0-3 fail as one stack, then run one at a time; split 4 is a stack of one
        calls = self.check_split_2_fails(monkeypatch, "fit_ols", jobs)
        assert sorted(calls) == [[0], [0, 1, 2, 3], [1], [2], [3], [4]]

    @staticmethod
    def check_failures_stay_in_split_order(monkeypatch, target, jobs, hook=None):
        from rrdof import pipeline

        x, y = synthetic_fixture()
        monkeypatch.setattr(pipeline, "STACK_BYTES", 4 * (x.nbytes + y.nbytes))
        clean = eval_splits(x, y, ALL_CRITERIA, n_splits=8, seed=3, jobs=jobs)
        fails = {1: "split 1 fails", 6: "split 6 fails"}
        _inject_failures(monkeypatch, target, x, y, 3, 8, fails, hook)
        got = eval_splits(x, y, ALL_CRITERIA, n_splits=8, seed=3, jobs=jobs)
        assert got.failures == [{"split": 1, "error": "split 1 fails"},
                                {"split": 6, "error": "split 6 fails"}]
        kept = [t for t in range(8) if t not in (1, 6)]
        for name in clean.mspe:
            assert got.mspe[name] == [clean.mspe[name][t] for t in kept]
        for name in clean.ranks:
            assert got.ranks[name] == [clean.ranks[name][t] for t in kept]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_stay_in_split_order(self, monkeypatch, jobs):
        # splits 1 and 6 fail in the one selection call of the run
        self.check_failures_stay_in_split_order(monkeypatch, "select_ranks", jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fit_failures_stay_in_split_order(self, monkeypatch, jobs):
        # splits 1 and 6 fail in the middle of the stacks 0-3 and 4-7. With
        # jobs=2 the second stack runs on the helper thread, and split 1 fails
        # only once the helper has recorded split 6 and moved on to split 7.
        split_6_recorded = threading.Event()

        def hook(splits):
            if splits == [7]:
                split_6_recorded.set()
            if splits == [1] and jobs == 2:
                assert split_6_recorded.wait(timeout=30)

        self.check_failures_stay_in_split_order(monkeypatch, "fit_ols", jobs, hook)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_criteria_gives_an_ols_only_report(self, jobs):
        x, y = synthetic_fixture()
        got = eval_splits(x, y, {}, n_splits=6, seed=4, jobs=jobs)
        full = eval_splits(x, y, ALL_CRITERIA, n_splits=6, seed=4, jobs=jobs)
        assert got.criteria == [] and got.ranks == {} and not got.failures
        assert got.mspe == {"ols": full.mspe["ols"]}
        assert got.summary() == {"ols": full.summary()["ols"]}

    def test_saturating_split_records_the_same_failure(self):
        x, y = saturating_xy()
        criteria = {"cp_exact": ALL_CRITERIA["cp_exact"], "gcv_exact": ALL_CRITERIA["gcv_exact"]}
        got = eval_splits(x, y, criteria, n_splits=12, seed=1)
        mspe, ranks, failures = reference_eval(x, y, criteria, n_splits=12, seed=1)
        assert 0 < len(got.failures) < 12
        assert got.failures == failures
        assert all(f["error"] == "every candidate rank saturates the criterion" for f in failures)
        assert_mspe_close(got.mspe, mspe)
        assert got.ranks == ranks


def mixed_rank_xy():
    """Columns 6.. vanish except column 8 on rows 0-2, so a training half has
    rank 7 when it holds one of those rows and 6 otherwise."""
    rng = np.random.default_rng(84)
    x = rng.standard_normal((20, 12))
    x[:, 6:] = 0.0
    x[:3, 8] = 1.0
    return x, x[:, :6] @ rng.standard_normal((6, 4)) + rng.standard_normal((20, 4))


class TestOneSelectionPerRun:
    @staticmethod
    def count_selections(monkeypatch):
        from rrdof import pipeline

        calls = []

        def counting(d, *args):
            calls.append(np.shape(d))
            return select_ranks(d, *args)

        monkeypatch.setattr(pipeline, "select_ranks", counting)
        return calls

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_fixture_run_selects_once(self, monkeypatch, jobs):
        x, y = synthetic_fixture()
        calls = self.count_selections(monkeypatch)
        rep = eval_splits(x, y, ALL_CRITERIA, n_splits=100, seed=0, jobs=jobs)
        assert calls == [(100, 36)]
        assert not rep.failures and len(rep.mspe["ols"]) == 100

    def test_halves_of_two_ranks_equal_a_per_split_loop(self, monkeypatch):
        # one selection call per design rank; each split's ranks and MSPE
        # equal its own fit's, selection and held-out path (bit for bit)
        from rrdof.dof import _substream
        from rrdof.estimators import fit_ols
        from rrdof.linalg import gram_factors
        from rrdof.pipeline import _mspe_path
        from rrdof.selection import select_rank

        x, y = mixed_rank_xy()
        calls = self.count_selections(monkeypatch)
        got = eval_splits(x, y, ALL_CRITERIA, n_splits=12, seed=6)
        r_x = [gram_factors(_train_x(x, 6, t)).r_x for t in range(12)]
        assert set(r_x) == {6, 7} and not got.failures
        assert sorted(calls) == sorted((r_x.count(r), 4) for r in (6, 7))  # r_bar = q = 4
        for t in range(12):
            perm = _substream(6, 3, t).permutation(x.shape[0])
            train, test = perm[:10], perm[10:]
            ls = fit_ols(x[train], y[train])
            path = _mspe_path(ls, x[test], y[test])
            for name, crit in ALL_CRITERIA.items():
                r = select_rank(ls, crit).chosen
                assert got.ranks[name][t] == r
                assert got.mspe[name][t] == path[r - 1]
            assert got.mspe["ols"][t] == path[ls.r_bar - 1]


class TestStacksOfSplits:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("data", ["fixture", "wide", "mixed_rank", "saturating"])
    def test_reports_do_not_depend_on_the_stack_size(self, monkeypatch, data, jobs):
        from rrdof import pipeline

        x, y = {"fixture": synthetic_fixture, "wide": wide_xy, "mixed_rank": mixed_rank_xy,
                "saturating": saturating_xy}[data]()
        criteria = ALL_CRITERIA if data != "saturating" else {
            "cp_exact": ALL_CRITERIA["cp_exact"], "gcv_exact": ALL_CRITERIA["gcv_exact"]}
        split = x.nbytes + y.nbytes
        payloads = []
        for budget in (split, 3 * split, pipeline.STACK_BYTES, 12 * split):
            monkeypatch.setattr(pipeline, "STACK_BYTES", budget)
            payloads.append(eval_splits(x, y, criteria, n_splits=12, seed=6, jobs=jobs).to_payload())
        assert all(p == payloads[0] for p in payloads[1:])
        single = payloads[0]["per_split"]
        mspe, ranks, failures = reference_eval(x, y, criteria, n_splits=12, seed=6)
        assert single["ranks"] == ranks and payloads[0]["failures"] == failures
        assert_mspe_close(single["mspe"], mspe)

    def test_mixed_rank_halves_share_a_stack(self):
        # so that the test above runs the fallback to single splits
        from rrdof.linalg import gram_factors

        x, _ = mixed_rank_xy()
        ranks = [gram_factors(_train_x(x, 6, t)).r_x for t in range(12)]
        assert any(len(set(ranks[t:t + 4])) == 2 for t in range(0, 12, 4))

    def test_peak_memory_of_the_fixture_run(self):
        import tracemalloc

        x, y = synthetic_fixture()
        tracemalloc.start()
        try:
            rep = eval_splits(x, y, ALL_CRITERIA, n_splits=100, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rep.failures
        assert peak <= 0.8e6, f"peak {peak / 1e6:.2f} MB"
