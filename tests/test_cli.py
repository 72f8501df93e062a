import json

import numpy as np
import pytest

from rrdof.cli import _sigma_hat, main
from rrdof.dof import _cov_df, _substream
from rrdof.estimators import adaptive, fit_ols, fit_shrunk, hard, soft
from rrdof.exceptions import SaturationError
from rrdof.pipeline import ingest_csv, write_matrix_csv


@pytest.fixture()
def data_paths(tmp_path):
    rng = np.random.default_rng(90)
    x = rng.standard_normal((30, 5))
    b = 3.0 * rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    y = x @ b + rng.standard_normal((30, 4))
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_matrix_csv(xp, x)
    write_matrix_csv(yp, y)
    return str(xp), str(yp), tmp_path


def rejected(data_paths, capsys, argv):
    """Run ``rrdof argv[0]`` on the data with argv[1:] and an --output path;
    check that it exits 2 and writes no report, and return its stderr."""
    xp, yp, tmp = data_paths
    out = tmp / "r.json"
    rc = main([argv[0], "--x", xp, "--y", yp, *argv[1:], "--output", str(out)])
    assert rc == 2
    assert not out.exists()
    return capsys.readouterr().err


def read_report(path):
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    return doc


class TestFit:
    def test_rrr_fit_report(self, data_paths):
        xp, yp, tmp = data_paths
        out = tmp / "fit.json"
        coef = tmp / "b.csv"
        rc = main(["fit", "--x", xp, "--y", yp, "--rank", "2",
                   "--output", str(out), "--coef-out", str(coef)])
        assert rc == 0
        doc = read_report(out)
        assert doc["kind"] == "fit"
        pl = doc["payload"]
        assert pl["rank_fitted"] == 2
        assert (pl["n"], pl["p"], pl["q"]) == (30, 5, 4)
        b = ingest_csv(coef)
        assert b.shape == (5, 4)
        assert np.linalg.matrix_rank(b) == 2

    def test_soft_fit(self, data_paths):
        xp, yp, tmp = data_paths
        out = tmp / "fit.json"
        rc = main(["fit", "--x", xp, "--y", yp, "--soft", "1.0", "--output", str(out)])
        assert rc == 0
        pl = read_report(out)["payload"]
        assert pl["rank_fitted"] <= pl["r_bar"]
        sv = pl["shrunk_singular_values"]
        assert all(a >= b for a, b in zip(sv, sv[1:]))


class TestDof:
    @pytest.mark.parametrize("method,extra", [
        ("exact", ["--rank", "2"]),
        ("naive", ["--rank", "2"]),
        ("fd", ["--soft", "0.8"]),
        ("mc", ["--rank", "2", "--sigma2", "1.0", "--reps", "30"]),
        ("perturb", ["--rank", "2", "--reps", "30"]),
    ])
    def test_methods_produce_reports(self, data_paths, method, extra):
        xp, yp, tmp = data_paths
        out = tmp / f"dof_{method}.json"
        rc = main(["--seed", "11", "dof", "--x", xp, "--y", yp,
                   "--method", method, "--output", str(out)] + extra)
        assert rc == 0
        pl = read_report(out)["payload"]
        assert pl["value"] > 0

    def test_exact_at_least_naive(self, data_paths):
        xp, yp, tmp = data_paths
        vals = {}
        for method in ("exact", "naive"):
            out = tmp / f"{method}.json"
            main(["dof", "--x", xp, "--y", yp, "--method", method,
                  "--rank", "2", "--output", str(out)])
            vals[method] = read_report(out)["payload"]["value"]
        assert vals["exact"] >= vals["naive"]
        assert vals["naive"] == (5 + 4 - 2) * 2

    @pytest.mark.parametrize("method,rule", [
        ("exact", []), ("fd", []), ("naive", ["--soft", "3"]), ("naive", ["--adaptive", "3"]),
    ], ids=["exact", "fd", "naive-soft", "naive-adaptive"])
    def test_missing_rule_is_an_error(self, data_paths, capsys, method, rule):
        # naive df is a count for a hard rank only
        xp, yp, tmp = data_paths
        rc = main(["dof", "--x", xp, "--y", yp, "--method", method, *rule,
                   "--output", str(tmp / "e.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp / "e.json").exists()

    def test_mc_requires_sigma2(self, data_paths):
        xp, yp, tmp = data_paths
        rc = main(["dof", "--x", xp, "--y", yp, "--method", "mc",
                   "--rank", "1", "--output", str(tmp / "e.json")])
        assert rc == 2

    def test_seed_env_fallback(self, data_paths, monkeypatch):
        xp, yp, tmp = data_paths
        monkeypatch.setenv("RRDOF_SEED", "123")
        out1, out2 = tmp / "a.json", tmp / "b.json"
        args = ["dof", "--x", xp, "--y", yp, "--method", "perturb",
                "--rank", "1", "--reps", "20"]
        main(args + ["--output", str(out1)])
        main(args + ["--output", str(out2)])
        d1, d2 = read_report(out1), read_report(out2)
        assert d1["seed"] == 123
        assert d1["payload"] == d2["payload"]


    @pytest.mark.parametrize("method", ["mc", "perturb"])
    @pytest.mark.parametrize("flags,refit", [
        (["--rank", "2"], lambda ls: fit_shrunk(ls, hard(2))),
        (["--rank", "9"], lambda ls: fit_shrunk(ls, hard(ls.r_bar))),  # clamps to r_bar
        (["--soft", "20"], lambda ls: fit_shrunk(ls, soft(20.0))),
        (["--adaptive", "2.0", "--gamma", "1.5"],
         lambda ls: fit_shrunk(ls, adaptive(2.0, 1.5))),
        ([], lambda ls: ls.y_hat),
    ], ids=["rank", "rank_clamped", "soft", "adaptive", "ols"])
    def test_stochastic_reports_match_per_draw_refits(self, data_paths, method, flags, refit):
        # The CLI takes its moments in H space from one stacked SVD; the
        # reference refits every draw as an n x q fit. They sum in another
        # order, so they agree to rounding.
        xp, yp, tmp = data_paths
        out = tmp / "dof.json"
        extra = ["--sigma2", "1.5"] if method == "mc" else []
        rc = main(["--seed", "4", "dof", "--x", xp, "--y", yp, "--method", method,
                   "--reps", "12", "--output", str(out)] + flags + extra)
        assert rc == 0
        x, y = ingest_csv(xp), ingest_csv(yp)
        ls = fit_ols(x, y)
        if method == "mc":
            center, sd, stream = ls.y_hat, np.sqrt(1.5), 0
        else:
            center, sd, stream = y, 0.1 * _sigma_hat(ls), 1
        draws = sd * _substream(4, stream).standard_normal((12, *y.shape))  # one generator, in order
        # the reference factors X again for every draw
        fitted = np.stack([refit(fit_ols(x, center + d)) for d in draws]).reshape(12, -1)
        draws = draws.reshape(12, -1)
        value, se = _cov_df(np.einsum("ti,ti->t", fitted, draws), fitted @ draws.mean(axis=0),
                            draws @ fitted.mean(axis=0), sd**2)
        pl = read_report(out)["payload"]
        assert pl["value"] == pytest.approx(value, rel=1e-12)
        assert pl["std_error"] == pytest.approx(se, rel=1e-12)

    def test_rank_zero_is_a_domain_error(self, data_paths, capsys):
        xp, yp, tmp = data_paths
        rc = main(["dof", "--x", xp, "--y", yp, "--method", "perturb", "--rank", "0",
                   "--output", str(tmp / "e.json")])
        assert rc == 2
        assert "rank 0 outside [1, 4]" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["exact", "naive", "fd"])
    def test_rank_above_r_bar_clamps_for_every_method(self, data_paths, method):
        xp, yp, tmp = data_paths
        values = []
        for rank in ("4", "99"):
            out = tmp / f"dof_{rank}.json"
            rc = main(["dof", "--x", xp, "--y", yp, "--method", method,
                       "--rank", rank, "--output", str(out)])
            assert rc == 0
            values.append(read_report(out)["payload"]["value"])
        assert values[0] == values[1]
        assert values[1] == pytest.approx(5 * 4, abs=1e-6)  # full rank: r_x * q

    @pytest.mark.parametrize("method", ["exact", "naive", "fd"])
    def test_rank_zero_is_a_domain_error_for_every_method(self, data_paths, method, capsys):
        xp, yp, tmp = data_paths
        rc = main(["dof", "--x", xp, "--y", yp, "--method", method, "--rank", "0",
                   "--output", str(tmp / "e.json")])
        assert rc == 2
        assert "rank 0 outside [1, 4]" in capsys.readouterr().err
        assert not (tmp / "e.json").exists()

    def test_default_tau_needs_residual_df(self, tmp_path, capsys):
        # A 10x20 design has r_x = n: the least-squares fit interpolates, its
        # residual is roundoff, and 0.1 sigma_hat would set a roundoff tau.
        rng = np.random.default_rng(91)
        x, y = rng.standard_normal((10, 20)), rng.standard_normal((10, 6))
        with pytest.raises(SaturationError, match="interpolates"):
            _sigma_hat(fit_ols(x, y))
        xp, yp, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "dof.json"
        write_matrix_csv(xp, x)
        write_matrix_csv(yp, y)
        args = ["dof", "--x", str(xp), "--y", str(yp), "--method", "perturb",
                "--rank", "2", "--reps", "20"]
        assert main(args + ["--output", str(out)]) == 2
        assert "pass --tau" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--tau", "0.01", "--output", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["fit", "--rank", "3", "--soft", "15"],
    ["dof", "--method", "exact", "--soft", "15", "--adaptive", "15"],
], ids=["fit", "dof"])
def test_two_rule_flags_are_an_error(data_paths, capsys, argv):
    # one rule per fit: argparse rejects a second rule flag before any work
    xp, yp, tmp = data_paths
    out = tmp / "r.json"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--x", xp, "--y", yp, *argv[1:], "--output", str(out)])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


class TestFitRankPolicy:
    """`rrdof fit --rank` follows the rank policy of `rrdof dof`."""

    def fit(self, tmp_path, *flags):
        from rrdof.pipeline import fixture_paths

        xp, yp = fixture_paths()
        out, coef = tmp_path / "fit.json", tmp_path / "b.csv"
        for path in (out, coef):
            path.unlink(missing_ok=True)
        rc = main(["fit", "--x", xp, "--y", yp, *flags, "--output", str(out),
                   "--coef-out", str(coef)])
        return rc, (read_report(out)["payload"], coef.read_bytes()) if rc == 0 else None

    def test_rank_inside_the_range(self, tmp_path):
        rc, (pl, _) = self.fit(tmp_path, "--rank", "4")
        assert rc == 0
        assert pl["rank_fitted"] == 4 and pl["r_bar"] == 36

    def test_rank_above_r_bar_clamps(self, tmp_path):
        rc, clamped = self.fit(tmp_path, "--rank", "99")
        assert rc == 0 and clamped[0]["rank_fitted"] == 36
        assert clamped == self.fit(tmp_path, "--rank", "36")[1] == self.fit(tmp_path)[1]

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_rank_below_one_is_a_domain_error(self, tmp_path, rank, capsys):
        rc, _ = self.fit(tmp_path, f"--rank={rank}")
        assert rc == 2
        assert f"rank {rank} outside [1, 36]" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()


class TestSelect:
    def test_gcv_select(self, data_paths):
        xp, yp, tmp = data_paths
        out = tmp / "sel.json"
        rc = main(["select", "--x", xp, "--y", yp, "--criterion", "gcv",
                   "--output", str(out)])
        assert rc == 0
        pl = read_report(out)["payload"]
        assert pl["chosen"] == 2  # planted rank
        assert len(pl["scores"]) == len(pl["candidates"]) == 4

    def test_cp_without_sigma2_fails(self, data_paths):
        xp, yp, tmp = data_paths
        rc = main(["select", "--x", xp, "--y", yp, "--criterion", "cp",
                   "--output", str(tmp / "e.json")])
        assert rc == 2


class TestSimulate:
    def test_dof_study_report(self, tmp_path):
        out = tmp_path / "sim.json"
        table = tmp_path / "table.csv"
        rc = main(["--seed", "1", "simulate", "--preset", "setting1_desk",
                   "--study", "dof", "--reps", "5",
                   "--output", str(out), "--table-out", str(table)])
        assert rc == 0
        pl = read_report(out)["payload"]
        assert pl["config"]["reps"] == 5
        assert len(pl["ranks"]) == 8
        rows = ingest_csv(table)
        assert rows.shape == (8, 8)

    def test_pred_study_report(self, tmp_path):
        out = tmp_path / "pred.json"
        rc = main(["--seed", "2", "simulate", "--preset", "ld",
                   "--study", "pred", "--reps", "5", "--output", str(out)])
        assert rc == 0
        pl = read_report(out)["payload"]
        assert set(pl["summary"]) == {"est", "pred", "rank", "prg", "snr"}
        assert len(pl["per_replication"]["prg"]) == 5

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_pred_study_needs_two_replications(self, tmp_path, reps, capsys):
        out, table = tmp_path / "pred.json", tmp_path / "table.csv"
        rc = main(["simulate", "--preset", "ld", "--study", "pred", "--reps", reps,
                   "--output", str(out), "--table-out", str(table)])
        assert rc == 2
        assert f"reps {reps} outside [2, inf]" in capsys.readouterr().err
        assert not out.exists() and not table.exists()


class TestEval:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_an_error(self, data_paths, capsys, jobs):
        err = rejected(data_paths, capsys, ["eval", "--splits", "2", "--jobs", jobs])
        assert "jobs must be 1 or 2" in err

    def test_more_than_two_jobs_is_an_error(self, data_paths, capsys):
        err = rejected(data_paths, capsys, ["eval", "--splits", "2", "--jobs", "3"])
        assert "jobs must be 1 or 2" in err

    def test_eval_report(self, data_paths):
        xp, yp, tmp = data_paths
        out = tmp / "eval.json"
        rc = main(["--seed", "4", "eval", "--x", xp, "--y", yp,
                   "--criterion", "gcv", "bic", "--df", "exact", "naive",
                   "--splits", "4", "--jobs", "2", "--output", str(out)])
        assert rc == 0
        pl = read_report(out)["payload"]
        names = {"gcv_exact", "gcv_naive", "bic_exact", "bic_naive", "ols"}
        assert set(pl["summary"]) == names
        assert len(pl["per_split"]["mspe"]["ols"]) == 4


@pytest.mark.parametrize("argv,name", [
    (["select", "--criterion", "cp", "--sigma2", "nan"], "sigma2"),
    (["eval", "--criterion", "cp", "--sigma2", "nan", "--splits", "2"], "sigma2"),
    (["fit", "--soft", "nan"], "lambda"),
    (["fit", "--adaptive", "3", "--gamma", "nan"], "gamma"),
    (["dof", "--method", "mc", "--rank", "2", "--sigma2", "nan"], "sigma2"),
    (["dof", "--method", "perturb", "--rank", "2", "--tau", "nan"], "tau"),
], ids=["select", "eval", "fit-soft", "fit-gamma", "dof-mc", "dof-perturb"])
def test_nan_parameter_is_an_error(data_paths, capsys, argv, name):
    assert name in rejected(data_paths, capsys, argv)


@pytest.mark.parametrize("argv,name", [
    (["select", "--criterion", "cp", "--sigma2", "inf"], "sigma2"),
    (["eval", "--criterion", "cp", "--sigma2", "inf", "--splits", "2"], "sigma2"),
    (["dof", "--method", "mc", "--rank", "2", "--sigma2", "inf"], "sigma2"),
    (["dof", "--method", "perturb", "--rank", "2", "--tau", "inf"], "tau"),
], ids=["select", "eval", "dof-mc", "dof-perturb"])
def test_infinite_parameter_is_an_error(data_paths, capsys, argv, name):
    err = rejected(data_paths, capsys, argv)
    assert name in err and "finite" in err


class TestSeed:
    #: the commands that draw: each checks its seed where the draw is made
    DRAWING = {
        "eval": ["eval", "--splits", "2"],
        "dof-mc": ["dof", "--method", "mc", "--rank", "1", "--sigma2", "1", "--reps", "5"],
        "dof-perturb": ["dof", "--method", "perturb", "--rank", "1", "--reps", "5"],
        "simulate": ["simulate", "--preset", "setting1_desk", "--reps", "3"],
    }

    @staticmethod
    def run(data_paths, argv, seed_flags=()):
        xp, yp, tmp = data_paths
        out = tmp / "r.json"
        data = [] if argv[0] == "simulate" else ["--x", xp, "--y", yp]
        return main([*seed_flags, argv[0], *data, *argv[1:], "--output", str(out)]), out

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("argv", DRAWING.values(), ids=DRAWING)
    def test_negative_seed_is_an_error_where_a_draw_is_made(self, data_paths, capsys, monkeypatch, argv, via):
        if via == "env":
            monkeypatch.setenv("RRDOF_SEED", "-1")
        rc, out = self.run(data_paths, argv, ["--seed", "-1"] if via == "flag" else [])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == "error: seed -1 outside [0, inf]\n"

    @pytest.mark.parametrize("argv", [["select", "--criterion", "gcv"], ["dof", "--method", "exact", "--rank", "1"],
                                      ["fit", "--rank", "1"]], ids=["select", "dof-exact", "fit"])
    def test_commands_that_draw_nothing_record_a_negative_seed(self, data_paths, monkeypatch, argv):
        rc, out = self.run(data_paths, argv, ["--seed", "-1"])
        assert rc == 0 and read_report(out)["seed"] == -1
        monkeypatch.setenv("RRDOF_SEED", "-2")
        rc, out = self.run(data_paths, argv)
        assert rc == 0 and read_report(out)["seed"] == -2

    @pytest.mark.parametrize("value", ["abc", "1.5", "0x10"])
    @pytest.mark.parametrize("argv", [["select", "--criterion", "gcv"], DRAWING["eval"]], ids=["select", "eval"])
    def test_malformed_seed_variable_is_an_error(self, data_paths, capsys, monkeypatch, argv, value):
        # once a ValueError traceback from int()
        monkeypatch.setenv("RRDOF_SEED", value)
        rc, out = self.run(data_paths, argv)
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: RRDOF_SEED must be an integer, got {value!r}\n"

    def test_seed_flag_wins_over_a_malformed_variable(self, data_paths, monkeypatch):
        monkeypatch.setenv("RRDOF_SEED", "abc")
        rc, out = self.run(data_paths, ["select", "--criterion", "gcv"], ["--seed", "4"])
        assert rc == 0 and read_report(out)["seed"] == 4
