import json
from pathlib import Path

import pytest

from stripdamp import cap, cli, verify
from stripdamp.errors import RootFindError

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
beta = 1.0
a = 1.0
sigma = 1.0
b = 3.0
delta = 0.4
bc = "dirichlet"
l = 1
m_list = [64, 128]
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(CONFIG, encoding="utf-8")
    return p


class TestSubcommands:
    def test_neumann(self, capsys, cfg_file):
        rc = cli.main(["--config", str(cfg_file), "neumann"])
        assert rc == 0
        assert "1.0187929" in capsys.readouterr().out

    def test_cap_solve_writes_profile(self, tmp_path, cfg_file, capsys):
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                       "cap-solve", "--eta", "0.1+0.05j"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "boundary value" in out
        csv = (tmp_path / "cap_profile.csv").read_text().splitlines()
        assert csv[0] == "x,re_F,im_F"
        assert len(csv) > 100

    def test_eigen_sweep(self, tmp_path, cfg_file, capsys):
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                       "eigen-sweep", "--h-max", "0.02", "--h-min", "0.005",
                       "--points", "4"])
        assert rc == 0
        assert "gap exponent" in capsys.readouterr().out
        header = (tmp_path / "eigen_sweep.csv").read_text().splitlines()[0]
        assert header.startswith("h,re_lambda,im_lambda,re_C,im_C")

    def test_quasimode_sweep_deterministic(self, tmp_path, cfg_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = cli.main(["--config", str(cfg_file), "--out-dir", str(out),
                           "quasimode-sweep"])
            assert rc == 0
        b1 = (out1 / "quasimode_sweep.csv").read_bytes()
        b2 = (out2 / "quasimode_sweep.csv").read_bytes()
        assert b1 == b2

    def test_evolve_and_fit_roundtrip(self, tmp_path, cfg_file, capsys):
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                       "evolve", "--m", "64"])
        assert rc == 0
        rc = cli.main(["fit", "--input", str(tmp_path / "energy_trace.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert ("alpha-hat" in out) or ("inconclusive" in out)

    def test_quasimode_sweep_dumps_profiles(self, tmp_path, cfg_file):
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                       "quasimode-sweep", "--dump-profiles"])
        assert rc == 0
        for m in (64, 128):
            csv = (tmp_path / f"quasimode_profile_m{m}.csv").read_text().splitlines()
            assert csv[0] == "x,re_u,im_u"
            assert len(csv) == 4002

    def test_resolvent_scan_dumps_operator(self, tmp_path, capsys):
        cfg = ROOT / "configs" / "beta0.cfg"
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                       "resolvent-scan", "--branches", "192,384", "--dump-operator"])
        assert rc == 0
        assert "growth exponent" in capsys.readouterr().out
        (mtx,) = tmp_path.glob("operator_q*_m192.mtx")
        assert mtx.read_text().startswith("%%MatrixMarket matrix coordinate complex")
        rows = (tmp_path / "resolvent_scan.csv").read_text().splitlines()
        assert rows[0] == "q,m_star,norm,n,local_slope"
        assert len(rows) == 3

    def test_fit_reads_named_time_column(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        # E = t^-3, so alpha-hat = -slope / 2 = 1.5
        trace.write_text("time,E\n" + "".join(f"{t},{t ** -3.0}\n" for t in range(1, 201)),
                         encoding="utf-8")
        rc = cli.main(["fit", "--input", str(trace), "--t-col", "time"])
        assert rc == 0
        assert "alpha-hat = 1.5000" in capsys.readouterr().out

    def test_beta_override(self, capsys, cfg_file):
        rc = cli.main(["--config", str(cfg_file), "--beta-override", "2",
                       "neumann"])
        assert rc == 0
        assert "ground eigenvalue = 1" in capsys.readouterr().out.replace(
            "0.99999", "1"
        )

    def test_bad_config_lists_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("a = 2.0\nsigma = 1.5\nb = 3.0\n", encoding="utf-8")
        rc = cli.main(["--config", str(bad), "neumann"])
        assert rc == 2
        assert "a + sigma < b" in capsys.readouterr().err

    def test_manifest_records_betas_and_thresholds(self, tmp_path):
        path = cli.write_manifest(tmp_path, {"demo": [tmp_path / "x.csv"]})
        manifest = json.loads(Path(path).read_text())
        assert manifest["betas"] == [0.0, 1.0, 2.0]
        assert len(manifest["thresholds"]) == 22
        assert manifest["thresholds"]["tail_levels"] == [2.0, 4.0, 6.0]
        assert manifest["artifacts"] == {"demo": [str(tmp_path / "x.csv")]}
        assert "config_hash" not in manifest and "config_file" not in manifest

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Replace every check of verify-all by a stub that records its call."""
        calls = []

        def stub(fn):
            def check(*beta):
                calls.append((fn,) + beta)
                return verify.StageReport(
                    checks=[verify.Check(f"{fn}{beta}", True, "1", "1")],
                    rows={"t": [{"x": 1.0}]})
            return check

        for _, fn in verify.SHARED_STAGES + verify.BETA_STAGES:
            monkeypatch.setattr(verify, fn, stub(fn))
        return calls

    def test_verify_all_runs_each_stage_once_per_beta(self, tmp_path, calls):
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out), "verify-all"]) == 0

        shared = [fn for _, fn in verify.SHARED_STAGES]
        per_beta = [fn for _, fn in verify.BETA_STAGES]
        assert sorted(calls) == sorted([(fn,) for fn in shared] + [
            (fn, beta) for fn in per_beta for beta in verify.BETAS])
        names = [n for n, _ in verify.SHARED_STAGES] + [
            f"{n}-beta{b:g}" for b in verify.BETAS for n, _ in verify.BETA_STAGES]
        assert len(names) == 24
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["betas"] == list(verify.BETAS)
        assert sorted(manifest["artifacts"]) == sorted(names)
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(
            f"{n}_t.csv" for n in names)
        summary = (out / "summary.txt").read_text().splitlines()
        assert len([line for line in summary if line.startswith("[PASS]")]) == 24
        assert summary[-1] == "RESULT: PASS"

        # one beta, as the benchmark's reference script calls it
        calls.clear()
        yielded = [(name, type(report)) for name, report in verify.verify_all(1.0)]
        assert yielded == [(n, verify.StageReport) for n, _ in verify.SHARED_STAGES] + [
            (f"{n}-beta1", verify.StageReport) for n, _ in verify.BETA_STAGES]
        assert sorted(calls) == sorted([(fn,) for fn in shared] + [
            (fn, 1.0) for fn in per_beta])

    def test_verify_all_abort_keeps_what_ran(self, tmp_path, calls, monkeypatch):
        def stalled(beta):
            raise RootFindError("Newton stalled")

        monkeypatch.setattr(verify, "check_tail_decay", stalled)
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out), "verify-all"]) == 1
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[-3:] == ["[FAIL] pipeline aborted: Newton stalled", "",
                                "RESULT: FAIL"]
        # the shared stages and the beta = 0 stages before tail are on disk
        assert len(calls) == 6 + 3
        assert (out / "residual-beta0_t.csv").exists()
        assert len(json.loads((out / "manifest.json").read_text())["artifacts"]) == 9


class TestInputChecks:
    """Bad input exits 2 with a message before any solve or stage runs."""

    @pytest.fixture()
    def no_work(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a solve or stage ran")

        monkeypatch.setattr(verify, "resolvent_scan", boom)
        monkeypatch.setattr(verify, "verify_all", boom)
        monkeypatch.setattr(cap, "boundary_pair", boom)

    @pytest.mark.parametrize("branches, message", [
        ("192", "at least two"),
        ("192,abc", "comma-separated integers"),
    ])
    def test_bad_branches_rejected(self, tmp_path, cfg_file, capsys, no_work,
                                   branches, message):
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path / "out"),
                       "resolvent-scan", "--branches", branches])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["eigen-sweep", "--h-min", "0.005"], "--h-min and --h-max go together"),
        (["eigen-sweep", "--h-max", "0.02"], "--h-min and --h-max go together"),
        (["eigen-sweep", "--h-max", "0.005", "--h-min", "0.02"], "need 0 < --h-min < --h-max"),
        (["eigen-sweep", "--points", "1"], "--points must be at least 2"),
        (["evolve", "--m", "0"], "--m must be positive"),
        (["evolve", "--dt", "-0.001"], "--dt must be positive"),
        (["evolve", "--T", "0"], "--T must be positive"),
        (["cap-solve", "--stride", "0"], "--stride must be positive"),
    ])
    def test_bad_solver_options_rejected(self, tmp_path, cfg_file, capsys, no_work,
                                         argv, message):
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path / "out")] + argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("times, argv, message", [
        (range(1, 21), ["--e-col", "X"], "has no column 'X'"),
        (range(1, 6), [], "fit window too small"),
        (range(10, 21), [], "need a decade"),
        (range(0), [], "the trace is empty"),
    ])
    def test_fit_rejects_bad_column_and_short_window(self, tmp_path, capsys,
                                                     times, argv, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,E\n" + "".join(f"{t},{1.0 / t}\n" for t in times),
                         encoding="utf-8")
        rc = cli.main(["fit", "--input", str(trace)] + argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("setting", ["sigma-config", "beta1-config", "beta-override"])
    def test_verify_all_refuses_a_setting_it_would_ignore(self, tmp_path, capsys,
                                                          no_work, setting):
        # verify-all runs the pinned geometry of every beta, so a config or a
        # beta given to it would be ignored
        sigma = tmp_path / "sigma.cfg"
        sigma.write_text(CONFIG.replace("sigma = 1.0", "sigma = 0.8"), encoding="utf-8")
        argv = {"sigma-config": ["--config", str(sigma)],
                "beta1-config": ["--config", str(ROOT / "configs" / "beta1.cfg")],
                "beta-override": ["--beta-override", "1"]}[setting]
        rc = cli.main(argv + ["--out-dir", str(tmp_path / "out"), "verify-all"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "reads no config" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, bad", [
        ('beta = "x"', "beta must be a number (got 'x')"),
        ("beta = true", "beta must be a number (got True)"),
        ("a = [1]", "a must be a number (got [1])"),
        ('sigma = "1.0"', "sigma must be a number (got '1.0')"),
        ("b = {}", "b must be a number (got {})"),
        ("delta = null", "delta must be a number (got None)"),
        ('l = "one"', "l must be a number (got 'one')"),
    ])
    def test_non_numeric_config_value_rejected(self, tmp_path, capsys, no_work,
                                               text, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n", encoding="utf-8")
        rc = cli.main(["--config", str(cfg), "neumann"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and bad in err

    @pytest.mark.parametrize("text, message", [
        ("airy_rtoll = 1e-6", "unknown key 'airy_rtoll'"),
        ("airy_rtol 1e-6", "expected 'key = value'"),
        ("airy_rtol = tight", "airy_rtol must be a number"),
        ("airy_rtol = [1e-6]", "airy_rtol must be a number"),
        ("tail_levels = 2.0", "tail_levels must be a list of numbers"),
        ('tail_levels = [2.0, "x"]', "tail_levels must be a list of numbers"),
    ])
    def test_bad_tolerance_file(self, tmp_path, cfg_file, capsys, no_work, text, message):
        # the thresholds are constants: --tolerance-file is refused by the
        # parser, so the file is never read and its old message never shows
        tol = tmp_path / "tol.cfg"
        tol.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path / "out"),
                      "--tolerance-file", str(tol), "verify-all"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert message not in err
        assert not (tmp_path / "out").exists()
