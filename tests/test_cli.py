import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from stripdamp import cap, cli, verify
from stripdamp.errors import RootFindError


class TestSubcommands:
    def test_neumann(self, capsys):
        # beta = 1 unless --beta says otherwise
        rc = cli.main(["neumann"])
        assert rc == 0
        assert "1.0187929" in capsys.readouterr().out

    def test_cap_solve_writes_profile(self, tmp_path, capsys):
        rc = cli.main(["--out-dir", str(tmp_path),
                       "cap-solve", "--beta", "1", "--eta", "0.1+0.05j"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "boundary value" in out
        csv = (tmp_path / "cap_profile.csv").read_text().splitlines()
        assert csv[0] == "x,re_F,im_F"
        assert len(csv) > 100

    def test_eigen_sweep(self, tmp_path, capsys):
        rc = cli.main(["--out-dir", str(tmp_path),
                       "eigen-sweep", "--beta", "1", "--h-max", "0.02", "--h-min", "0.005",
                       "--points", "4"])
        assert rc == 0
        assert "gap exponent" in capsys.readouterr().out
        header = (tmp_path / "eigen_sweep.csv").read_text().splitlines()[0]
        assert header.startswith("h,re_lambda,im_lambda,re_C,im_C")

    def test_eigen_sweep_writes_what_verify_all_writes(self, tmp_path):
        # the sweep subcommand and verify-all's eigen stage run one sweep
        rc = cli.main(["--out-dir", str(tmp_path / "cli"), "eigen-sweep", "--beta", "0"])
        assert rc == 0
        gate = tmp_path / "gate.csv"
        cli.write_csv(gate, verify.eigen_rows(verify.eigen_scaling_data(0.0)[1]))
        assert (tmp_path / "cli" / "eigen_sweep.csv").read_bytes() == gate.read_bytes()

    def test_evolve_writes_what_verify_all_writes(self, tmp_path):
        # evolve and verify-all's decay stage step the same run
        rc = cli.main(["--out-dir", str(tmp_path / "cli"), "evolve", "--beta", "1", "--m", "64"])
        assert rc == 0
        gate = tmp_path / "gate.csv"
        rows = verify.check_quasimode_decay(1.0).rows["energy_traces"]
        cli.write_csv(gate, [{"t": r["t"], "E": r["E"]} for r in rows if r["m"] == 64])
        assert (tmp_path / "cli" / "energy_trace.csv").read_bytes() == gate.read_bytes()

    @pytest.mark.parametrize("beta", ["0", "1", "2"])
    def test_quasimode_sweep_writes_what_verify_all_writes(self, tmp_path, beta):
        # the sweep subcommand builds verify-all's residual sweep
        rc = cli.main(["--out-dir", str(tmp_path / "cli"), "quasimode-sweep", "--beta", beta])
        assert rc == 0
        gate = tmp_path / "gate.csv"
        cli.write_csv(gate, verify.quasimode_rows(
            verify.quasimode_sweep_data(float(beta), "residual")))
        assert (tmp_path / "cli" / "quasimode_sweep.csv").read_bytes() == gate.read_bytes()

    def test_quasimode_sweep_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = cli.main(["--out-dir", str(out),
                           "quasimode-sweep", "--beta", "1", "--branches", "64,128"])
            assert rc == 0
        b1 = (out1 / "quasimode_sweep.csv").read_bytes()
        b2 = (out2 / "quasimode_sweep.csv").read_bytes()
        assert b1 == b2

    def test_evolve_and_fit_roundtrip(self, tmp_path, capsys):
        rc = cli.main(["--out-dir", str(tmp_path), "evolve", "--beta", "1", "--m", "64"])
        assert rc == 0
        rc = cli.main(["fit", "--input", str(tmp_path / "energy_trace.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert ("alpha-hat" in out) or ("inconclusive" in out)

    def test_quasimode_sweep_dumps_profiles(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "quasimode-sweep", "--beta", "1",
                       "--branches", "64,128", "--dump-profiles"])
        assert rc == 0
        for m in (64, 128):
            csv = (tmp_path / f"quasimode_profile_m{m}.csv").read_text().splitlines()
            assert csv[0] == "x,re_u,im_u"
            assert len(csv) == 4002

    def test_resolvent_scan_dumps_operator(self, tmp_path, capsys):
        rc = cli.main(["--out-dir", str(tmp_path), "resolvent-scan", "--beta", "0",
                       "--branches", "192,384", "--dump-operator"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "growth exponent" in out
        # the band printed is the one verify-all checks, pad included
        assert verify.resolvent_band(0.0) == pytest.approx((0.45, 1.05))
        assert "(verify-all band [0.4500, 1.0500])" in out
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

    def test_beta_selects_the_geometry(self, capsys):
        rc = cli.main(["neumann", "--beta", "2"])
        assert rc == 0
        assert "ground eigenvalue = 1" in capsys.readouterr().out.replace(
            "0.99999", "1"
        )

    def test_manifest_records_betas_and_thresholds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        path = cli.write_manifest(tmp_path, {"demo": [tmp_path / "x.csv"]}, {"demo": 0.25})
        manifest = json.loads(Path(path).read_text())
        assert manifest["betas"] == [0.0, 1.0, 2.0]
        env = manifest["environment"]
        assert sorted(env) == ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "cpu_count",
                               "numpy", "python", "scipy"]
        assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert len(manifest["thresholds"]) == 22
        assert manifest["thresholds"]["tail_levels"] == [2.0, 4.0, 6.0]
        assert manifest["artifacts"] == {"demo": [str(tmp_path / "x.csv")]}
        assert manifest["stage_wall_s"] == {"demo": 0.25}
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
        assert sorted(manifest["stage_wall_s"]) == sorted(names)
        assert all(s >= 0.0 for s in manifest["stage_wall_s"].values())
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
        monkeypatch.setattr(verify, "quasimode_sweep", boom)
        monkeypatch.setattr(verify, "verify_all", boom)
        monkeypatch.setattr(cap, "boundary_pair", boom)

    @pytest.mark.parametrize("branches, message", [
        ("192", "at least two"),
        ("192,abc", "comma-separated integers"),
        ("192,192", "repeats a mode"),
        ("0,192", "modes m >= 1"),
    ])
    def test_bad_branches_rejected(self, tmp_path, capsys, no_work, branches, message):
        for command in ("resolvent-scan", "quasimode-sweep"):
            rc = cli.main(["--out-dir", str(tmp_path / "out"),
                           command, "--beta", "0", "--branches", branches])
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
        (["cap-solve", "--stride", "0"], "--stride must be positive"),
    ])
    def test_bad_solver_options_rejected(self, tmp_path, capsys, no_work, argv, message):
        rc = cli.main(["--out-dir", str(tmp_path / "out")] + argv)
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

    def test_fit_rejects_a_multi_trace_file(self, tmp_path, capsys):
        # verify-all's energy traces hold one trace per m, one after the other
        trace = tmp_path / "traces.csv"
        trace.write_text("m,t,E\n" + "".join(f"{m},{t},{t ** -3.0}\n"
                                             for m in (64, 128) for t in range(1, 101)),
                         encoding="utf-8")
        rc = cli.main(["fit", "--input", str(trace)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not strictly increasing" in err and "one trace per m" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_fit_input_rejected(self, tmp_path, capsys):
        rc = cli.main(["fit", "--input", str(tmp_path / "missing.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing.csv: no such file" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        # the parser refuses these: its usage, then one line with the message
        (["cap-solve", "--eta", "abc"], "invalid complex value: 'abc'"),
        (["neumann", "--beta", "0.5"], "invalid choice: 0.5"),
        # verify-all runs the pinned geometry of every beta; a beta would be ignored
        (["verify-all", "--beta", "1"], "unrecognized arguments: --beta 1"),
    ], ids=["eta", "beta-choice", "verify-all-beta"])
    def test_option_refused_by_the_parser(self, tmp_path, capsys, no_work, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out-dir", str(tmp_path / "out")] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[0].startswith("usage: stripdamp")
        assert "error: " in err[-1] and message in err[-1]
        assert not (tmp_path / "out").exists()


def _scipy_modules_loaded_by(code):
    """The scipy submodules loaded in a fresh process after running code."""
    src = Path(__file__).resolve().parents[1] / "src"
    code += "\nimport sys, json\nprint(json.dumps([m for m in sys.modules if m.startswith('scipy.')]))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(json.loads(out.stdout))


def test_import_loads_no_first_use_subpackage():
    # the integrator, the spline and the sparse matrices of --dump-operator
    # load where they are called, so a fresh process that only imports the
    # command line pays for none of them
    loaded = _scipy_modules_loaded_by("import stripdamp.cli")
    assert "scipy.linalg" in loaded
    assert not loaded & {"scipy.integrate", "scipy.interpolate", "scipy.sparse.linalg"}


def test_resolvent_norm_loads_no_sparse_module():
    # the sigma_min iteration runs on LAPACK and scipy.linalg alone
    loaded = _scipy_modules_loaded_by(
        "from stripdamp import resolvent\n"
        "from stripdamp.model import UniformDamping\n"
        "resolvent.resolvent_norm(11.0, 3, UniformDamping(0.0, 3.0), 4000)")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]
