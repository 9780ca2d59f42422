import json
from pathlib import Path

import pytest

from stripdamp import cli, verify

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

    def test_manifest_and_hash(self, tmp_path, cfg_file):
        stage_paths = {"demo": [tmp_path / "x.csv"]}
        path = cli.write_manifest(tmp_path, cfg_file,
                                  {"airy_rtol": 1e-6, "tail_levels": (2, 4, 6)},
                                  stage_paths)
        manifest = json.loads(Path(path).read_text())
        assert manifest["config_hash"] == cli.config_hash(cfg_file)
        assert manifest["thresholds"]["tail_levels"] == [2, 4, 6]
        # hash is content-based, stable under a byte-identical copy
        copy = tmp_path / "copy.cfg"
        copy.write_text(CONFIG, encoding="utf-8")
        assert cli.config_hash(copy) == cli.config_hash(cfg_file)


class TestInputChecks:
    """Bad input exits 2 with a message before any solve or stage runs."""

    @pytest.fixture()
    def no_work(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a solve or stage ran")

        monkeypatch.setattr(verify, "resolvent_scan", boom)
        monkeypatch.setattr(verify, "verify_all", boom)

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

    def test_verify_all_rejects_geometry_it_would_ignore(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "sigma.cfg"
        cfg.write_text(CONFIG.replace("sigma = 1.0", "sigma = 0.8"), encoding="utf-8")
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                       "verify-all"])
        assert rc == 2
        assert "sigma = 0.8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("airy_rtoll = 1e-6", "unknown key 'airy_rtoll'"),
        ("airy_rtol 1e-6", "expected 'key = value'"),
        ("airy_rtol = tight", "airy_rtol must be a number"),
        ("airy_rtol = [1e-6]", "airy_rtol must be a number"),
        ("tail_levels = 2.0", "tail_levels must be a list of numbers"),
        ('tail_levels = [2.0, "x"]', "tail_levels must be a list of numbers"),
    ])
    def test_bad_tolerance_file(self, tmp_path, cfg_file, capsys, no_work, text, message):
        tol = tmp_path / "tol.cfg"
        tol.write_text(text + "\n", encoding="utf-8")
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path / "out"),
                       "--tolerance-file", str(tol), "verify-all"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tolerance_file_overrides_thresholds(self, tmp_path, cfg_file, monkeypatch):
        seen = {}

        def no_stages(beta, thresholds):
            seen.update(thresholds)
            return iter(())

        monkeypatch.setattr(verify, "verify_all", no_stages)
        tol = tmp_path / "tol.cfg"
        tol.write_text("airy_rtol = 1e-5  # looser\ntail_levels = [1, 2]\n",
                       encoding="utf-8")
        rc = cli.main(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                       "--tolerance-file", str(tol), "verify-all"])
        assert rc == 0
        assert seen["airy_rtol"] == 1e-5 and seen["tail_levels"] == [1, 2]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["thresholds"]["airy_rtol"] == 1e-5
