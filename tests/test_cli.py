import csv
import json
import math
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbvar import cli


def run(args):
    return cli.main(args)


def tree_digest(root):
    chunks = []
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            chunks.append(path.name.encode())
            chunks.append(path.read_bytes())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


class TestZerosCommand:
    def test_half_integer_column_is_n_pi(self, tmp_path):
        out = tmp_path / "z"
        assert run(["zeros", "--nu", "0.5", "--n", "10",
                    "--out", str(out)]) == 0
        with open(out / "zeros.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for row in rows:
            n = int(row["n"])
            assert abs(float(row["lambda"]) - n * math.pi) < 1e-12

    def test_report_carries_config_hash_and_version(self, tmp_path):
        out = tmp_path / "z"
        run(["zeros", "--nu", "0.0", "--n", "5", "--out", str(out)])
        rep = json.loads((out / "zeros.json").read_text())
        assert rep["package_version"]
        assert len(rep["config_sha256"]) == 16
        assert rep["verdict"] == "pass"


class TestGFunctionCommand:
    def test_ratio_within_band(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gfunction", "--nu", "0", "--gamma", "1",
                    "--n", "16", "--out", str(out)]) == 0
        rep = json.loads((out / "gfunction.json").read_text())
        assert 0.999 <= rep["results"]["ratio"] <= 1.001


class TestConfigValidation:
    def test_nu_constraint_named(self, tmp_path, capsys):
        code = run(["zeros", "--nu", "-1.2", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "nu > -1" in err

    def test_rho_constraint(self, tmp_path):
        assert run(["variation", "--rho", "2.0", "--out", str(tmp_path)]) == 2

    def test_config_file_merge(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"nu": 0.5, "n_modes": 6}))
        out = tmp_path / "o"
        assert run(["zeros", "--config", str(cfgfile),
                    "--out", str(out)]) == 0
        rep = json.loads((out / "zeros.json").read_text())
        assert rep["config"]["nu"] == 0.5
        assert rep["config"]["n_modes"] == 6


class TestConfigErrors:
    """Each invalid configuration exits 2 with one JSON record on stderr."""

    @staticmethod
    def config_error(capsys, args):
        code = run(args)
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        record = json.loads(captured.err)
        assert record["error"] == "config"
        return record["message"]

    def test_non_numeric_value(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"nu": "0.5"}))
        msg = self.config_error(capsys, ["zeros", "--config", str(cfgfile),
                                         "--out", str(tmp_path / "o")])
        assert "nu" in msg

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        msg = self.config_error(capsys, ["zeros", "--config", str(missing),
                                         "--out", str(tmp_path / "o")])
        assert "absent.json" in msg

    def test_zero_mesh_size(self, tmp_path, capsys):
        msg = self.config_error(capsys, ["bounds", "--mesh-size", "0",
                                         "--out", str(tmp_path / "o")])
        assert "mesh_size" in msg

    def test_unknown_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"nuu": 0.5}))
        msg = self.config_error(capsys, ["zeros", "--n", "3", "--config",
                                         str(cfgfile), "--out",
                                         str(tmp_path / "o")])
        assert "nuu" in msg

    def test_single_time_point(self, tmp_path, capsys):
        msg = self.config_error(capsys, ["variation", "--time-points", "1",
                                         "--out", str(tmp_path / "o")])
        assert "time_points" in msg


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["zeros", "--nu", "0.3", "--n", "8", "--seed", "7",
                 "--out", str(out)])
            run(["gfunction", "--nu", "0.3", "--gamma", "0.5", "--n", "12",
                 "--seed", "7", "--out", str(out)])
        assert tree_digest(a) == tree_digest(b)


class TestThreadsVariable:
    def test_digest_independent_of_fbvar_threads(self, tmp_path, monkeypatch):
        digests = []
        for value in (None, "1", "4"):
            if value is None:
                monkeypatch.delenv("FBVAR_THREADS", raising=False)
            else:
                monkeypatch.setenv("FBVAR_THREADS", value)
            out = tmp_path / f"run{len(digests)}"
            assert run(["zeros", "--n", "5", "--out", str(out)]) == 0
            digests.append(tree_digest(out))
        assert len(set(digests)) == 1


# Per config key: a small valid value, and values out of its range.
_VALID = {
    "nu": st.floats(-0.9, 3.0),
    "n_modes": st.integers(1, 64),
    "rho": st.floats(2.5, 6.0),
    "beta": st.floats(0.0, 2.0),
    "gamma": st.floats(0.1, 3.0),
    "space_cells": st.integers(1, 32),
    "points_per_cell": st.integers(2, 16),
    "time_points": st.integers(2, 50),
    "t_lo": st.floats(1e-3, 0.5),
    "t_hi": st.floats(1.0, 10.0),
    "mesh_size": st.integers(2, 10),
    "seed": st.integers(0, 1000),
    "n_functions": st.integers(1, 5),
    "n_a_atoms": st.integers(0, 5),
    "setting": st.sampled_from(["delta_nu", "s_nu"]),
    "p_values": st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3),
}
_OUT_OF_RANGE = {
    "nu": st.floats(-5.0, -1.0),
    "n_modes": st.integers(-3, 0),
    "rho": st.floats(0.0, 2.0),
    "beta": st.floats(-3.0, -0.1),
    "gamma": st.floats(-3.0, 0.0),
    "space_cells": st.integers(-3, 0),
    "points_per_cell": st.sampled_from([0, 1, 33, 64]),
    "time_points": st.integers(-3, 1),
    "t_lo": st.floats(-1.0, 0.0),
    "t_hi": st.floats(-1.0, 0.0),
    "mesh_size": st.integers(-3, 1),
    "seed": st.integers(-5, -1),
    "n_functions": st.integers(-3, 0),
    "n_a_atoms": st.integers(-5, -1),
    "setting": st.sampled_from(["", "delta", "S_NU"]),
    "p_values": st.lists(st.floats(-2.0, 0.9), max_size=2),
}
# wrong types and non-finite numbers, for any key
_WRONG = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                   st.just({}), st.sampled_from([math.nan, math.inf, -math.inf]))


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(command=st.sampled_from(["zeros", "ortho"]),
           corrupt=st.sets(st.sampled_from(sorted(_VALID)), max_size=2),
           unknown_key=st.booleans(), data=st.data())
    def test_exit_code_without_traceback(self, command, corrupt, unknown_key,
                                         data):
        cfg = {key: data.draw(st.one_of(_OUT_OF_RANGE[key], _WRONG)
                              if key in corrupt else valid, label=key)
               for key, valid in _VALID.items()}
        if unknown_key:
            cfg["n_mode"] = 8
        with tempfile.TemporaryDirectory() as tmp:
            cfgfile = Path(tmp) / "cfg.json"
            cfgfile.write_text(json.dumps(cfg))
            code = run([command, "--config", str(cfgfile),
                        "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        if corrupt or unknown_key:
            assert code == 2


class TestVariationCommand:
    def test_runs_and_reports_refinement(self, tmp_path):
        out = tmp_path / "v"
        code = run(["variation", "--nu", "0.0", "--n", "16",
                    "--time-points", "100", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "variation.json").read_text())
        assert rep["results"]["refinement_delta"] < 0.01
        with open(out / "variation.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "x" and "rho_variation" in header

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "v"
        run(["variation", "--nu", "0.0", "--n", "8", "--time-points", "60",
             "--out", str(out), "--plot-script"])
        assert (out / "plot.py").exists()


class TestLpRatio:
    def test_restricted_weak_probes_present_for_negative_order(self, tmp_path):
        out = tmp_path / "lp"
        code = run(["lp-ratio", "--nu", "-0.7", "--n", "64",
                    "--time-points", "60", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "lp_ratio.json").read_text())
        s_nu = rep["results"]["s_nu"]
        assert "restricted_weak" in s_nu
        assert len(s_nu["restricted_weak"]) == 2
        for v in s_nu["restricted_weak"].values():
            assert math.isfinite(v)

    def test_standard_orders_have_no_probe(self, tmp_path):
        out = tmp_path / "lp"
        code = run(["lp-ratio", "--nu", "0.5", "--n", "48",
                    "--time-points", "50", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "lp_ratio.json").read_text())
        assert "restricted_weak" not in rep["results"]["s_nu"]
        for blk in rep["results"].values():
            for v in blk["strong_pp"].values():
                assert math.isfinite(v)


class TestOrtho:
    def test_ortho_passes(self, tmp_path):
        out = tmp_path / "o"
        assert run(["ortho", "--nu", "-0.5", "--n", "12",
                    "--out", str(out)]) == 0
        rep = json.loads((out / "ortho.json").read_text())
        assert rep["results"]["max_gram_deviation"]["phi"] < 1e-8
        assert (out / "gram_psi.csv").exists()


class TestKernelCheck:
    def test_kernel_check_passes(self, tmp_path):
        out = tmp_path / "k"
        assert run(["kernel-check", "--nu", "0.0", "--n", "64",
                    "--out", str(out)]) == 0
        rep = json.loads((out / "kernel_check.json").read_text())
        assert rep["results"]["two_sided_envelope"]["verdict"] == "pass"
        assert rep["refinement"]["envelope_delta"] < 0.10


class TestErrorRecords:
    def test_module_error_gives_machine_readable_record(self, tmp_path,
                                                        capsys):
        # gamma this large overflows Gamma(2 gamma) inside the check
        out = tmp_path / "e"
        code = run(["gfunction", "--nu", "0.0", "--gamma", "200.0",
                    "--n", "16", "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "OverflowError"
        assert (out / "gfunction_error.json").exists()
