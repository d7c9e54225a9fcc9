import csv
import json
import math
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbvar import bessel, cli, kernel_bounds, semigroups, spectral


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

    def test_first_zero_of_order_seven(self, tmp_path):
        # the first zero lies more than pi/2 below McMahon's guess
        out = tmp_path / "z"
        assert run(["zeros", "--nu", "7", "--n", "20", "--out", str(out)]) == 0
        with open(out / "zeros.csv") as fh:
            first = next(csv.DictReader(fh))
        assert abs(float(first["lambda"]) - 11.086370019245084) < 1e-12

    def test_report_carries_config_hash_and_version(self, tmp_path):
        out = tmp_path / "z"
        run(["zeros", "--nu", "0.0", "--n", "5", "--out", str(out)])
        rep = json.loads((out / "zeros.json").read_text())
        assert rep["package_version"]
        assert len(rep["config_sha256"]) == 16
        assert rep["verdict"] == "pass"

    def test_j_is_evaluated_at_the_zeros_once_per_order(self, tmp_path,
                                                        monkeypatch):
        # validate's J_nu and J_{nu+1} give the residual column and the
        # normalizers too
        tables, orders = [], []
        make, j = bessel.zero_table, bessel.bessel_j

        def zero_table(*args):
            tables.append(make(*args))
            return tables[-1]

        def bessel_j(order, z):
            orders.append((order, z))
            return j(order, z)

        monkeypatch.setattr(bessel, "zero_table", zero_table)
        monkeypatch.setattr(bessel, "bessel_j", bessel_j)
        assert run(["zeros", "--nu", "0.3", "--out", str(tmp_path)]) == 0
        at_zeros = [order for order, z in orders if z is tables[0].zeros]
        assert at_zeros == [0.3, 1.3]


class TestGFunctionCommand:
    def test_ratio_within_band(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gfunction", "--nu", "0", "--gamma", "1",
                    "--n", "16", "--out", str(out)]) == 0
        rep = json.loads((out / "gfunction.json").read_text())
        assert 0.999 <= rep["results"]["ratio"] <= 1.001

    def test_one_mode_table(self, tmp_path, monkeypatch):
        # the synthesis and the g-function read one table of the grid
        shapes = []
        mode_values = spectral.mode_values

        def recorded(*args, **kwargs):
            table = mode_values(*args, **kwargs)
            shapes.append(table.shape)
            return table

        for name, module in list(sys.modules.items()):
            if name.startswith("fbvar") \
                    and getattr(module, "mode_values", None) is mode_values:
                monkeypatch.setattr(module, "mode_values", recorded)
        assert run(["gfunction", "--n", "16", "--out",
                    str(tmp_path / "g")]) == 0
        assert len(shapes) == 1 and shapes[0][0] == 16


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

    def test_order_past_gamma_overflow(self, tmp_path, capsys):
        # zeros needs order nu + 1 = 171, whose Gamma(nu + 1) overflows
        msg = self.config_error(capsys, ["zeros", "--nu", "170", "--n", "3",
                                         "--out", str(tmp_path / "o")])
        assert "170.624" in msg

    def test_single_time_point(self, tmp_path, capsys):
        msg = self.config_error(capsys, ["variation", "--time-points", "1",
                                         "--out", str(tmp_path / "o")])
        assert "time_points" in msg

    def test_out_names_an_existing_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        msg = self.config_error(capsys, ["zeros", "--n", "3",
                                         "--out", str(taken)])
        assert "--out" in msg and str(taken) in msg
        assert taken.read_text() == "keep me\n"

    @pytest.mark.parametrize("name", ["zeros.csv", "zeros.json"])
    def test_output_file_blocked_by_a_directory(self, tmp_path, capsys, name):
        # a directory where the table or the report goes: the write fails
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        msg = self.config_error(capsys, ["zeros", "--n", "3",
                                         "--out", str(out)])
        assert "--out" in msg and name in msg


class TestParser:
    """Every command parses the same arguments into the same namespace."""

    FLAGGED = {key: spec for key, spec in cli.CONFIG_KEYS.items()
               if len(spec) > 2}

    def test_defaults_leave_every_config_key_unset(self):
        parser = cli.build_parser()
        for name in cli.COMMANDS:
            want = {"command": name, "out": "fbvar_out", "config": None,
                    "plot_script": False, **dict.fromkeys(self.FLAGGED)}
            assert vars(parser.parse_args([name])) == want

    def test_every_flag_is_parsed_by_every_command(self):
        parser = cli.build_parser()
        argv, want = [], {}
        for k, (key, (default, _, *flags)) in enumerate(self.FLAGGED.items()):
            value = type(default)(k + 2)
            argv += [flags[-1], str(value)]
            want[key] = value
        argv += ["--out", "o", "--config", "c.json", "--plot-script"]
        for name in cli.COMMANDS:
            assert vars(parser.parse_args([name, *argv])) == {
                "command": name, "out": "o", "config": "c.json",
                "plot_script": True, **want}
            assert parser.parse_args([name, "--n", "5"]).n_modes == 5

    def test_bad_arguments_raise_config_errors(self):
        parser = cli.build_parser()
        for name in cli.COMMANDS:
            for argv in ([name, "--nope"], [name, "--nu", "x"], [name, "--n"]):
                with pytest.raises(cli.ConfigError):
                    parser.parse_args(argv)


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

    def test_one_family_serves_both_grids(self, tmp_path, monkeypatch):
        calls = []
        apply_family = cli.semigroups.apply_family

        def counted(*args, **kwargs):
            calls.append(args[2].size)
            return apply_family(*args, **kwargs)

        monkeypatch.setattr(cli.semigroups, "apply_family", counted)
        assert run(["variation", "--n", "8", "--time-points", "20",
                    "--out", str(tmp_path)]) == 0
        assert calls == [41]        # 21 times with t = 1, and 20 means

    def test_midpoint_rounding_onto_a_time(self, tmp_path):
        # a time one ulp below 1.0 and t = 1 have a geometric mean equal
        # to one of them, so that mean is dropped from the fine grid
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"t_lo": 0.5, "t_hi": 2.0, "time_points": 299}))
        assert run(["variation", "--n", "8", "--config", str(cfgfile),
                    "--out", str(tmp_path / "o")]) == 0

    def test_tiny_t_lo_reaches_a_verdict(self, tmp_path):
        # the product of two times below 1e-154 underflows to 0; the
        # geometric means of neighbouring times must not
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"t_lo": 1e-300}))
        out = tmp_path / "o"
        assert run(["variation", "--n", "8", "--config", str(cfgfile),
                    "--out", str(out)]) in (0, 1)
        rep = json.loads((out / "variation.json").read_text())
        assert rep["verdict"] in ("pass", "fail")
        assert not (out / "variation_error.json").exists()

    def test_subgrid_above_grid_is_refused(self, tmp_path, capsys,
                                           monkeypatch):
        # a rho-variation over the 21 times of the time grid planted above
        # the one over all 41 times of its family trips the nesting guard
        values = cli.variation.rho_variation_values

        def planted(v, rho):
            return values(v, rho) * (2.0 if len(v) == 21 else 1.0)

        monkeypatch.setattr(cli.variation, "rho_variation_values", planted)
        out = tmp_path / "o"
        assert run(["variation", "--n", "8", "--time-points", "20",
                    "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "RuntimeError"
        assert record["message"].startswith("variation: ")
        assert not (out / "variation.json").exists()

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "v"
        run(["variation", "--nu", "0.0", "--n", "8", "--time-points", "60",
             "--out", str(out), "--plot-script"])
        assert (out / "plot.py").exists()


@pytest.mark.parametrize("args", [
    ["variation", "--time-points", "2"], ["variation", "--time-points", "3"],
    ["variation", "--time-points", "5"], ["bounds", "--time-points", "2"],
    ["bounds", "--time-points", "3"]])
def test_degenerate_time_grids_fail_refinement(tmp_path, args):
    # a handful of times cannot resolve the variation: the delta between
    # the grid and its subgrid stays above the pass threshold
    assert run(args + ["--out", str(tmp_path)]) == 1
    name = args[0]
    rep = json.loads((tmp_path / f"{name}.json").read_text())
    assert rep["verdict"] == "fail"
    assert min(rep["refinement"].values()) > (0.01 if name == "variation"
                                              else 0.10)


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

    @staticmethod
    def run_shrunk(tmp_path, *flags):
        # three functions per setting, the ledger's lp-ratio config
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_functions": 3}))
        out = tmp_path / "lp"
        return run(["lp-ratio", *flags, "--config", str(config),
                    "--out", str(out)]), out

    @pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
    @pytest.mark.parametrize("flags", [("--beta", "100"), ("--nu", "120")])
    def test_non_finite_envelopes_are_refused(self, tmp_path, capsys, flags):
        # (t lambda)^100 overflows to inf * 0 at beta = 100, and the mode
        # table is NaN at nu = 120: a NaN norm must reach the envelope
        code, out = self.run_shrunk(tmp_path, *flags)
        assert code == 1
        assert not (out / "lp_ratio.json").exists()
        record = json.loads((out / "lp_ratio_error.json").read_text())
        assert record["error"] == "ValueError"
        assert "is not finite" in record["message"]

    def test_high_order_envelopes_finite_and_positive(self, tmp_path):
        # |f|^4 overflows at nu = 100 unless lp_norm scales by its maximum
        code, out = self.run_shrunk(tmp_path, "--nu", "100")
        assert code == 0
        rep = json.loads((out / "lp_ratio.json").read_text())
        for blk in rep["results"].values():
            for v in blk["strong_pp"].values():
                assert math.isfinite(v) and v > 0.0


class TestOrtho:
    def test_ortho_passes(self, tmp_path):
        # at nu = 8 a zero table that stores a zero twice gives a Gram
        # deviation of 1
        for args in (["--nu", "-0.5", "--n", "12"], ["--nu", "8"]):
            out = tmp_path / args[1]
            assert run(["ortho", *args, "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("n_modes", ["4", "2"])
    def test_too_few_modes_refused(self, tmp_path, capsys, n_modes):
        # the heat reports start at t = 0.05, below t_min of these series
        out = tmp_path / "k"
        code = run(["kernel-check", "--n", n_modes, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "KernelTruncationError"
        record = json.loads((out / "kernel_check_error.json").read_text())
        assert record["error"] == "KernelTruncationError"
        assert not (out / "kernel_check.json").exists()


class TestBoundsReport:
    def test_results_are_the_check_reports(self, tmp_path):
        # bounds.json holds each check's report dict as the check returns it
        out = tmp_path / "b"
        assert run(["bounds", "--nu", "0.5", "--mesh-size", "12",
                    "--time-points", "40", "--out", str(out)]) == 0
        results = strict_json(out / "bounds.json")["results"]
        basis = spectral.make_basis(0.5, 512)
        want = kernel_bounds.bound_checks(basis, 0.0, 3.0, 12, 12, 40)
        assert list(want) == ["size", "regularity", "s_nu"]
        assert results == json.loads(json.dumps(want))

    def test_csv_and_refinement_hold_size_and_regularity_only(self,
                                                              tmp_path):
        # s_nu's size report is size's, so bounds.csv and refinement do not
        # repeat it; results.s_nu stays whole
        out = tmp_path / "b"
        assert run(["bounds", "--mesh-size", "12", "--time-points", "40",
                    "--out", str(out)]) == 0
        rep = strict_json(out / "bounds.json")
        results = rep["results"]
        with open(out / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = [(name, region) for name in ("size", "regularity")
                for region in ("lower", "diagonal", "upper")]
        assert [(r["check"], r["region"]) for r in rows] == want
        assert set(rep["refinement"]) == {"size", "regularity"}
        assert set(results["s_nu"]) == {"region_max", "refinement_delta",
                                        "witness", "verdict",
                                        "regularity_max"}

    def test_one_mode_table_and_one_multiplier_table(self, tmp_path,
                                                     monkeypatch):
        # after make_basis, the three sweeps form one Poisson multiplier
        # table on the 40 times and read one mode_values call's phi table
        # and one its phi' table
        events = []

        def recorded(name, fn):
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                events.append((name, np.shape(result)))
                return result
            return call

        mode_values = spectral.mode_values
        for name, module in list(sys.modules.items()):
            if name.startswith("fbvar") \
                    and getattr(module, "mode_values", None) is mode_values:
                monkeypatch.setattr(module, "mode_values",
                                    recorded("mode_values", mode_values))
        monkeypatch.setattr(spectral, "make_basis",
                            recorded("make_basis", spectral.make_basis))
        monkeypatch.setattr(semigroups, "poisson_multipliers",
                            recorded("multipliers",
                                     semigroups.poisson_multipliers))
        assert run(["bounds", "--mesh-size", "30", "--time-points", "40",
                    "--out", str(tmp_path / "b")]) == 0
        # phi and phi' at both meshes, 30 and 20 points
        assert events == [("make_basis", ()), ("multipliers", (40, 512)),
                          ("mode_values", (512, 50)),
                          ("mode_values", (512, 50))]


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nu", ["14", "15", "40"])
    def test_envelope_underflow_gives_record(self, tmp_path, nu):
        # from nu = 14 on, e^(-lambda_1^2 t) takes W_t or the envelope's
        # profile below the normal floats at t = 2: one named refusal, and
        # no numpy warning on the way
        out = tmp_path / "k"
        assert run(["kernel-check", "--nu", nu, "--out", str(out)]) == 1
        record = strict_json(out / "kernel_check_error.json")
        assert record["error"] == "FloatingPointError"
        assert record["message"] == (
            f"heat envelope at nu={float(nu)}: W_t or its comparison "
            f"profile underflows at t = 2")
        assert not (out / "kernel_check.json").exists()

    def test_taylor_steps_failure_gives_record(self, tmp_path, monkeypatch):
        # one block of terms is too few: _taylor_steps raises ArithmeticError
        monkeypatch.setattr(bessel, "_TAYLOR_CAP", bessel._STOP_EVERY)
        monkeypatch.setattr(bessel, "_pieces", {})
        out = tmp_path / "z"
        assert run(["zeros", "--nu", "3", "--n", "5", "--out", str(out)]) == 1
        record = json.loads((out / "zeros_error.json").read_text())
        assert record["error"] == "ArithmeticError"
        assert "Taylor steps" in record["message"]

    def test_memory_error_gives_record(self, tmp_path, monkeypatch, capsys):
        # a zero table of 10^12 modes asks numpy for terabytes, and numpy's
        # refusal is a MemoryError; the stand-in raises it at once
        message = ("Unable to allocate 21.8 TiB for an array with shape "
                   "(3000000000000,) and data type float64")

        def refuse(nu, n):
            raise MemoryError(message)

        monkeypatch.setattr(bessel, "zero_table", refuse)
        out = tmp_path / "z"
        assert run(["zeros", "--n", "1000000000000", "--out", str(out)]) == 1
        record = strict_json(out / "zeros_error.json")
        assert record["error"] == "MemoryError"
        assert record["message"] == message
        assert json.loads(capsys.readouterr().err) == record
        assert not (out / "zeros.json").exists()

    def test_write_json_names_the_first_non_finite_leaf(self, tmp_path):
        path = tmp_path / "r.json"
        payload = {"b": {"w": (0.5, np.float64(-np.inf))}, "a": [1.0, True],
                   "c": math.nan}
        with pytest.raises(ValueError, match=r"^report value b\.w\.1 is"):
            cli.write_json(path, payload)
        assert not path.exists()
        cli.write_json(path, {"a": np.float64(2.0), "b": [None, "x", 3]})
        assert strict_json(path) == {"a": 2.0, "b": [None, "x", 3]}


def strict_json(path):
    """The JSON document at path, refusing NaN and the infinities."""
    def refuse(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestOrderLadder:
    # each run passes, or exits 1 with an error record or a fail verdict;
    # no exception escapes main and every file written is strict.  The
    # Hardy commands and lp-ratio run on the ledger's shrunk configs
    SHRUNK = {"atoms": {"n_a_atoms": 1, "n_functions": 2},
              "h1": {"n_a_atoms": 1, "n_functions": 2},
              "lp-ratio": {"n_functions": 3}}

    @pytest.mark.filterwarnings("ignore:invalid value", "ignore:divide by zero",
                                "ignore:overflow")
    @pytest.mark.parametrize("nu", [-0.9, 0.0, 2.5, 5.0, 14.0, 15.0, 40.0])
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_order_gives_a_clean_outcome(self, tmp_path, command, nu):
        out = tmp_path / "o"
        args = [command, "--nu", str(nu), "--out", str(out)]
        if command in self.SHRUNK:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(self.SHRUNK[command]))
            args += ["--config", str(config)]
        code = run(args)
        stem = command.replace("-", "_")
        docs = {p.name: strict_json(p) for p in out.glob("*.json")}
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows and all(len(r) == len(rows[0]) for r in rows)
        if f"{stem}_error.json" in docs:
            assert code == 1 and f"{stem}.json" not in docs
            assert not list(out.glob("*.csv"))
        else:
            verdict = docs[f"{stem}.json"]["verdict"]
            assert (code, verdict) in ((0, "pass"), (1, "fail"))

    @pytest.mark.filterwarnings("ignore:invalid value", "ignore:divide by zero",
                                "ignore:overflow")
    @pytest.mark.parametrize("command", ["bounds", "variation"])
    def test_refusal_writes_only_its_record(self, tmp_path, command):
        # at nu = 120 the mode tables overflow and the report is refused as
        # not finite: the tables computed before the verdict stay unwritten
        out = tmp_path / "o"
        assert run([command, "--nu", "120", "--out", str(out)]) == 1
        stem = command.replace("-", "_")
        assert [p.name for p in out.iterdir()] == [f"{stem}_error.json"]


class TestPerCommandCost:
    # run in a fresh interpreter: the test process has imported both
    SCRIPT = """
import json, sys, tempfile
from pathlib import Path
from fbvar import cli
tmp = Path(tempfile.mkdtemp())
(tmp / "c.json").write_text(json.dumps(
    {"n_a_atoms": 1, "n_functions": 1, "time_points": 20}))
codes = {name: cli.main([name, "--n", "16", "--out", str(tmp / name),
                         "--config", str(tmp / "c.json")])
         for name in cli.COMMANDS}
print(json.dumps({"codes": codes, "loaded": [
    m for m in ("numpy.ma", "numpy.polynomial") if m in sys.modules]}))
"""

    def test_no_command_imports_numpy_ma_or_numpy_polynomial(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        found = json.loads(done.stdout.splitlines()[-1])
        assert found["codes"] == {name: 0 for name in cli.COMMANDS}
        assert found["loaded"] == []
