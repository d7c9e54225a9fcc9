"""Batch experiment runner: one subcommand per verification sweep.

Configuration is a single JSON document (defaults < --config file < flags);
outputs are CSV tables and JSON reports carrying the config hash, package
version and refinement deltas, so identical config + seed reruns are
byte-identical and diffable.  Exit codes: 0 all checks passed, 1 a check
failed or a numerical guard tripped, 2 bad configuration.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bessel, grid as gridmod, hardy, kernel_bounds, semigroups, spectral, variation


DEFAULTS = {
    "nu": 0.0,
    "n_modes": 64,
    "rho": 3.0,
    "beta": 0.0,
    "gamma": 1.0,
    "space_cells": 16,
    "points_per_cell": 8,
    "time_points": 200,
    "t_lo": 1e-3,
    "t_hi": 10.0,
    "mesh_size": 30,
    "seed": 0,
    "n_functions": 12,
    "n_a_atoms": 20,
    "setting": "delta_nu",
    "p_values": [1.5, 2.0, 4.0],
}


class ConfigError(ValueError):
    pass


# smallest accepted value of each integer key
_INT_MIN = {"n_modes": 1, "space_cells": 1, "points_per_cell": 2,
            "time_points": 2, "mesh_size": 2, "seed": 0, "n_functions": 1,
            "n_a_atoms": 0}


def _is_number(v):
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _validate_config(cfg):
    unknown = sorted(set(cfg) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("nu", "rho", "beta", "gamma", "t_lo", "t_hi"):
        if not _is_number(cfg[key]):
            raise ConfigError(f"{key} must be a finite number (got {cfg[key]!r})")
    for key, low in _INT_MIN.items():
        val = cfg[key]
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"{key} must be an integer (got {val!r})")
        if val < low:
            raise ConfigError(f"{key} must be >= {low} (got {val})")
    p_values = cfg["p_values"]
    if not (isinstance(p_values, list) and p_values
            and all(_is_number(p) and p >= 1.0 for p in p_values)):
        raise ConfigError(f"p_values must be a nonempty list of numbers >= 1 "
                          f"(got {p_values!r})")
    if not cfg["nu"] > -1.0:
        raise ConfigError(f"nu must satisfy nu > -1 (got {cfg['nu']})")
    if cfg["rho"] <= 2.0:
        raise ConfigError(f"rho must exceed 2 (got {cfg['rho']})")
    if cfg["beta"] < 0.0:
        raise ConfigError("beta must be >= 0")
    if cfg["gamma"] <= 0.0:
        raise ConfigError("gamma must be positive")
    if cfg["points_per_cell"] > 32:
        raise ConfigError("points_per_cell must be <= 32")
    if cfg["setting"] not in ("delta_nu", "s_nu"):
        raise ConfigError(f"unknown setting {cfg['setting']!r}")
    if not 0.0 < cfg["t_lo"] < cfg["t_hi"]:
        raise ConfigError("need 0 < t_lo < t_hi")
    return cfg


def load_config(args):
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)
    for key in ("nu", "rho", "beta", "gamma", "seed", "n_modes",
                "time_points", "space_cells", "mesh_size"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return _validate_config(cfg)


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=float) + "\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _report(cfg, name, results, verdict="pass", refinement=None):
    return {
        "experiment": name,
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "package_version": __version__,
        "threads": os.environ.get("FBVAR_THREADS", ""),
        "results": results,
        "refinement": refinement or {},
        "verdict": verdict,
    }


def _time_grid(cfg, include_one=False):
    include = (1.0,) if include_one else ()
    return semigroups.TimeGrid.log_spaced(cfg["t_lo"], cfg["t_hi"],
                                          cfg["time_points"], include=include)


def _space_grid(cfg, n_modes):
    """Sampling grid for field outputs: the mode-resolving reference grid,
    refined to at least `space_cells` uniform cells."""
    base = spectral.reference_grid(cfg["nu"], n_modes, cfg["points_per_cell"])
    extra = np.linspace(0.0, 1.0, cfg["space_cells"] + 1)
    edges = np.unique(np.concatenate([base.edges, extra]))
    return gridmod.grid_from_edges(edges, cfg["points_per_cell"],
                                   grading="cli")


# ---------------------------------------------------------------------------
# subcommands


def cmd_zeros(cfg, outdir):
    n = cfg["n_modes"]
    table = bessel.zero_table(cfg["nu"], n)
    d = bessel.norm_consts(cfg["nu"], table.zeros)
    gaps = table.mcmahon_gaps()
    res = table.residuals()
    rows = [(i + 1, float(table.zeros[i]), float(d[i]), float(res[i]),
             float(gaps[i])) for i in range(n)]
    write_csv(outdir / "zeros.csv",
              ["n", "lambda", "norm_const", "residual", "mcmahon_gap"], rows)
    results = {
        "max_residual": float(res.max()),
        "fitted_mcmahon_C": float((np.arange(1, n + 1) * gaps).max()),
        "norm_const_limit_gap": float(abs(d[-1] - math.sqrt(math.pi))),
    }
    ok = results["max_residual"] < 1e-10
    report = _report(cfg, "zeros", results, "pass" if ok else "fail")
    write_json(outdir / "zeros.json", report)
    return report


def cmd_ortho(cfg, outdir):
    n = min(cfg["n_modes"], 20)
    basis = spectral.make_basis(cfg["nu"], n)
    g = spectral.reference_grid(cfg["nu"], n, cfg["points_per_cell"])
    devs = {}
    for flavor in ("phi", "psi"):
        gram = spectral.gram_matrix(basis, g, flavor)
        devs[flavor] = float(np.abs(gram - np.eye(n)).max())
        rows = [tuple(float(v) for v in row) for row in gram]
        write_csv(outdir / f"gram_{flavor}.csv",
                  [f"m{j + 1}" for j in range(n)], rows)
    ok = all(v < 1e-8 for v in devs.values())
    report = _report(cfg, "ortho", {"max_gram_deviation": devs},
                     "pass" if ok else "fail")
    write_json(outdir / "ortho.json", report)
    return report


def cmd_kernel_check(cfg, outdir):
    basis = spectral.make_basis(cfg["nu"], cfg["n_modes"])
    env = kernel_bounds.heat_envelope_report(basis, mesh_size=20)
    grad = kernel_bounds.heat_gradient_report(basis, mesh_size=20)
    aux = kernel_bounds.free_kernel_comparison(basis, mesh_size=20)
    verdict = "pass" if all(r["verdict"] == "pass"
                            for r in (env, grad, aux)) else "fail"
    report = _report(cfg, "kernel-check",
                     {"two_sided_envelope": env, "gradient": grad,
                      "free_kernel_comparison": aux}, verdict,
                     refinement={"envelope_delta": env["refinement_delta"],
                                 "aux_delta": aux["refinement_delta"]})
    write_json(outdir / "kernel_check.json", report)
    return report


def cmd_bounds(cfg, outdir):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 512))
    size = kernel_bounds.size_bound_check(basis, cfg["beta"], cfg["rho"],
                                          cfg["mesh_size"], cfg["time_points"])
    reg = kernel_bounds.regularity_bound_check(basis, cfg["beta"], cfg["rho"],
                                               min(cfg["mesh_size"], 20),
                                               cfg["time_points"])
    s_nu = kernel_bounds.s_nu_bound_check(basis, cfg["beta"], cfg["rho"],
                                          cfg["mesh_size"], cfg["time_points"])
    reports = {"size": size, "regularity": reg, "s_nu": s_nu}
    rows = []
    for name, rep in reports.items():
        for regname, val in rep.region_max.items():
            rows.append((name, regname, val, rep.refinement_delta, rep.verdict))
    write_csv(outdir / "bounds.csv",
              ["check", "region", "max_ratio", "refinement_delta", "verdict"],
              rows)
    verdict = "pass" if all(r.passed for r in reports.values()) else "fail"
    payload = {name: {"region_max": rep.region_max,
                      "refinement_delta": rep.refinement_delta,
                      "witness": rep.witness, "verdict": rep.verdict,
                      **rep.extras}
               for name, rep in reports.items()}
    report = _report(cfg, "bounds", payload, verdict,
                     refinement={k: v.refinement_delta
                                 for k, v in reports.items()})
    write_json(outdir / "bounds.json", report)
    return report


def cmd_variation(cfg, outdir):
    basis = spectral.make_basis(cfg["nu"], cfg["n_modes"])
    g = _space_grid(cfg, cfg["n_modes"])
    rng = np.random.default_rng(cfg["seed"])
    coeffs = rng.normal(size=cfg["n_modes"]) / np.arange(1, cfg["n_modes"] + 1)
    c = spectral.CoefficientVector(coeffs, basis, "phi")
    tg = _time_grid(cfg, include_one=True)
    fam = semigroups.apply_family(basis, c, tg, g, kind="poisson",
                                  beta=cfg["beta"])
    mu = gridmod.weighted(cfg["nu"])
    edges = tg.times[::max(1, tg.size // 12)]
    brackets = variation.BracketSpec.from_times(edges, tg.times)
    fields = {
        "rho_variation": variation.variation_field(fam, "rho_variation",
                                                   rho=cfg["rho"]),
        "oscillation": variation.variation_field(fam, "oscillation",
                                                 brackets=brackets),
        "jump_count": variation.variation_field(fam, "jump_count", lam=0.1),
        "short_variation": variation.variation_field(fam, "short_variation"),
    }
    tg2 = semigroups.TimeGrid.log_spaced(cfg["t_lo"], cfg["t_hi"],
                                         2 * cfg["time_points"],
                                         include=(1.0,))
    fam2 = semigroups.apply_family(basis, c, tg2, g, kind="poisson",
                                   beta=cfg["beta"])
    var2 = variation.variation_field(fam2, "rho_variation", rho=cfg["rho"])
    n1 = gridmod.lp_norm(fields["rho_variation"], 2.0, mu)
    n2 = gridmod.lp_norm(var2, 2.0, mu)
    delta = abs(n2 - n1) / max(n1, 1e-300)
    rows = list(zip(
        [float(x) for x in g.nodes],
        *[[float(v) for v in f.values] for f in fields.values()]))
    write_csv(outdir / "variation.csv",
              ["x"] + list(fields.keys()), rows)
    results = {name: {"l2_weighted": gridmod.lp_norm(f, 2.0, mu),
                      "max": float(np.max(f.values))}
               for name, f in fields.items()}
    results["refinement_delta"] = delta
    report = _report(cfg, "variation", results,
                     "pass" if delta < 0.01 else "fail",
                     refinement={"rho_variation_l2_delta": delta})
    write_json(outdir / "variation.json", report)
    return report


def cmd_gfunction(cfg, outdir):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 16))
    g = spectral.reference_grid(cfg["nu"], basis.n_modes,
                                cfg["points_per_cell"])
    mu = gridmod.weighted(cfg["nu"])
    rng = np.random.default_rng(cfg["seed"])
    coeffs = np.zeros(basis.n_modes)
    coeffs[:10] = rng.normal(size=10)
    c = spectral.CoefficientVector(coeffs, basis, "phi")
    f = spectral.synthesize(c, g)
    want = math.gamma(2.0 * cfg["gamma"]) / 2.0 ** (2.0 * cfg["gamma"]) \
        * gridmod.lp_norm(f, 2.0, mu) ** 2
    gv = variation.g_function(basis, cfg["gamma"], c, g.nodes)
    got = gridmod.integrate(gridmod.GridFunction(g, gv ** 2), mu)
    ratio = got / want
    report = _report(cfg, "gfunction",
                     {"gamma": cfg["gamma"], "observed": got,
                      "exact": want, "ratio": ratio},
                     "pass" if abs(ratio - 1.0) < 1e-3 else "fail")
    write_json(outdir / "gfunction.json", report)
    return report


def cmd_atoms(cfg, outdir):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 512))
    tg = _time_grid(cfg, include_one=True)
    if cfg["setting"] == "s_nu":
        b_indices = (1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6)
    else:
        b_indices = (0, 1, 2, 3, 4, 5, 6)
    rep = hardy.atom_variation_experiment(
        cfg["setting"], cfg["nu"], cfg["rho"], basis, tg,
        b_indices=b_indices, n_a_atoms=cfg["n_a_atoms"], seed=cfg["seed"],
        points_per_cell=cfg["points_per_cell"])
    rows = [(r["kind"], r["j"], r["center"], r["radius"], r["l1_norm"])
            for r in rep["atoms"]]
    write_csv(outdir / "atoms.csv",
              ["kind", "j", "center", "radius", "l1_norm"], rows)
    verdict = "pass" if rep["envelope"] <= 4.0 else "fail"
    report = _report(cfg, "atoms", rep, verdict)
    write_json(outdir / "atoms.json", report)
    return report


def cmd_h1(cfg, outdir):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 256))
    tg = _time_grid(cfg, include_one=True)
    rep = hardy.h1_equivalence_experiment(
        cfg["setting"], cfg["nu"], cfg["rho"], basis, tg,
        n_functions=cfg["n_functions"], seed=cfg["seed"],
        points_per_cell=cfg["points_per_cell"])
    verdict = "pass" if (rep["all_lower_control_ok"]
                         and math.isfinite(rep["K"])) else "fail"
    report = _report(cfg, "h1", rep, verdict)
    write_json(outdir / "h1.json", report)
    return report


def cmd_lp_ratio(cfg, outdir):
    """Empirical operator-norm envelopes across p, plus restricted-weak probes.

    The restricted-weak-type probe is sup over indicators f = chi_E of
    |T f|_{p,oo} / m(E)^(1/p), run at the two endpoint exponents whenever
    -1 < nu < -1/2.
    """
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 128))
    g = _space_grid(cfg, basis.n_modes)
    tg = _time_grid(cfg)
    rng = np.random.default_rng(cfg["seed"])
    results = {}
    for setting, flavor in (("delta_nu", "phi"), ("s_nu", "psi")):
        mu = gridmod.weighted(cfg["nu"]) if setting == "delta_nu" else gridmod.LEBESGUE
        ratios = {str(p): 0.0 for p in cfg["p_values"]}
        weak11 = 0.0
        for _ in range(cfg["n_functions"]):
            coeffs = rng.normal(size=basis.n_modes) \
                / np.arange(1, basis.n_modes + 1)
            c = spectral.CoefficientVector(coeffs, basis, flavor)
            fam = semigroups.apply_family(basis, c, tg, g, kind="poisson",
                                          beta=cfg["beta"])
            var = variation.variation_field(fam, "rho_variation",
                                            rho=cfg["rho"])
            f = spectral.synthesize(c, g)
            for p in cfg["p_values"]:
                denom = gridmod.lp_norm(f, p, mu)
                if denom > 0:
                    ratios[str(p)] = max(ratios[str(p)],
                                         gridmod.lp_norm(var, p, mu) / denom)
            l1 = gridmod.lp_norm(f, 1.0, mu)
            if l1 > 0:
                weak11 = max(weak11,
                             gridmod.weak_l1_quasinorm(var, mu) / l1)
        block = {"strong_pp": ratios, "weak_11": weak11}
        if -1.0 < cfg["nu"] < -0.5 and setting == "s_nu":
            probes = {}
            for p in (-1.0 / (cfg["nu"] + 0.5), 1.0 / (cfg["nu"] + 1.5)):
                worst = 0.0
                for _ in range(cfg["n_functions"]):
                    a, b = np.sort(rng.uniform(0.05, 0.95, size=2))
                    if b - a < 0.01:
                        continue
                    ind = gridmod.GridFunction(
                        g, ((g.nodes > a) & (g.nodes <= b)).astype(float))
                    c = spectral.analyze(ind, basis, flavor)
                    fam = semigroups.apply_family(basis, c, tg, g,
                                                  kind="poisson",
                                                  beta=cfg["beta"])
                    var = variation.variation_field(fam, "rho_variation",
                                                    rho=cfg["rho"])
                    me = gridmod.integrate(ind, mu)
                    worst = max(worst, gridmod.weak_lp_quasinorm(var, mu, p)
                                / me ** (1.0 / p))
                probes[f"p={p:.4f}"] = worst
            block["restricted_weak"] = probes
        results[setting] = block
    finite = all(math.isfinite(v) for blk in results.values()
                 for v in blk["strong_pp"].values())
    report = _report(cfg, "lp-ratio", results, "pass" if finite else "fail")
    write_json(outdir / "lp_ratio.json", report)
    return report


COMMANDS = {
    "zeros": cmd_zeros,
    "ortho": cmd_ortho,
    "kernel-check": cmd_kernel_check,
    "bounds": cmd_bounds,
    "variation": cmd_variation,
    "gfunction": cmd_gfunction,
    "atoms": cmd_atoms,
    "h1": cmd_h1,
    "lp-ratio": cmd_lp_ratio,
}

PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plot the CSV tables produced next to this script.
import sys
from pathlib import Path
import csv

import matplotlib.pyplot as plt

for path in sorted(Path(__file__).parent.glob("*.csv")):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = list(zip(*data))
    fig, ax = plt.subplots()
    try:
        xs = [float(v) for v in cols[0]]
        for name, col in zip(header[1:], cols[1:]):
            ax.plot(xs, [float(v) for v in col], label=name)
        ax.set_xlabel(header[0])
        ax.legend()
    except ValueError:
        ax.text(0.5, 0.5, f"{path.name}: non-numeric table", ha="center")
    fig.savefig(path.with_suffix(".png"))
print("plots written")
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="fbvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--n", "--n-modes", dest="n_modes", type=int,
                       default=None)
        p.add_argument("--time-points", dest="time_points", type=int,
                       default=None)
        p.add_argument("--space-cells", dest="space_cells", type=int,
                       default=None)
        p.add_argument("--mesh-size", dest="mesh_size", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default="fbvar_out")
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--plot-script", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)})
                         + "\n")
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        report = COMMANDS[args.command](cfg, outdir)
    except (bessel.ZeroFindingError, semigroups.KernelTruncationError,
            hardy.AtomError, ValueError, RuntimeError, OverflowError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "config": cfg, "config_sha256": config_hash(cfg)}
        write_json(outdir / f"{args.command.replace('-', '_')}_error.json",
                   record)
        sys.stderr.write(json.dumps(record, default=float) + "\n")
        return 1
    if args.plot_script:
        (outdir / "plot.py").write_text(PLOT_SCRIPT)
    sys.stdout.write(f"{args.command}: {report['verdict']}\n")
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
