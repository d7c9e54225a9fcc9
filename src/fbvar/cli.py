"""Batch experiment runner: one subcommand per verification sweep.

Configuration is a single JSON document (defaults < --config file < flags);
outputs are CSV tables and JSON reports carrying the config hash, package
version and refinement deltas, so identical config + seed reruns are
byte-identical and diffable.  Exit codes: 0 all checks passed, 1 a check
failed or a numerical guard tripped, 2 bad configuration or an --out
that cannot be written.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bessel, grid as gridmod, hardy, kernel_bounds, semigroups, spectral, variation


# Every config key: (default, smallest accepted value of an integer key,
# command-line flags that override it).  A flag parses to the default's type.
CONFIG_KEYS = {
    "nu": (0.0, None, "--nu"),
    "n_modes": (64, 1, "--n", "--n-modes"),
    "rho": (3.0, None, "--rho"),
    "beta": (0.0, None, "--beta"),
    "gamma": (1.0, None, "--gamma"),
    "space_cells": (16, 1, "--space-cells"),
    "points_per_cell": (8, 2),
    "time_points": (200, 2, "--time-points"),
    "t_lo": (1e-3, None),
    "t_hi": (10.0, None),
    "mesh_size": (30, 2, "--mesh-size"),
    "seed": (0, 0, "--seed"),
    "n_functions": (12, 1),
    "n_a_atoms": (20, 0),
    "setting": ("delta_nu", None),
    "p_values": ([1.5, 2.0, 4.0], None),
}
DEFAULTS = {key: spec[0] for key, spec in CONFIG_KEYS.items()}


class ConfigError(ValueError):
    pass


def _is_number(v):
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _validate_config(cfg):
    unknown = sorted(set(cfg) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, (default, low, *_) in CONFIG_KEYS.items():
        val = cfg[key]
        if isinstance(default, float) and not _is_number(val):
            raise ConfigError(f"{key} must be a finite number (got {val!r})")
        if isinstance(default, int):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{key} must be an integer (got {val!r})")
            if val < low:
                raise ConfigError(f"{key} must be >= {low} (got {val})")
    p_values = cfg["p_values"]
    if not (isinstance(p_values, list) and p_values
            and all(_is_number(p) and p >= 1.0 for p in p_values)):
        raise ConfigError(f"p_values must be a nonempty list of numbers >= 1 "
                          f"(got {p_values!r})")
    if not -1.0 < cfg["nu"] < bessel._ORDER_MAX - 1.0:  # orders nu and nu + 1
        raise ConfigError(f"nu must satisfy nu > -1 and nu + 1 < "
                          f"{bessel._ORDER_MAX} (got {cfg['nu']})")
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
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return _validate_config(cfg)


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _non_finite_leaf(payload, path=""):
    """Dotted path of the first NaN or infinite number in payload, in the
    order write_json writes it (sorted keys), or None."""
    if isinstance(payload, dict):
        items = sorted(payload.items())
    elif isinstance(payload, (list, tuple)):
        items = enumerate(payload)
    else:
        finite = not isinstance(payload, float) or math.isfinite(payload)
        return None if finite else path
    for key, val in items:
        found = _non_finite_leaf(val, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def json_text(payload):
    """Strict JSON: a NaN or infinite value, which JSON cannot hold, raises
    a ValueError naming its leaf."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, default=float,
                          allow_nan=False)
    except ValueError:
        leaf = _non_finite_leaf(payload)
        if leaf is None:
            raise
        raise ValueError(f"report value {leaf} is not finite") from None
    return text + "\n"


def write_json(path, payload):
    """json_text of the payload, of which nothing is written if it raises."""
    path.write_text(json_text(payload))


def write_csv(path, header, rows):
    """Floats, numpy's included, are written as the repr of a Python float."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])


def _time_grid(cfg, include_one=False):
    return semigroups.log_times(cfg["t_lo"], cfg["t_hi"], cfg["time_points"],
                                (1.0,) if include_one else ())


def _space_grid(cfg, n_modes):
    """Sampling grid for field outputs: the mode-resolving reference grid,
    refined to at least `space_cells` uniform cells."""
    return spectral.reference_grid(
        cfg["nu"], n_modes, cfg["points_per_cell"],
        np.linspace(0.0, 1.0, cfg["space_cells"] + 1))


def _rho_field(basis, c, times, g, cfg):
    """rho-variation field of t^beta d_t^beta P_t f, f with coefficients c."""
    fam = semigroups.apply_family(basis, c, times, g, beta=cfg["beta"])
    return variation.rho_variation_values(fam, cfg["rho"])


# ---------------------------------------------------------------------------
# subcommands return (results, passed, refinement, {file: (header, rows)});
# _run writes the tables only once the report has passed as strict JSON


def cmd_zeros(cfg):
    n = cfg["n_modes"]
    table = bessel.zero_table(cfg["nu"], n)
    d = bessel.norm_consts(table)
    gaps = table.mcmahon_gaps()
    res = table.residuals()
    results = {
        "max_residual": float(res.max()),
        "fitted_mcmahon_C": float((np.arange(1, n + 1) * gaps).max()),
        "norm_const_limit_gap": float(abs(d[-1] - math.sqrt(math.pi))),
    }
    return results, results["max_residual"] < 1e-10, None, {"zeros.csv": (
        ["n", "lambda", "norm_const", "residual", "mcmahon_gap"],
        zip(range(1, n + 1), table.zeros, d, res, gaps))}


def cmd_ortho(cfg):
    n = min(cfg["n_modes"], 20)
    basis = spectral.make_basis(cfg["nu"], n)
    g = spectral.reference_grid(cfg["nu"], n, cfg["points_per_cell"])
    devs, tables = {}, {}
    for flavor in ("phi", "psi"):
        gram = spectral.gram_matrix(basis, g, flavor)
        devs[flavor] = float(np.abs(gram - np.eye(n)).max())
        tables[f"gram_{flavor}.csv"] = ([f"m{j + 1}" for j in range(n)], gram)
    return ({"max_gram_deviation": devs},
            all(v < 1e-8 for v in devs.values()), None, tables)


def cmd_kernel_check(cfg):
    basis = spectral.make_basis(cfg["nu"], cfg["n_modes"])
    env = kernel_bounds.heat_envelope_report(basis, mesh_size=20)
    grad = kernel_bounds.heat_gradient_report(basis, mesh_size=20)
    aux = kernel_bounds.free_kernel_comparison(basis, mesh_size=20)
    return ({"two_sided_envelope": env, "gradient": grad,
             "free_kernel_comparison": aux},
            all(r["verdict"] == "pass" for r in (env, grad, aux)),
            {"envelope_delta": env["refinement_delta"],
             "aux_delta": aux["refinement_delta"]}, {})


def cmd_bounds(cfg):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 512))
    reports = kernel_bounds.bound_checks(
        basis, cfg["beta"], cfg["rho"], cfg["mesh_size"],
        min(cfg["mesh_size"], 20), cfg["time_points"])
    rows = []
    for name, rep in reports.items():
        for regname, val in rep["region_max"].items():
            rows.append((name, regname, val, rep["refinement_delta"],
                         rep["verdict"]))
    return (reports, all(r["verdict"] == "pass" for r in reports.values()),
            {k: v["refinement_delta"] for k, v in reports.items()},
            {"bounds.csv": (["check", "region", "max_ratio",
                             "refinement_delta", "verdict"], rows)})


def cmd_variation(cfg):
    basis = spectral.make_basis(cfg["nu"], cfg["n_modes"])
    g = _space_grid(cfg, cfg["n_modes"])
    rng = np.random.default_rng(cfg["seed"])
    coeffs = rng.normal(size=cfg["n_modes"]) / np.arange(1, cfg["n_modes"] + 1)
    c = spectral.CoefficientVector(coeffs, basis, "phi")
    times = _time_grid(cfg, include_one=True)
    # a geometric mean can round onto a time and go: their rows are searched.
    # Each time is rooted before the product, which underflows from 1e-154
    root = np.sqrt(times)
    fine = gridmod.sorted_unique(np.append(times, root[1:] * root[:-1]))
    rows = fine.size - 1 - np.searchsorted(fine, times)
    fam = semigroups.apply_family(basis, c, fine[::-1], g, beta=cfg["beta"])
    mass = g.masses(cfg["nu"])
    edges = times[::max(1, times.size // 12)]
    brackets = variation.BracketSpec.from_times(edges, times)
    v = fam[rows]
    fields = {
        "rho_variation": variation.rho_variation_values(v, cfg["rho"]),
        "oscillation": variation.oscillation_values(v, brackets),
        "jump_count": variation.jump_count_values(v, 0.1).astype(float),
        "short_variation": variation.short_variation_values(times, v)}
    full = variation.rho_variation_values(fam, cfg["rho"])
    variation.check_nested(fields["rho_variation"], full, "variation")
    n1 = gridmod.lp_norm(fields["rho_variation"], 2.0, mass)
    n2 = gridmod.lp_norm(full, 2.0, mass)
    delta = abs(n2 - n1) / max(n1, 1e-300)
    results = {name: {"l2_weighted": gridmod.lp_norm(f, 2.0, mass),
                      "max": float(np.max(f))}
               for name, f in fields.items()}
    results["refinement_delta"] = delta
    return (results, delta < 0.01, {"rho_variation_l2_delta": delta},
            {"variation.csv": (["x"] + list(fields),
                               zip(g.nodes, *fields.values()))})


def cmd_gfunction(cfg):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 16))
    g = spectral.reference_grid(cfg["nu"], basis.n_modes,
                                cfg["points_per_cell"])
    mass = g.masses(cfg["nu"])
    rng = np.random.default_rng(cfg["seed"])
    coeffs = np.zeros(basis.n_modes)
    coeffs[:10] = rng.normal(size=10)
    c = spectral.CoefficientVector(coeffs, basis, "phi")
    f = spectral.synthesize(c, g)
    want = math.gamma(2.0 * cfg["gamma"]) / 2.0 ** (2.0 * cfg["gamma"]) \
        * gridmod.lp_norm(f.values, 2.0, mass) ** 2
    gv = variation.g_function(basis, cfg["gamma"], c, g.nodes)
    got = float(np.dot(mass, gv ** 2))
    ratio = got / want
    return ({"gamma": cfg["gamma"], "observed": got, "exact": want,
             "ratio": ratio}, abs(ratio - 1.0) < 1e-3, None, {})


def cmd_atoms(cfg):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 512))
    times = _time_grid(cfg, include_one=True)
    if cfg["setting"] == "s_nu":
        b_indices = (1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6)
    else:
        b_indices = (0, 1, 2, 3, 4, 5, 6)
    rep = hardy.atom_variation_experiment(
        cfg["setting"], cfg["rho"], basis, times, b_indices=b_indices,
        n_a_atoms=cfg["n_a_atoms"], seed=cfg["seed"],
        points_per_cell=cfg["points_per_cell"])
    rows = [(r["kind"], r["j"], r["center"], r["radius"], r["l1_norm"])
            for r in rep["atoms"]]
    return rep, rep["envelope"] <= 4.0, None, {
        "atoms.csv": (["kind", "j", "center", "radius", "l1_norm"], rows)}


def cmd_h1(cfg):
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 256))
    rep = hardy.h1_equivalence_experiment(
        cfg["setting"], cfg["rho"], basis, _time_grid(cfg, include_one=True),
        n_functions=cfg["n_functions"], seed=cfg["seed"],
        points_per_cell=cfg["points_per_cell"])
    return (rep, rep["all_lower_control_ok"] and math.isfinite(rep["K"]),
            None, {})


def cmd_lp_ratio(cfg):
    """Empirical operator-norm envelopes across p, plus restricted-weak probes.

    The restricted-weak-type probe is sup over indicators f = chi_E of
    |T f|_{p,oo} / m(E)^(1/p), run at the two endpoint exponents whenever
    -1 < nu < -1/2.
    """
    basis = spectral.make_basis(cfg["nu"], max(cfg["n_modes"], 128))
    g = _space_grid(cfg, basis.n_modes)
    times = _time_grid(cfg)
    rng = np.random.default_rng(cfg["seed"])
    results = {}
    for setting, flavor in spectral.SETTING_FLAVOR.items():
        mass = g.masses(spectral.flavor_order(cfg["nu"], flavor))
        ratios = {str(p): 0.0 for p in cfg["p_values"]}
        weak11 = 0.0
        for _ in range(cfg["n_functions"]):
            coeffs = rng.normal(size=basis.n_modes) \
                / np.arange(1, basis.n_modes + 1)
            c = spectral.CoefficientVector(coeffs, basis, flavor)
            var = _rho_field(basis, c, times, g, cfg)
            f = spectral.synthesize(c, g).values
            # numpy's maximum keeps a NaN, which the builtin max drops;
            # only a norm equal to 0 is skipped
            for p in cfg["p_values"]:
                denom = gridmod.lp_norm(f, p, mass)
                if denom != 0:
                    ratios[str(p)] = np.maximum(
                        ratios[str(p)], gridmod.lp_norm(var, p, mass) / denom)
            l1 = gridmod.lp_norm(f, 1.0, mass)
            if l1 != 0:
                weak11 = np.maximum(weak11,
                                    gridmod.weak_lp_quasinorm(var, mass) / l1)
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
                    var = _rho_field(basis, spectral.analyze(ind, basis, flavor),
                                     times, g, cfg)
                    me = float(np.dot(mass, ind.values))
                    worst = np.maximum(worst, gridmod.weak_lp_quasinorm(
                        var, mass, p) / me ** (1.0 / p))
                probes[f"p={p:.4f}"] = worst
            block["restricted_weak"] = probes
        results[setting] = block
    finite = all(math.isfinite(v) for blk in results.values()
                 for v in blk["strong_pp"].values())
    return results, finite, None, {}


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
    # every command takes the same arguments: built once, shared as a parent
    common = argparse.ArgumentParser(add_help=False)
    for key, (default, _, *flags) in CONFIG_KEYS.items():
        if flags:
            common.add_argument(*flags, dest=key, type=type(default),
                                default=None)
    common.add_argument("--out", type=str, default="fbvar_out")
    common.add_argument("--config", type=str, default=None)
    common.add_argument("--plot-script", action="store_true")
    parser = _Parser(prog="fbvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _run(args, cfg, outdir):
    """Run the command and write its tables and report, or instead of them
    its error record: the exit code."""
    stem = args.command.replace("-", "_")
    try:
        results, passed, refinement, tables = COMMANDS[args.command](cfg)
        report = {"experiment": args.command, "config": cfg,
                  "config_sha256": config_hash(cfg),
                  "package_version": __version__, "results": results,
                  "refinement": refinement or {},
                  "verdict": "pass" if passed else "fail"}
        text = json_text(report)
        for name, (header, rows) in tables.items():
            write_csv(outdir / name, header, rows)
        (outdir / f"{stem}.json").write_text(text)
    except (bessel.ZeroFindingError, semigroups.KernelTruncationError,
            hardy.AtomError, ValueError, RuntimeError, ArithmeticError,
            MemoryError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "config": cfg, "config_sha256": config_hash(cfg)}
        write_json(outdir / f"{stem}_error.json", record)
        sys.stderr.write(json.dumps(record, default=float) + "\n")
        return 1
    if args.plot_script:
        (outdir / "plot.py").write_text(PLOT_SCRIPT)
    sys.stdout.write(f"{args.command}: {report['verdict']}\n")
    return 0 if report["verdict"] == "pass" else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return _run(args, cfg, outdir)
    except ConfigError as exc:
        message = str(exc)
    except OSError as exc:
        # --out cannot be made or written into: a file or directory in the
        # way, no permission, a full disk
        message = f"cannot use --out {args.out}: {exc}"
    sys.stderr.write(json.dumps({"error": "config", "message": message})
                     + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
