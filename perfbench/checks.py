"""Correctness checks, run on a pass's outputs outside the timed region.

Each check compares the program against a computation made apart from it
(scipy's Bessel zeros and functions, the turning-point DP and the
exhaustive searches in `oracles`) or against a property the method must
have.  A check returns a list of failure messages; empty means it passed.
"""

import csv
import json
import math

import numpy as np

import oracles

# Time grid every CLI command samples: log-spaced 1e-3..10, 200 points,
# plus t = 1 (config keys t_lo, t_hi, time_points at their defaults).
CLI_TIMES = np.unique(np.concatenate([np.geomspace(1e-3, 10.0, 200), [1.0]]))[::-1]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _json(path):
    return json.loads(path.read_text())


def _csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _verdict(report, label):
    return [] if report["verdict"] == "pass" else [f"{label}: verdict {report['verdict']}"]


def check_hardy(outs, seed, inputs, rho=3.0):
    bad = []
    if "atoms" in outs:
        report = _json(outs["atoms"] / "atoms.json")
        bad += _verdict(report, "atoms")
        rows = _csv(outs["atoms"] / "atoms.csv")
        norms = np.array([float(r["l1_norm"]) for r in rows])
        if not norms.max() / norms.min() <= 4.0:
            bad.append(f"atoms: envelope {norms.max() / norms.min():.4g} > 4")
        b = {int(r["j"]): float(r["l1_norm"]) for r in rows if r["kind"] == "b"}
        tail = [b[j] for j in sorted(b) if j >= 3]
        if any(later > earlier for earlier, later in zip(tail[:-1], tail[1:])):
            bad.append(f"atoms: b-norms past j = 3 increase: {tail}")
        if not max(tail) / min(tail) <= 1.25:
            bad.append(f"atoms: b-norm spread past j = 3 is {max(tail) / min(tail):.4g}")
        bad += _atom_norm(rows, seed % len(rows), rho)
    if "h1" in outs:
        report = _json(outs["h1"] / "h1.json")
        bad += _verdict(report, "h1")
        res = report["results"]
        exact = all(r["Q1"] <= r["Q2"] + 2.0 * r["P1_l1"] + 1e-12 * r["Q2"]
                    for r in res["functions"])
        if not (res["all_lower_control_ok"] and exact):
            bad.append("h1: lower control Q1 <= Q2 + 2 |P_1 f|_1 fails")
    return bad


def _atom_norm(rows, pick, rho, n_modes=512):
    """Rebuild one atom's Poisson field from scipy mode values and take its
    rho-variation with the turning-point DP; the weighted L1 norm must match
    the program's atoms.csv entry."""
    from fbvar import hardy

    def num(text, kind):
        return kind(text) if text != "" else None

    specs = [hardy.AtomSpec("delta_nu", r["kind"], 0.0, j=num(r["j"], int),
                            center=num(r["center"], float),
                            radius=num(r["radius"], float)) for r in rows]
    g = hardy.atom_grid(0.0, specs, 8, n_modes)
    f = hardy.make_atom(specs[pick], g).values
    phi, lam = oracles.scipy_phi_table(0, n_modes, g.nodes)
    mass = g.weights * g.nodes      # x^(2 nu + 1) dx at nu = 0
    coeffs = phi @ (mass * f)
    field = (np.exp(-CLI_TIMES[:, None] * lam[None, :]) * coeffs) @ phi
    norm = float(np.dot(mass, oracles.rho_variation_columns(field, rho)))
    want = float(rows[pick]["l1_norm"])
    if _rel(norm, want) > 1e-8:
        return [f"atoms: atom {pick} L1 norm {want!r}, independent {norm!r}"]
    return []


def _bound_reports(report, label, stability=0.10):
    bad = _verdict(report, label)
    for name, rep in report["results"].items():
        if rep["verdict"] != "pass" or not rep["refinement_delta"] < stability:
            bad.append(f"{label}/{name}: verdict {rep['verdict']}, "
                       f"delta {rep['refinement_delta']}")
    return bad


def check_kernel_sweeps(outs, seed, inputs, rho=3.0, n_modes=512, time_points=200):
    bad = []
    if "bounds-nu0" in outs:
        report = _json(outs["bounds-nu0"] / "bounds.json")
        bad += _bound_reports(report, "bounds nu=0")
        x, y, ratio = report["results"]["size"]["witness"]
        got = _size_ratio(x, y, rho, n_modes, time_points)
        if _rel(got, ratio) > 1e-8:
            bad.append(f"bounds nu=0: size witness ratio {ratio!r}, independent {got!r}")
    if "bounds-nu-0.6" in outs:
        bad += _bound_reports(_json(outs["bounds-nu-0.6"] / "bounds.json"),
                              "bounds nu=-0.6")
    if "kernel-check" in outs:
        report = _json(outs["kernel-check"] / "kernel_check.json")
        bad += _verdict(report, "kernel-check")
        for name, rep in report["results"].items():
            delta = rep.get("refinement_delta", 0.0)
            if rep["verdict"] != "pass" or not delta < 0.10:
                bad.append(f"kernel-check/{name}: verdict {rep['verdict']}, delta {delta}")
    return bad


def _size_ratio(x, y, rho, n_modes, time_points, nu=0.0):
    """Size-check ratio at one mesh pair, beta = 0: the rho-variation of
    t -> sum_n e^(-t lam_n) phi_n(x) phi_n(y) over the certified time grid,
    divided by the regional right-hand side."""
    phi, lam = oracles.scipy_phi_table(nu, n_modes, [x, y])
    t_min = ((nu + 1.5) * math.log(lam[-1]) + math.log(1e10)) / lam[-1]
    times = np.geomspace(max(1e-3, t_min), 10.0, time_points)[::-1]
    kernel = np.exp(-times[:, None] * lam[None, :]) @ (phi[:, 0] * phi[:, 1])
    if y <= 0.5 * x:
        rhs = x ** (-2.0 * (nu + 1.0))
    elif y <= min(1.0, 1.5 * x):
        rhs = (x * y) ** (-nu - 0.5) / abs(x - y)
    else:
        rhs = y ** (-2.0 * (nu + 1.0))
    return oracles.rho_variation(kernel, rho) / rhs


def check_desk(outs, seed, inputs, gamma=1.0):
    from scipy.special import jn_zeros
    bad = []
    if "zeros" in outs:
        bad += _verdict(_json(outs["zeros"] / "zeros.json"), "zeros")
        lam = np.array([float(r["lambda"]) for r in _csv(outs["zeros"] / "zeros.csv")])
        want = jn_zeros(0, 1000)
        err = float(np.max(np.abs(lam - want) / want)) if len(lam) == 1000 else math.inf
        if not err <= 1e-10:
            bad.append(f"zeros: relative distance to scipy {err:.3g}")
    if "ortho" in outs:
        bad += _verdict(_json(outs["ortho"] / "ortho.json"), "ortho")
        for flavor in ("phi", "psi"):
            rows = _csv(outs["ortho"] / f"gram_{flavor}.csv")
            gram = np.array([[float(v) for v in r.values()] for r in rows])
            dev = float(np.max(np.abs(gram - np.eye(len(gram)))))
            if not dev < 1e-8:
                bad.append(f"ortho: {flavor} Gram deviation {dev:.3g}")
    if "gfunction" in outs:
        report = _json(outs["gfunction"] / "gfunction.json")
        bad += _verdict(report, "gfunction")
        # Parseval: |f|^2 is the sum of the squared coefficients the command
        # draws, so observed / |f|^2 must be Gamma(2 gamma) / 2^(2 gamma).
        coeffs = np.random.default_rng(seed).normal(size=10)
        const = math.gamma(2.0 * gamma) / 2.0 ** (2.0 * gamma)
        got = report["results"]["observed"] / float(np.sum(coeffs ** 2))
        if _rel(got, const) > 1e-3 or abs(report["results"]["ratio"] - 1.0) > 1e-3:
            bad.append(f"gfunction: ratio {got / const!r} against the exact identity")
    if "variation" in outs:
        report = _json(outs["variation"] / "variation.json")
        bad += _verdict(report, "variation")
        if not report["results"]["refinement_delta"] < 0.01:
            bad.append(f"variation: delta {report['results']['refinement_delta']}")
    if "lp-ratio" in outs:
        report = _json(outs["lp-ratio"] / "lp_ratio.json")
        bad += _verdict(report, "lp-ratio")
        vals = []
        for block in report["results"].values():
            vals += list(block["strong_pp"].values()) + [block["weak_11"]]
            vals += list(block.get("restricted_weak", {}).values())
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            bad.append(f"lp-ratio: envelopes not finite and positive: {vals}")
    return bad


def check_rough_paths(outs, seed, inputs):
    from fbvar import variation
    bad = []
    params = _json(inputs / "params.json")
    rho, lam = params["rho"], params["lam"]
    v = np.load(inputs / "samples.npy")
    rng = np.random.default_rng([seed, 1])
    v2 = oracles.rho_variation_columns(v, 2.0)
    tv = np.sum(np.abs(np.diff(v, axis=0)), axis=0)
    tol = 1.0 + 1e-12

    def out(op):
        return np.load(outs[op] / "values.npy")

    if "rho_variation_values" in outs:
        v3 = out("rho_variation_values")
        cols = rng.choice(v.shape[1], size=64, replace=False)
        mine = oracles.rho_variation_columns(v[:, cols], rho)
        err = float(np.max(np.abs(mine - v3[cols]) / v3[cols]))
        if not err <= 1e-12:
            bad.append(f"rho_variation_values: relative distance to the DP {err:.3g}")
        if not np.all(v3 <= tv * tol):
            bad.append("rho_variation_values: V_rho > total variation")
        if "jump_count_values" in outs:
            n = out("jump_count_values")
            if not np.all(lam * n ** (1.0 / rho) <= v3 * tol):
                bad.append("jump_count_values: lam N^(1/rho) > V_rho")
    for op in ("oscillation_values", "short_variation_values"):
        if op in outs and not np.all(out(op) <= v2 * tol):
            bad.append(f"{op}: exceeds the 2-variation")
    if "rho_variation" in outs:
        bad += _witnesses(outs["rho_variation"], np.load(inputs / "witness_samples.npy"), rho)
    bad += _windows(v, rng, rho, lam, variation)
    return bad


def _witnesses(out, samples, rho):
    values = np.load(out / "values.npy")
    chains = json.loads((out / "witness.json").read_text())
    bad = []
    for k, (value, chain) in enumerate(zip(values, chains)):
        col = samples[:, k]
        if len(chain) < 2 or np.any(np.diff(chain) <= 0) or chain[0] < 0 \
                or chain[-1] >= len(col):
            bad.append(f"rho_variation: column {k} witness is not a chain")
            continue
        total = float(np.sum(np.abs(np.diff(col[chain])) ** rho))
        if _rel(total, value ** rho) > 1e-12 or _rel(value, oracles.rho_variation(col, rho)) > 1e-12:
            bad.append(f"rho_variation: column {k} value {value!r}, chain sum^(1/rho) "
                       f"{total ** (1.0 / rho)!r}")
    if len(chains) != samples.shape[1]:
        bad.append("rho_variation: missing witnesses")
    return bad


def _windows(v, rng, rho, lam, variation, n_windows=8, rho_len=12, jump_len=10):
    """Exhaustive search on short windows cut from the sample columns."""
    bad = []
    for _ in range(n_windows):
        k = int(rng.integers(v.shape[1]))
        s = int(rng.integers(v.shape[0] - rho_len))
        w = v[s:s + rho_len, k]
        want = oracles.brute_rho_variation(w, rho)
        got = (variation.rho_variation(w, rho).value,
               float(variation.rho_variation_values(w[:, None], rho)[0]),
               oracles.rho_variation(w, rho))
        if any(_rel(g, want) > 1e-12 for g in got):
            bad.append(f"12-sample window col {k} at {s}: brute {want!r}, got {got}")
        w = v[s:s + jump_len, k]
        want = oracles.brute_jump_count(w, lam)
        got = (variation.jump_count(w, lam),
               int(variation.jump_count_values(w[:, None], lam)[0]))
        if any(g != want for g in got):
            bad.append(f"jump window col {k} at {s}: brute {want}, got {got}")
    return bad


CHECKS = {
    "hardy": check_hardy,
    "kernel-sweeps": check_kernel_sweeps,
    "desk": check_desk,
    "rough-paths": check_rough_paths,
}
