"""fbvar benchmark: run one workload and print its metrics as JSON.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh interpreter (perfbench/worker.py), one
after another: a closed loop with a single caller.  A pass runs each of
the workload's operations once; passes repeat until the next one would
overrun --seconds, and at least two run, so every operation's output
can be compared byte for byte between passes.  Outputs are checked for
correctness after the last pass, outside the timed region.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, with both pass times and their ratio.
The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 8            # fresh imports timed before the passes
RUN_LIMIT_S = 120.0          # no new pass starts after this, so a run ends < 180 s
OP_TIMEOUT_S = 60.0
# One BLAS thread, and no transparent huge pages for numpy's large arrays:
# whether the kernel backs them with 2 MB pages depends on the host's
# memory state, which moved peak RSS by up to 6% between identical runs.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "FBVAR_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}

# Sizing: hardy keeps the 512-mode basis and the 201-point time grid of
# `atoms` and shrinks only the number of random atoms and H1 functions;
# desk shrinks lp-ratio's random functions so that no single command's
# rho-variation DP outweighs the per-command costs desk is meant to show.
HARDY_CONFIG = {"n_a_atoms": 1, "n_functions": 2}
LP_RATIO_CONFIG = {"n_functions": 3}
ROUGH = {"rho": 3.0, "lam": 1.0, "walks": 1024, "gaussian": 1024, "witness": 64}


def cli(name, *argv, config=None):
    return {"name": name, "kind": "cli", "argv": list(argv), "config": config}


def lib(call):
    return {"name": call, "kind": "lib", "call": call, "config": None}


WORKLOADS = {
    "hardy": [cli("atoms", "atoms", config=HARDY_CONFIG),
              cli("h1", "h1", config=HARDY_CONFIG)],
    "kernel-sweeps": [cli("bounds-nu0", "bounds"),
                      cli("bounds-nu-0.6", "bounds", "--nu", "-0.6", "--beta", "0.5"),
                      cli("kernel-check", "kernel-check")],
    "desk": [cli("zeros", "zeros", "--n", "1000"),
             cli("ortho", "ortho", "--nu", "-0.9"),
             cli("gfunction", "gfunction"),
             cli("variation", "variation"),
             cli("lp-ratio", "lp-ratio", "--nu", "-0.7", config=LP_RATIO_CONFIG)],
    "rough-paths": [lib("rho_variation_values"), lib("short_variation_values"),
                    lib("jump_count_values"), lib("oscillation_values"),
                    lib("rho_variation")],
}


def make_inputs(workload, seed, inputs):
    """Write the workload's generated inputs; the program sees only these
    files and --seed."""
    inputs.mkdir(parents=True)
    for op in WORKLOADS[workload]:
        if op["config"] is not None:
            (inputs / f"{op['name']}.json").write_text(json.dumps(op["config"]) + "\n")
    if workload != "rough-paths":
        return
    rng = np.random.default_rng([seed, 0])
    times = np.unique(np.concatenate([np.geomspace(1e-3, 10.0, 200), [1.0]]))[::-1]
    steps = rng.normal(size=(len(times), ROUGH["walks"]))
    samples = np.hstack([np.cumsum(steps, axis=0),
                         rng.normal(size=(len(times), ROUGH["gaussian"]))])
    half = ROUGH["witness"] // 2
    picks = np.concatenate([rng.choice(ROUGH["walks"], half, replace=False),
                            ROUGH["walks"] + rng.choice(ROUGH["gaussian"], half,
                                                        replace=False)])
    np.save(inputs / "times.npy", times)
    np.save(inputs / "edges.npy", times[::16])
    np.save(inputs / "samples.npy", samples)
    np.save(inputs / "witness_samples.npy", samples[:, picks])
    (inputs / "params.json").write_text(
        json.dumps({"rho": ROUGH["rho"], "lam": ROUGH["lam"]}) + "\n")


def tree_digest(root):
    """sha256 over the names and bytes of every file below root, in order."""
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_op(op, seed, work, tag, trace, env):
    out = work / tag / op["name"]
    spec = {"kind": op["kind"], "out": str(out), "trace": trace,
            "result": str(work / tag / f"{op['name']}.result.json")}
    if op["kind"] == "cli":
        spec["argv"] = op["argv"] + ["--seed", str(seed)]
        if op["config"] is not None:
            spec["argv"] += ["--config", str(work / "inputs" / f"{op['name']}.json")]
    else:
        spec.update(call=op["call"], inputs=str(work / "inputs"))
    spec_path = work / tag / f"{op['name']}.spec.json"
    spec_path.parent.mkdir(parents=True, exist_ok=True)
    spec_path.write_text(json.dumps(spec) + "\n")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=OP_TIMEOUT_S, text=True)
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(f"{op['name']}: worker exit {proc.returncode}\n{proc.stderr}")
        return None, out
    result = json.loads(result_path.read_text())
    if result["rc"] != 0:
        sys.stderr.write(f"{op['name']}: exit code {result['rc']}\n"
                         f"{result['error'] or proc.stderr}")
        return None, out
    result["digest"] = tree_digest(out)
    return result, out


def run_passes(workload, seed, seconds, trace, work, env):
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        tag = f"pass{len(passes)}"
        t0 = time.perf_counter()
        ops = {op["name"]: run_op(op, seed, work, tag, traced, env)
               for op in WORKLOADS[workload]}
        passes.append({"traced": traced, "ops": ops,
                       "elapsed": time.perf_counter() - t0})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= MIN_PASSES and (elapsed + typical > seconds
                                          or elapsed > RUN_LIMIT_S):
            return passes


def import_times(env):
    """Time `import fbvar.cli` in fresh interpreters; the first import, which
    may write bytecode, is left out."""
    code = ("import time; t = time.perf_counter(); import fbvar.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=OP_TIMEOUT_S).stdout)
             for _ in range(SETUP_SAMPLES + 1)]
    return times[1:]


def pass_wall(p):
    return sum(r["op_s"] for r, _ in p["ops"].values() if r is not None)


def end_to_end(passes, setups):
    """wall_s and peak_rss_mb are medians over passes; setup_s is the median
    import time over the timed fresh imports and every operation's process."""
    untraced = [p for p in passes if not p["traced"]]
    setups = setups + [r["setup_s"] for p in passes for r, _ in p["ops"].values() if r]
    rss = [max(r["maxrss_mb"] for r, _ in p["ops"].values() if r) for p in untraced]
    return {"wall_s": (statistics.median(pass_wall(p) for p in untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def per_layer(passes):
    """Medians over traced passes of the per-pass sums over operations."""
    from tracer import consistent
    sums, walls, ok = [], [], True
    for p in passes:
        if not p["traced"]:
            continue
        total = {}
        for r, _ in p["ops"].values():
            if r is None:
                continue
            ok &= consistent(r["trace"], r["op_s"])
            for key, val in r["trace"]["metrics"].items():
                total[key] = total.get(key, 0) + val
        sums.append(total)
        walls.append(pass_wall(p))
    keys = sorted({k for s in sums for k in s})
    metrics = {}
    for k in keys:
        value = statistics.median(s.get(k, 0) for s in sums)
        metrics[k] = (value, "s") if k.endswith("_s") else (round(value), "count")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    metrics["trace.untraced_wall_s"] = (
        statistics.median(pass_wall(p) for p in passes if not p["traced"]), "s")
    # Each traced pass against the untraced pass just before it, so that a
    # drift in machine speed over the run cancels.
    metrics["trace.overhead"] = (statistics.median(
        pass_wall(t) / pass_wall(u) - 1.0 for u, t in zip(passes[::2], passes[1::2])),
        "ratio")
    return metrics, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fbvar" / "__init__.py").is_file():
        sys.stderr.write(f"no fbvar sources under {src}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    import checks
    import selftest

    out_root = root / "perfbench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        problems = selftest.run()
        setups = [] if args.trace else import_times(env)
        make_inputs(args.workload, args.seed, work / "inputs")
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace,
                            work, env)

        attempted = sum(len(p["ops"]) for p in passes)
        failed = sum(r is None for p in passes for r, _ in p["ops"].values())
        for name in passes[0]["ops"]:
            digests = {p["ops"][name][0]["digest"] for p in passes
                       if p["ops"][name][0] is not None}
            if len(digests) > 1:
                problems.append(f"{name}: outputs differ between passes")
        last = {name: out for name, (r, out) in passes[-1]["ops"].items()
                if r is not None}
        problems += checks.CHECKS[args.workload](last, args.seed, work / "inputs")

        if args.trace:
            metrics, ok = per_layer(passes)
            if not ok:
                problems.append("a traced self time exceeds its span")
            trace_file = out_root / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {name: r["trace"] for name, (r, _) in passes[1]["ops"].items() if r},
                indent=1, sort_keys=True) + "\n")
        else:
            metrics = end_to_end(passes, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"threads={PINNED_ENV['OMP_NUM_THREADS']} "
          f"hugepages={PINNED_ENV['NUMPY_MADVISE_HUGEPAGE']} python={sys.version.split()[0]}")
    for i, p in enumerate(passes):
        times = " ".join(f"{n}={r['op_s']:.3f}" for n, (r, _) in p["ops"].items() if r)
        print(f"pass {i}{' traced' if p['traced'] else ''}: {times}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
