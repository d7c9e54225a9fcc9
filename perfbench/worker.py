"""Run one benchmark operation in this fresh interpreter and time it.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the operation, its output directory, the file the result
goes to and whether to trace.  The result records how long importing the
package took (`setup_s`), how long the operation took from just after
that import until it returned (`op_s`), the process's peak resident
memory, the exit code and, when traced, the per-layer summary.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

t_start = time.perf_counter()
import fbvar.cli  # noqa: E402  (the import is what setup_s measures)
setup_s = time.perf_counter() - t_start

import numpy as np  # noqa: E402  (already imported by fbvar)


def _lib_call(spec):
    """Load the generated inputs, then return the timed call and a saver."""
    from fbvar import variation
    inp = Path(spec["inputs"])
    values = np.load(inp / "samples.npy")
    times = np.load(inp / "times.npy")
    edges = np.load(inp / "edges.npy")
    chains = np.load(inp / "witness_samples.npy")
    params = json.loads((inp / "params.json").read_text())
    rho, lam = params["rho"], params["lam"]
    func = spec["call"]
    call = {
        "rho_variation_values": lambda: variation.rho_variation_values(values, rho),
        "short_variation_values": lambda: variation.short_variation_values(times, values),
        "jump_count_values": lambda: variation.jump_count_values(values, lam),
        "oscillation_values": lambda: variation.oscillation_values(
            values, variation.BracketSpec.from_times(edges, times)),
        "rho_variation": lambda: [variation.rho_variation(chains[:, k], rho)
                                  for k in range(chains.shape[1])],
    }[func]

    def save(result, out):
        if func == "rho_variation":
            np.save(out / "values.npy", np.array([r.value for r in result]))
            (out / "witness.json").write_text(
                json.dumps([[int(i) for i in r.witness] for r in result]) + "\n")
        else:
            np.save(out / "values.npy", np.asarray(result))
        return 0

    return call, save


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "cli":
        argv = spec["argv"] + ["--out", str(out)]
        call, save = (lambda: fbvar.cli.main(argv)), (lambda rc, _: rc)
    else:
        call, save = _lib_call(spec)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()
    error = None
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:  # the operation's failure is reported, not raised
        error = traceback.format_exc()
    op_s = time.perf_counter() - t0
    rc = 1 if error else save(result, out)
    record = {
        "setup_s": setup_s,
        "op_s": op_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rc": rc,
        "error": error,
        "trace": tracer.summary() if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(record) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
