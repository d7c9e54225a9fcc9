"""Per-layer tracing of fbvar from outside the package.

`Tracer.install()` wraps every public function and public method of the
layer modules, and rebinds each name wherever a module of the package
holds it (modules that did `from .spectral import mode_values` keep a
reference of their own).  A wrapped call is a span; a layer's self time
is the duration of its spans minus the part covered by nested wrapped
calls.  Work counts are taken at the same boundaries from the call's
arguments or result, so they describe what the caller asked a layer to
do, whatever the layer does inside.
"""

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

from oracles import turning_counts

LAYERS = ("bessel", "grid", "spectral", "semigroups", "variation",
          "kernel_bounds", "hardy", "cli")

# Inclusive time of these functions is reported as its own metric.
TIMED = {
    "bessel.zero_table": "bessel.zero_table_s",
    "spectral.SpectralBasis.matrix": "spectral.matrix_s",
    "semigroups.apply_family": "semigroups.apply_family_s",
    "variation.rho_variation_values": "variation.rho_variation_values_s",
}

CALLS = {
    "bessel.ZeroTable.residuals": "bessel.residuals_calls",
    "spectral.SpectralBasis.matrix": "spectral.matrix_calls",
    "hardy.make_atom": "hardy.atoms",
}

# Functions whose argument is one sequence (1) or a [times, ...] stack of
# sequences, counted once at the outermost variation-layer call.
SEQUENCE_ARG = {
    "variation.rho_variation": "samples",
    "variation.rho_variation_values": "values",
    "variation.total_variation": "values",
    "variation.oscillation": "samples",
    "variation.oscillation_values": "values",
    "variation.jump_count": "samples",
    "variation.jump_count_values": "values",
    "variation.short_variation": "samples",
    "variation.short_variation_values": "values",
    "variation.variation_field": "samples",
}

BOUND_CHECKS = ("kernel_bounds.size_bound_check",
                "kernel_bounds.regularity_bound_check",
                "kernel_bounds.s_nu_bound_check")

# Every per-layer metric a traced pass reports, 0 where the layer is not called.
METRICS = (
    "bessel.self_s", "bessel.calls", "bessel.points", "bessel.points_series",
    "bessel.points_midrange", "bessel.points_hankel", "bessel.zero_table_s",
    "bessel.residuals_calls",
    "grid.self_s", "grid.nodes",
    "spectral.self_s", "spectral.matrix_s", "spectral.matrix_calls",
    "spectral.table_entries",
    "semigroups.self_s", "semigroups.apply_family_s",
    "variation.self_s", "variation.rho_variation_values_s", "variation.columns",
    "variation.samples", "variation.turning_points",
    "kernel_bounds.self_s", "kernel_bounds.pairs",
    "hardy.self_s", "hardy.atoms",
    "cli.self_s",
)

_SERIES_CUT = 10.0
_HANKEL_CUT = 16.0


def off_diagonal_pairs(mesh_size, exclusion=0.02):
    """Number of mesh pairs a bound check sweeps: midpoints (i + 1/2)/m with
    |x - y| >= max(exclusion, 1/(2m)), the band documented in kernel_bounds."""
    pts = (np.arange(int(mesh_size)) + 0.5) / int(mesh_size)
    gap = np.abs(pts[:, None] - pts[None, :])
    return int(np.count_nonzero(gap >= max(exclusion, 0.5 / mesh_size)))


class Tracer:
    def __init__(self):
        self.stack = []             # child time covered inside each open span
        self.depth = Counter()      # open spans per qualified name and layer
        self.calls = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.counts = Counter()
        self.paused = 0.0           # time spent counting, kept out of spans

    # -- spans -------------------------------------------------------------

    def wrap(self, layer, qualname, fn):
        sig = inspect.signature(fn)
        count = self._counter(qualname)

        @wraps(fn)
        def span(*args, **kwargs):
            self.stack.append(0.0)
            self.depth[qualname] += 1
            self.depth[layer] += 1
            paused = self.paused
            t0 = time.perf_counter()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(bound.arguments, result)
                return result
            finally:
                t2 = time.perf_counter()
                t1 = t2 if t1 is None else t1
                # Counting, here and in nested spans, is left out of every span.
                dur = (t1 - t0) - (self.paused - paused)
                self.paused += t2 - t1
                child = self.stack.pop()
                if self.stack:
                    self.stack[-1] += dur
                self.depth[qualname] -= 1
                self.depth[layer] -= 1
                self.calls[qualname] += 1
                self.self_s[qualname] += dur - child
                self.layer_self_s[layer] += dur - child
                if not self.depth[qualname]:
                    self.incl_s[qualname] += dur

        return span

    # -- work counts -------------------------------------------------------

    def _counter(self, qualname):
        if qualname in ("bessel.bessel_j", "bessel.bessel_j_over_power"):
            return self._count_bessel
        if qualname == "spectral.eigenfunction":
            return self._count_eigenfunction
        if qualname == "spectral.mode_values":
            return self._count_mode_values
        if qualname == "grid.grid_from_edges":
            return self._count_grid
        if qualname in SEQUENCE_ARG:
            name = SEQUENCE_ARG[qualname]
            return lambda a, r: self._count_sequences(a[name])
        if qualname in BOUND_CHECKS:
            return lambda a, r: self._add("kernel_bounds.pairs",
                                          off_diagonal_pairs(a["mesh_size"]))
        return None

    def _add(self, key, n):
        self.counts[key] += int(n)

    def _count_bessel(self, args, result):
        if self.depth["bessel.bessel_j"] + self.depth["bessel.bessel_j_over_power"] > 1:
            return
        z = np.asarray(args["z"], dtype=float).ravel()
        nu = float(args["order"])
        series = int(np.count_nonzero(z < _SERIES_CUT))
        hankel = int(np.count_nonzero(z >= max(_HANKEL_CUT, 2.0 * nu * nu)))
        self._add("bessel.calls", 1)
        self._add("bessel.points", z.size)
        self._add("bessel.points_series", series)
        self._add("bessel.points_hankel", hankel)
        self._add("bessel.points_midrange", z.size - series - hankel)

    def _count_eigenfunction(self, args, result):
        if not self.depth["spectral.mode_values"]:
            self._add("spectral.table_entries", np.size(args["x"]))

    def _count_mode_values(self, args, result):
        if self.depth["spectral.mode_values"] == 1:
            self._add("spectral.table_entries",
                      args["basis"].n_modes * np.size(args["x"]))

    def _count_grid(self, args, result):
        self._add("grid.nodes", result.size)

    def _count_sequences(self, seq):
        if self.depth["variation"] > 1:
            return
        values = getattr(seq, "values", seq)
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        turns = turning_counts(v)
        self._add("variation.columns", turns.size)
        self._add("variation.samples", v.size)
        self._add("variation.turning_points", turns.sum())

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layers of the imported fbvar package in place."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fbvar.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(layer, f"{layer}.{name}", obj)
                    originals[obj] = wrapped
                    setattr(mod, name, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "fbvar" and not modname.startswith("fbvar."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, name, originals[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in originals:
                            obj[key] = originals[val]
        return self

    def _wrap_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, qualname, attr))
            elif isinstance(attr, classmethod):
                setattr(cls, name,
                        classmethod(self.wrap(layer, qualname, attr.__func__)))

    # -- results -----------------------------------------------------------

    def summary(self):
        metrics = {name: 0 for name in METRICS}
        metrics.update({f"{layer}.self_s": self.layer_self_s[layer] for layer in LAYERS})
        for qualname, key in TIMED.items():
            metrics[key] = self.incl_s[qualname]
        for qualname, key in CALLS.items():
            metrics[key] = self.calls[qualname]
        metrics.update(self.counts)
        names = {q: {"calls": self.calls[q], "incl_s": self.incl_s[q],
                     "self_s": self.self_s[q]} for q in sorted(self.calls)}
        return {"metrics": metrics, "names": names}


def consistent(summary, wall_s, slack=1e-6):
    """Self times never exceed their spans: per name self <= inclusive, and
    the layers' self times together fit in the operation's wall time."""
    if any(not -slack <= s["self_s"] <= s["incl_s"] + slack
           for s in summary["names"].values()):
        return False
    layers = sum(summary["metrics"][f"{layer}.self_s"] for layer in LAYERS)
    return layers <= wall_s + slack
