"""Spans around waveqed's public functions, recorded from outside the program.

A traced run replaces each public function of the package by a wrapper,
in every waveqed module that holds a reference to it, so a call is seen
at the module boundary it crosses.  Spans (name, start, end, parent,
operation) live in flat arrays while the run lasts and are written out
once at the end.  Nothing here changes what the functions compute.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: public functions wrapped per module; the span is named "<layer>.<name>",
#: with the layer "stable" standing for the module _stable
FUNCTIONS = {
    "core": ("phase_factors", "collective_rates"),
    "_stable": ("jint", "jint_dz", "jint_dw", "phi_k", "mint", "dexp"),
    "transition_operator": (
        "population_elements", "coherence_elements", "closed_form_state", "ode_rhs",
    ),
    "observables": ("emission_rate", "transition_probability", "radiated_energy"),
    "spectra": ("spectral_density", "photon_number", "peak_analysis", "detunings"),
    "oracle": (
        "integrate_transition_odes", "quadrature_rates", "quadrature_spectrum",
        "correlation_function", "_kernel_tables",
    ),
    "cli": ("main",),
}
#: methods of the transition-operator state object, which the oracle
#: calls once per grid point
METHODS = ("element_matrices", "to_vector", "from_vector")


class Tracer:
    """Span store and wrapper factory for one traced run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self.op = -1
        self.counts: dict = {}

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        """Name of the innermost open span of the calling thread."""
        stack = self._stack()
        return self.names[self._name[stack[-1]]] if stack else None

    def wrap(self, name: str, fn, after=None):
        """fn with a span around every call; after(out, args) runs on return."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self._name)
                self._name.append(nid)
                self._start.append(0.0)
                self._end.append(0.0)
                self._parent.append(stack[-1] if stack else -1)
                self._op.append(self.op)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._start[idx] = t0
                self._end[idx] = t1
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target in each waveqed module that refers to it."""
        import waveqed.cli  # noqa: F401  (so its references are patched too)
        from waveqed import oracle, transition_operator

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "waveqed"]
        hooks = {
            ("oracle", "integrate_transition_odes"): self._grid_hook,
            ("oracle", "_kernel_tables"): self._table_hook(oracle),
        }
        swaps = {}
        for module, names in FUNCTIONS.items():
            mod = sys.modules[f"waveqed.{module}"]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    hook = hooks.get((module, name))
                    swaps[id(fn)] = self.wrap(f"{module.lstrip('_')}.{name}", fn, hook)
        swaps[id(oracle.solve_ivp)] = self.wrap(
            "scipy.solve_ivp", oracle.solve_ivp,
            lambda out, _a: self.count("oracle.solve_ivp.nfev", out.nfev),
        )
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps:
                    setattr(mod, attr, swaps[id(value)])
        cls = transition_operator.TransitionOperatorState
        for name in METHODS:
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(
                    self.wrap(f"transition_operator.{name}", raw.__func__)))
            else:
                setattr(cls, name, self.wrap(f"transition_operator.{name}", raw))

    def _grid_hook(self, out, args) -> None:
        # time points the oracle integrates for its own quadrature grid;
        # the benchmark's direct ODE check has no oracle span above it
        parent = self.parent_name()
        if parent is not None and parent.startswith("oracle."):
            self.count("oracle.grid_points", len(out))

    def _table_hook(self, oracle):
        tables = getattr(oracle, "_kernel_tables", None)
        state = {"misses": 0}

        def hook(out, _args) -> None:
            misses = tables.cache_info().misses
            if misses > state["misses"]:
                self.count("oracle.table_bytes", sum(a.nbytes for a in out))
            state["misses"] = misses

        return hook

    # -- aggregation ---------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self._start, dtype=float).copy(),
            "end": np.frombuffer(self._end, dtype=float).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        """Write all spans (times relative to the first) as one .npz file."""
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=a["name"],
                 start=a["start"] - t0, end=a["end"] - t0,
                 parent=a["parent"], op=a["op"])

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation counts and times of every layer, from the spans."""
        a = self.arrays()
        span_names = np.array(self.names + [""])[a["name"]]
        layers = np.array([n.split(".")[0] for n in self.names + [""]])[a["name"]]
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        parent_layer = np.where(has_parent, layers[np.maximum(a["parent"], 0)], "")

        def calls(name):
            return np.count_nonzero(span_names == name) / n_ops

        def ms(mask):
            return 1e3 * float(dur[mask].sum()) / n_ops

        def self_ms(layer):
            mask = layers == layer
            return 1e3 * float((dur[mask] - child[mask]).sum()) / n_ops

        out = {
            "core.phase_factors.calls": calls("core.phase_factors"),
            "core.collective_rates.calls": calls("core.collective_rates"),
        }
        for name in ("jint", "jint_dz", "jint_dw", "phi_k", "mint", "dexp"):
            out[f"stable.{name}.calls"] = calls(f"stable.{name}")
        out["stable.time_ms"] = ms((layers == "stable") & (parent_layer != "stable"))
        for name in ("population_elements", "coherence_elements", "element_matrices"):
            out[f"transition_operator.{name}.calls"] = calls(f"transition_operator.{name}")
        out["transition_operator.self_ms"] = self_ms("transition_operator")
        out["transition_operator.element_matrices_ms"] = ms(
            span_names == "transition_operator.element_matrices")
        out["observables.emission_rate.calls"] = calls("observables.emission_rate")
        out["observables.self_ms"] = self_ms("observables")
        out["spectra.spectral_density.calls"] = calls("spectra.spectral_density")
        out["spectra.photon_number.calls"] = calls("spectra.photon_number")
        out["spectra.self_ms"] = self_ms("spectra")
        out["spectra.peak_analysis_ms"] = ms(span_names == "spectra.peak_analysis")
        out["oracle.grid_points"] = self.counts.get("oracle.grid_points", 0) / n_ops
        out["oracle.solve_ivp.nfev"] = self.counts.get("oracle.solve_ivp.nfev", 0) / n_ops
        out["oracle.solve_ivp_ms"] = ms(span_names == "scipy.solve_ivp")
        out["oracle.table_mb"] = self.counts.get("oracle.table_bytes", 0) / 1e6 / n_ops
        out["oracle.self_ms"] = self_ms("oracle")
        main = span_names == "cli.main"
        compute = _union_seconds(a, main)
        out["cli.compute_ms"] = 1e3 * compute / n_ops
        out["cli.format_write_ms"] = ms(main) - 1e3 * compute / n_ops
        out["cli.bytes_out"] = self.counts.get("cli.bytes_out", 0) / n_ops
        return out


def _union_seconds(a: dict, main) -> float:
    """Wall time covered by the program spans directly under cli.main.

    The sweep subcommand computes in worker threads, whose spans have no
    parent and overlap in time, so intervals are merged, not summed.
    """
    roots = ~main & ((a["parent"] < 0) | np.isin(a["parent"], np.flatnonzero(main)))
    total = 0.0
    for op in np.unique(a["op"][main]):
        sel = roots & (a["op"] == op)
        end = -np.inf
        for s, e in sorted(zip(a["start"][sel], a["end"][sel])):
            if e > end:
                total += e - max(s, end)
                end = e
    return total
