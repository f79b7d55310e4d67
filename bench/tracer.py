"""Outside-in tracing of cavitylab's public functions.

`Tracer.install` wraps each listed function and rebinds every module
attribute that refers to it, so calls made through names imported with
`from .x import y` are traced too.  Nothing under `src/` is edited.  Each
call becomes a span (name, start, end, parent, op id, extras) kept in
memory; `Tracer.dump` writes them out when the session ends.
`layer_metrics` turns the spans of one session into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import numbers
import os
import sys
import time

import numpy as np

LAYERS = {
    "fock": ["coherent_state", "cat_state", "mix", "promote", "displacement"],
    "dynamics": ["evolve", "evolve_trajectory", "cat_coherence", "fit_coherence_decay"],
    "protocol": ["probe_atom", "prepare_cat", "two_atom_scan", "ramsey_pulse",
                 "dispersive_shift", "opposite_phase_shift", "detect_atom"],
    "wigner": ["wigner_map", "wigner_point", "wigner_position", "marginal_distribution",
               "radon_of_map", "moyal_average", "moyal_grid_integral", "map_eval_dim"],
    "tomo": ["sample_homodyne", "inverse_radon", "reconstruct_from_samples",
             "exact_sinogram"],
    "direct": ["scan_map", "direct_point_exact", "direct_point_sampled",
               "monitor_origin", "variant_check"],
    "cli": ["run", "resolve_config", "ArtifactWriter.csv", "ArtifactWriter.json",
            "ArtifactWriter.finish"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
_WRITER_SPANS = ("cli.ArtifactWriter.csv", "cli.ArtifactWriter.json",
                 "cli.ArtifactWriter.finish")


def _digest(*parts) -> str:
    """Identity of a call's inputs; numbers hash by value, whatever their type."""
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.random.SeedSequence):
            part = (part.entropy, part.spawn_key)
        elif isinstance(part, numbers.Number):
            part = np.complex128(part)
        data = getattr(part, "matrix", part)
        if isinstance(data, (np.ndarray, np.generic)):
            h.update(np.ascontiguousarray(data).tobytes())
        else:
            h.update(repr(data).encode())
    return h.hexdigest()


def _grid_points(args):
    grid = args["grid"]
    return {"points": int(grid.n1 * grid.n2)}


def _written_bytes(args):
    writer = args["self"]
    name = args.get("name", "manifest.json")
    return {"bytes": os.path.getsize(os.path.join(writer.out_dir, name))}


# Extras recorded per call, from the bound arguments.  They feed the derived
# metrics: points delivered, promotion ratio, samples drawn, distinct inputs.
PROBES = {
    "wigner.wigner_map": _grid_points,
    "direct.scan_map": _grid_points,
    "fock.promote": lambda a: {"ratio": a["spec"].dim / a["obj"].dim},
    "dynamics.evolve_trajectory": lambda a: {
        "points": int(np.size(a["times"])),
        "key": _digest(a["rho"], a["model"], np.asarray(a["times"], dtype=float))},
    "protocol.prepare_cat": lambda a: {
        "key": _digest(a["alpha"], a.get("config"), a.get("spec"))},
    "tomo.sample_homodyne": lambda a: {
        "samples": int(a["n_samples"]),
        "key": _digest(a["theta"], a["seed"])},
    **{name: _written_bytes for name in _WRITER_SPANS},
}


class Tracer:
    """Span recorder; one per worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.installed: list[str] = []
        self.missing: list[str] = []
        self.probe_errors: dict[str, str] = {}

    def _wrap(self, name: str, fn, error_type):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span[5] = probe(bound)
                except Exception as exc:  # a changed signature must not break the run
                    self.probe_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every listed function of `package` that still exists."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        error_type = getattr(package, "CavityLabError", Exception)
        for layer, fns in LAYERS.items():
            module = sys.modules.get(f"{package.__name__}.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                owner, _, attr = fn_name.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, attr, None) if holder is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, error_type)
                if owner:
                    setattr(holder, attr, wrapper)
                else:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
                self.installed.append(name)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "installed": self.installed,
                       "missing": self.missing, "probe_errors": self.probe_errors}, fh)


# ---------------------------------------------------------------------------
# analysis (runs in run.py, not in the worker)


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover.

    The program is single-threaded, so children of one span are disjoint
    and nested inside it; their union is the sum of their durations.
    """
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced session; every name in SPAN_NAMES is
    reported, with 0 for functions that are missing or never called."""
    spans = trace["spans"]
    own = self_times(spans)
    calls = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    incl = {name: 0.0 for name in SPAN_NAMES}
    extras: dict[str, list[dict]] = {name: [] for name in SPAN_NAMES}
    layer_errors = {layer: 0 for layer in LAYERS}
    for k, (name, start, end, parent, _op, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[k]
        incl[name] += end - start
        if extra:
            extras[name].append(extra)
        if extra and "error" in extra:
            layer = name.split(".")[0]
            if parent < 0 or spans[parent][0].split(".")[0] != layer:
                layer_errors[layer] += 1

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        total = sum(self_s[n] for n in SPAN_NAMES if n.startswith(layer + "."))
        out[f"{layer}.self_s"] = total
        out[f"{layer}.share"] = total / wall_s
        out[f"{layer}.errors"] = layer_errors[layer]

    def total(name, key):
        return sum(e.get(key, 0) for e in extras[name])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def useful(name):
        keys = {e["key"] for e in extras[name] if "key" in e}
        return rate(len(keys), calls[name])

    points = total("dynamics.evolve_trajectory", "points")
    ratios = [e["ratio"] for e in extras["fock.promote"] if "ratio" in e]
    out.update({
        "wigner.map_points_per_s": rate(total("wigner.wigner_map", "points"),
                                        incl["wigner.wigner_map"]),
        "fock.promote.dim_ratio": max(ratios, default=1.0),
        "protocol.probe_atom.ms_per_call": rate(1e3 * incl["protocol.probe_atom"],
                                                calls["protocol.probe_atom"]),
        "direct.scan_map.points_per_s": rate(total("direct.scan_map", "points"),
                                             incl["direct.scan_map"]),
        "dynamics.evolve_trajectory.time_points": points,
        "dynamics.ms_per_time_point": rate(1e3 * incl["dynamics.evolve_trajectory"], points),
        "dynamics.evolve_trajectory.useful_ratio": useful("dynamics.evolve_trajectory"),
        "protocol.prepare_cat.useful_ratio": useful("protocol.prepare_cat"),
        "tomo.sample_homodyne.useful_ratio": useful("tomo.sample_homodyne"),
        "tomo.samples_per_s": rate(total("tomo.sample_homodyne", "samples"),
                                   incl["tomo.sample_homodyne"]),
        "cli.artifact_bytes": sum(total(n, "bytes") for n in _WRITER_SPANS),
        "cli.artifact_write_s": sum(incl[n] for n in _WRITER_SPANS),
        "trace.wall_s": wall_s,
        "trace.coverage": rate(sum(own), wall_s),
    })
    return out


def metric_units() -> dict[str, str]:
    """Every per-layer metric the benchmark reports, with its unit; run.py
    adds `trace.overhead_s` to what `layer_metrics` returns."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.share": "1",
                      f"{layer}.errors": "count"})
    units.update({
        "wigner.map_points_per_s": "1/s",
        "fock.promote.dim_ratio": "1",
        "protocol.probe_atom.ms_per_call": "ms",
        "direct.scan_map.points_per_s": "1/s",
        "dynamics.evolve_trajectory.time_points": "count",
        "dynamics.ms_per_time_point": "ms",
        "dynamics.evolve_trajectory.useful_ratio": "1",
        "protocol.prepare_cat.useful_ratio": "1",
        "tomo.sample_homodyne.useful_ratio": "1",
        "tomo.samples_per_s": "1/s",
        "cli.artifact_bytes": "B",
        "cli.artifact_write_s": "s",
        "trace.wall_s": "s",
        "trace.coverage": "1",
        "trace.overhead_s": "s",
    })
    return units
