"""Config-driven experiment runner.

Each experiment writes CSV/JSON artifacts plus a manifest (resolved config,
config hash, versions, artifact checksums) into the output directory.
Exit codes: 0 success, 1 invalid config, 2 numerical failure,
3 self-check failure.  Plotting is deliberately left to external tools.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import io
import json
import locale  # unused here, but argparse's gettext imports it on the first parse, inside a run
import os
import sys
import tempfile

import numpy as np

from . import __version__, direct, dynamics, fock, protocol, tomo, wigner
from .errors import MAX_COUNT, CavityLabError, ConfigError, DomainError, number

gc.freeze()  # keep the import-time objects out of the experiments' full collections

# ---------------------------------------------------------------------------
# config options: OPTIONS[experiment][key] = (check, default), where a default
# of `...` marks a required key.  A check raises ConfigError naming the value,
# or returns the value as the runners take it (an integral float as an int).


def _refuse(where: str, what: str) -> ConfigError:
    return ConfigError(f"invalid config: {what}" + (f" (key {where})" if where else ""))


def _number(**rule):
    """A config number, checked by the package's number rule (``errors.number``)."""
    def check(value, where):
        try:
            return number(value, f"key {where}", **rule)
        except DomainError as exc:
            raise ConfigError(f"invalid config: {exc}") from None
    return check


def _one_of(*values):
    def check(value, where):
        if value not in values:
            raise _refuse(where, f"{value!r} is not one of {list(values)!r}")
        return value
    return check


def _object(fields: dict, required=()):
    def check(value, where):
        if not isinstance(value, dict):
            raise _refuse(where, f"{value!r} is not of type 'object'")
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise _refuse(where, f"unexpected key {unknown[0]!r}")
        missing = [key for key in required if key not in value]
        if missing:
            raise _refuse(where, f"{missing[0]!r} is a required property")
        return {key: fields[key](item, f"{where}.{key}" if where else key)
                for key, item in value.items()}
    return check


def _list(item, n: int, exact=False):
    """An array of at least (or, if `exact`, exactly) n items."""
    def check(value, where):
        if not isinstance(value, list):
            raise _refuse(where, f"{value!r} is not of type 'array'")
        if len(value) < n or (exact and len(value) > n):
            raise _refuse(where, f"{value!r} needs {'exactly' if exact else 'at least'} "
                                 f"{n} items")
        return [item(x, f"{where}[{k}]") for k, x in enumerate(value)]
    return check


def _or_list(single, listed):
    """The `alpha` and `times` forms: `listed` checks an array, `single` the rest."""
    return lambda value, where: (listed if isinstance(value, list) else single)(value, where)


_NUMBER = _number()
_POSITIVE = _number(exclusive_minimum=0)
_ALPHA = _or_list(_NUMBER, _list(_NUMBER, 2, exact=True))
# the keys each state kind reads, with their defaults; `...` marks a required key
_READS = {"vacuum": {}, "fock": {"n": 1}, "coherent": {"alpha": ...},
          "cat": {"alpha": ..., "psi1": 0.0}, "mixture": {"alpha": ...},
          "damped-cat": {"alpha": ..., "psi1": 0.0, "t": 0.1, "kappa": 1.0}}
_STATE = _object({
    "kind": _one_of(*_READS),
    "n": _number(integral=True, minimum=0), "alpha": _ALPHA, "psi1": _NUMBER,
    "t": _number(minimum=0), "kappa": _POSITIVE,
}, required=["kind"])
_EXTENTS = {
    "q1_min": _NUMBER, "q1_max": _NUMBER, "q2_min": _NUMBER, "q2_max": _NUMBER,
    "n1": _number(integral=True, minimum=2), "n2": _number(integral=True, minimum=2),
}
_DEFAULT_GRID = _object({"span": _POSITIVE, "step": _POSITIVE})
_EXPLICIT_GRID = _object(_EXTENTS, list(_EXTENTS))
_TIMES = _or_list(
    _object({"t_start": _number(minimum=0), "t_end": _POSITIVE,
             "steps": _number(integral=True, minimum=1)},
            required=["t_start", "t_end", "steps"]),
    _list(_number(minimum=0), 1))


def _state(value, where):
    state = _STATE(value, where)
    unread = sorted(state.keys() - _READS[state["kind"]].keys() - {"kind"})
    if unread:
        raise _refuse(where, f"kind {state['kind']!r} does not read key {unread[0]!r}")
    if "alpha" in _READS[state["kind"]] and "alpha" not in state:
        raise _refuse(where, "'alpha' is a required property")
    return {**_READS[state["kind"]], **state}


def _grid(value, where):
    """All six extents, or the default grid with an optional `span` and `step`."""
    extents = sorted(value.keys() & _EXTENTS.keys()) if isinstance(value, dict) else []
    if extents and value.keys() & {"span", "step"}:
        raise _refuse(where, f"extents {extents} given beside span or step")
    return (_EXPLICIT_GRID if extents else _DEFAULT_GRID)(value, where)


def _forward_times(value, where):
    """`_TIMES` that the damping takes: t_end > t_start, or a list that never decreases."""
    times = _TIMES(value, where)
    if (times["t_end"] <= times["t_start"] if isinstance(times, dict)
            else any(b < a for a, b in zip(times, times[1:]))):
        raise _refuse(where, f"t_end must exceed t_start, a list must not decrease: {value!r}")
    return times


_SEED = _number(integral=True, minimum=0)
_DIM_NUMBER = _number(integral=True, minimum=2)
_DIM = (lambda value, where: None if value is None else _DIM_NUMBER(value, where), None)

OPTIONS = {
    "prepare-cat": {"alpha": (_ALPHA, ...), "dim": _DIM},
    "decoherence-scan": {"alpha": (_ALPHA, ...), "kappa": (_POSITIVE, 1.0),
                         "n_thermal": (_number(minimum=0), 0.0), "dim": _DIM,
                         "delays": (_forward_times, {"t_start": 0.0, "t_end": 8.0, "steps": 81})},
    "wigner-map": {"state": (_state, ...), "grid": (_grid, None), "dim": _DIM},
    "tomography": {"state": (_state, ...), "grid": (_grid, None),
                   "angles": (_number(integral=True, minimum=8,
                                      maximum=wigner.MAX_GRID_NODES), 36),
                   "samples": (_number(integral=True, minimum=1, maximum=MAX_COUNT),
                               100000),
                   "seed": (_SEED, 12345), "bin_width": (_POSITIVE, 0.05),
                   "q_range": (_POSITIVE, None), "dim": _DIM},
    "direct-map": {"state": (_state, ...), "grid": (_grid, None), "dim": _DIM,
                   "variant": (_one_of("dispersive", "opposite-shift"), "dispersive")},
    "direct-monitor": {"state": (_state, ...), "kappa": (_POSITIVE, 1.0),
                       "n_thermal": (_number(minimum=0), 0.0),
                       "times": (_forward_times, {"t_start": 0.0, "t_end": 2.0, "steps": 41}),
                       "n_shots": (_number(integral=True, minimum=0, maximum=MAX_COUNT), 0),
                       "efficiency": (_number(minimum=0, maximum=1), 1.0),
                       "seed": (_SEED, 0), "dim": _DIM},
    "pauli-demo": {"grid": (_grid, None)},
    "selfcheck": {},
}


def _parse_alpha(value) -> complex:
    return complex(*value) if isinstance(value, list) else complex(value)


def resolve_config(experiment: str, raw: dict) -> dict:
    """`raw` checked against the experiment's options, then their defaults merged in."""
    if experiment not in OPTIONS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {sorted(OPTIONS)}")
    options = OPTIONS[experiment]
    raw = _object({key: check for key, (check, _) in options.items()},
                  [key for key, (_, default) in options.items() if default is ...])(raw, "")
    return {**{key: default for key, (_, default) in options.items() if default is not ...},
            **raw}


def _spec(cfg: dict, scale: float) -> fock.HilbertSpec:
    """An experiment's `dim`, or by default a truncation that reaches the
    amplitude `scale` and allows for the thermal photons of its damping, if any."""
    return fock.HilbertSpec(cfg["dim"] or fock.default_dim(scale, cfg.get("n_thermal", 0.0)))


def _build_state(cfg: dict) -> tuple[fock.DensityOperator, float]:
    """Returns (density operator, phase-space amplitude scale for grid defaults)
    of an experiment's `state`, in the truncation of ``_spec``."""
    state_cfg = cfg["state"]
    kind = state_cfg["kind"]
    alpha = _parse_alpha(state_cfg.get("alpha", 0.0))  # vacuum and fock take none
    scale = float(np.sqrt(state_cfg["n"])) if kind == "fock" else abs(alpha)
    spec = _spec(cfg, scale)
    if kind == "vacuum":
        rho = fock.pure_to_density(fock.vacuum(spec))
    elif kind == "fock":
        n = state_cfg["n"]
        if n >= spec.dim:
            raise ConfigError(f"fock state n = {n} needs dim > {n}, got dim {spec.dim}")
        rho = fock.pure_to_density(fock.fock_state(spec, n))
    elif kind == "coherent":
        rho = fock.pure_to_density(fock.coherent_state(spec, alpha))
    elif kind == "cat":
        rho = fock.pure_to_density(fock.cat_state(spec, alpha, state_cfg["psi1"]))
    elif kind == "mixture":
        rho = fock.mix([fock.coherent_state(spec, alpha),
                        fock.coherent_state(spec, -alpha)], [0.5, 0.5])
    else:  # damped-cat
        pure = fock.cat_state(spec, alpha, state_cfg["psi1"])
        model = dynamics.DampingModel(kappa=state_cfg["kappa"])
        rho = dynamics.evolve(fock.pure_to_density(pure), model, state_cfg["t"])
    return rho, scale


def _build_grid(grid_cfg, scale: float) -> wigner.PhaseSpaceGrid:
    """Explicit extents, or the default grid with an optional span and step."""
    grid_cfg = grid_cfg or {}
    if grid_cfg.keys() & _EXTENTS.keys():
        return wigner.PhaseSpaceGrid(**grid_cfg)
    step = {"step": grid_cfg["step"]} if "step" in grid_cfg else {}
    if "span" in grid_cfg:  # a span of pad units about the origin
        return wigner.default_grid(0.0, pad=grid_cfg["span"], **step)
    return wigner.default_grid(max(scale, 1.0), **step)


def _times_array(times_cfg) -> np.ndarray:
    """The times of a checked `_forward_times` option."""
    if isinstance(times_cfg, dict):
        return np.linspace(times_cfg["t_start"], times_cfg["t_end"], times_cfg["steps"])
    return np.asarray(times_cfg, dtype=float)


# ---------------------------------------------------------------------------
# artifact plumbing


def _g17(axis) -> list[str]:
    """Each value of a 1-D float array as ArtifactWriter.csv writes a float."""
    return ["%.17g" % x for x in np.asarray(axis, dtype=float).tolist()]


class ArtifactWriter:
    """Atomic CSV/JSON artifact writer with a closing manifest."""

    def __init__(self, out_dir: str, experiment: str, config: dict):
        self.out_dir = out_dir
        self.experiment = experiment
        self.config = config
        self.checksums: dict[str, str] = {}
        os.makedirs(out_dir, exist_ok=True)

    def _store(self, name: str, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, os.path.join(self.out_dir, name))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.checksums[name] = hashlib.sha256(payload).hexdigest()

    def csv(self, name: str, header: list[str], rows) -> None:
        """Floats (numpy's too) to 17 significant digits, so they round-trip;
        other cells as csv.writer writes them.  A 2-D float array is written
        by one format string per block of 256 rows, which keeps RSS flat.

        `rows` may also be the product form (a_axis, b_axis, values): one row
        (a_i, b_j, values[i, j]) per pair, a-major, the bytes the table
        np.column_stack([np.repeat(a_axis, nb), np.tile(b_axis, na),
        values.ravel()]) gives.  Each axis value is formatted once and spliced
        into the row format as literal text, so only `values` is formatted
        per row, again in blocks of at most 256 rows."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, tuple):
            a_axis, b_axis, values = rows
            values = np.reshape(values, (len(a_axis), len(b_axis)))
            tails = [f",{b},%.17g\n" for b in _g17(b_axis)]
            for a, row in zip(_g17(a_axis), values):
                for start in range(0, len(tails), 256):
                    line = a.join(["", *tails[start:start + 256]])
                    buf.write(line % tuple(row[start:start + 256].tolist()))
        elif isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), 256):
                block = rows[start:start + 256]
                buf.write(line * len(block) % tuple(block.ravel().tolist()))
        else:
            writer.writerows([f"{float(x):.17g}" if isinstance(x, (float, np.floating))
                              else x for x in row] for row in rows)
        self._store(name, buf.getvalue().encode())

    def json(self, name: str, payload: dict) -> None:
        self._store(name, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())

    def finish(self) -> None:
        canonical = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        manifest = {
            "experiment": self.experiment,
            "config": self.config,
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
            "versions": {
                "cavitylab": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "artifacts": dict(sorted(self.checksums.items())),
        }
        self._store("manifest.json",
                    (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _write_map(writer: ArtifactWriter, name: str, wmap: wigner.WignerMap) -> None:
    writer.csv(f"{name}.csv", ["q1", "q2", "W"],
               (wmap.grid.q1_axis, wmap.grid.q2_axis, wmap.values))
    writer.json(f"{name}.json", {
        "grid": dataclasses.asdict(wmap.grid),
        "convention": "alpha-normalized",
        "provenance": wmap.provenance,
        "diagnostics": wmap.diagnostics,
        "values_sha256": hashlib.sha256(
            np.ascontiguousarray(wmap.values).tobytes()).hexdigest(),
    })


# ---------------------------------------------------------------------------
# experiments


def _run_prepare_cat(cfg: dict, writer: ArtifactWriter) -> None:
    alpha = _parse_alpha(cfg["alpha"])
    spec = _spec(cfg, abs(alpha))
    branches = protocol.prepare_cat(alpha, spec)
    rows = []
    for outcome, psi1 in (("g", 0.0), ("e", float(np.pi))):
        br = branches[outcome]
        if br.field_after is None:
            rows.append([outcome, br.probability, float("nan")])
            continue
        ideal = fock.cat_state(spec, alpha, psi1)
        rows.append([outcome, br.probability, br.field_after.fidelity_pure(ideal)])
    writer.csv("prepare_cat.csv", ["outcome", "probability", "fidelity_to_ideal_cat"], rows)


def _run_decoherence_scan(cfg: dict, writer: ArtifactWriter) -> None:
    alpha = _parse_alpha(cfg["alpha"])
    model = dynamics.DampingModel(kappa=cfg["kappa"], n_thermal=cfg["n_thermal"])
    delays = _times_array(cfg["delays"])
    scan = protocol.two_atom_scan(alpha, delays, model, _spec(cfg, abs(alpha)))
    writer.csv("decoherence_scan.csv", ["delay", "P_e2_given_e1", "P_g2_given_g1"],
               np.column_stack([delays, scan["p_e2_given_e1"], scan["p_g2_given_g1"]]))
    # damping trajectory of the post-e1 conditional field
    coherence, mean_n, trace = dynamics.coherence_trajectory(scan["branches"]["e"].field(),
                                                             model, delays, alpha)
    writer.csv("trajectory.csv", ["t", "coherence", "mean_n", "trace_error"],
               np.column_stack([delays, coherence, mean_n, np.abs(trace - 1.0)]))


def _run_wigner_map(cfg: dict, writer: ArtifactWriter) -> None:
    rho, scale = _build_state(cfg)
    grid = _build_grid(cfg["grid"], scale)
    _write_map(writer, "wigner_map", wigner.wigner_map(rho, grid))


def _run_tomography(cfg: dict, writer: ArtifactWriter) -> None:
    rho, scale = _build_state(cfg)
    grid = _build_grid(cfg["grid"], scale)
    angles = tomo.uniform_angles(cfg["angles"])
    recon, report, sino, q_range = tomo.reconstruct_from_samples(
        rho, angles, cfg["samples"], cfg["seed"], grid, bin_width=cfg["bin_width"],
        q_range=cfg["q_range"])
    writer.csv("sinogram.csv", ["theta", "q", "density"], sino)
    writer.json("sinogram_meta.json", {
        "n_samples": cfg["samples"], "seed": cfg["seed"],
        "bin_width": cfg["bin_width"],
        "q_range": q_range, "angles": cfg["angles"],
    })
    _write_map(writer, "reconstruction", recon)
    writer.json("reconstruction_report.json", report)


def _run_direct_map(cfg: dict, writer: ArtifactWriter) -> None:
    rho, scale = _build_state(cfg)
    grid = _build_grid(cfg["grid"], scale)
    # both variants read parity with the same Born probabilities, so the
    # `variant` key is checked and recorded in the manifest but changes no value
    _write_map(writer, "direct_map", direct.scan_map(rho, grid))


def _run_direct_monitor(cfg: dict, writer: ArtifactWriter) -> None:
    rho, _ = _build_state(cfg)
    model = dynamics.DampingModel(kappa=cfg["kappa"], n_thermal=cfg["n_thermal"])
    times = _times_array(cfg["times"])
    w0 = direct.monitor_origin(rho, model, times, n_shots=cfg["n_shots"],
                               efficiency=cfg["efficiency"], seed=cfg["seed"])
    writer.csv("direct_monitor.csv", ["t", "W0_exact", "W0_sampled", "stderr"],
               np.column_stack([times, *w0]))


def _run_pauli_demo(cfg: dict, writer: ArtifactWriter) -> None:
    writer.json("pauli_demo.json", tomo.pauli_incompleteness_demo(_build_grid(cfg["grid"], 2.0)))


def _run_selfcheck(cfg: dict, writer: ArtifactWriter) -> int:
    checks = run_selfcheck()
    writer.json("selfcheck.json", {
        "passed": all(ok for _, ok, _ in checks),
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
    })
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 3


def run_selfcheck() -> list[tuple[str, bool, str]]:
    """Fast invariant battery over every module; returns (name, ok, detail)."""
    checks: list[tuple[str, bool, str]] = []
    spec = fock.HilbertSpec(26)
    cat = fock.pure_to_density(fock.cat_state(spec, 1.5, 0.0))
    one = fock.pure_to_density(fock.fock_state(spec, 1))

    # cross-construction equivalence
    dev = 0.0
    for q, p in ((0.0, 0.0), (0.7, -0.4), (-1.1, 0.9), (1.8, 1.2)):
        dev = max(dev, abs(wigner.wigner_point(cat, (q + 1j * p) / np.sqrt(2))
                           - wigner.wigner_position(cat, q, p)))
    checks.append(("cross-construction-equivalence", dev < 1e-6, f"max dev {dev:.2e}"))

    # direct-readout identity
    dev = 0.0
    alphas = np.array([0.0, 0.35 - 0.2j, -0.6 + 0.4j])
    for rho in (cat, one):
        p_e, p_g = direct.direct_point_exact(rho, alphas)
        dev = max(dev, float(np.max(np.abs(2.0 * (p_g - p_e)
                                           - wigner.wigner_point(rho, -alphas)))))
    checks.append(("direct-readout-identity", dev < 1e-8, f"max dev {dev:.2e}"))

    # one-photon values
    w_pt = wigner.wigner_point(one, 0.0)
    w_pos = wigner.wigner_position(one, 0.0, 0.0)
    mixed = fock.DensityOperator(np.diag([0.2, 0.8] + [0.0] * (spec.dim - 2)))
    w_res, w_mix = (2.0 * (b["g"].probability - b["e"].probability)
                    for b in (protocol.probe_atom(rho, "resonant-2pi") for rho in (one, mixed)))
    ok = (abs(w_pt + 2) < 1e-9 and abs(w_pos + 2) < 1e-9
          and abs(w_res + 2) < 1e-9 and abs(w_mix + 1.2) < 1e-9)
    checks.append(("one-photon-origin", ok,
                   f"point {w_pt:.12f}, integral {w_pos:.12f}, resonant {w_res:.12f}, "
                   f"mixed {w_mix:.12f}"))

    # bound and normalization
    record = wigner.wigner_map(cat, wigner.default_grid(1.5, step=0.1)).diagnostics
    peak, norm = record["max_abs"], record["normalization_sum"]
    checks.append(("bound-and-normalization",
                   peak <= wigner.BOUND + 1e-8 and abs(norm - 1.0) < 1e-3,
                   f"max|W| {peak:.6f}, sum {norm:.6f}"))

    # decoherence law at |alpha|^2 = 5
    model = dynamics.DampingModel(kappa=1.0)
    al = np.sqrt(5.0)
    odd = fock.pure_to_density(fock.cat_state(fock.HilbertSpec(30), al, np.pi))
    t_dec = dynamics.decoherence_time(model, 5.0)
    tau = dynamics.fit_coherence_decay(odd, model, al, 0.5 * t_dec)
    rel = abs(tau - t_dec) / t_dec
    checks.append(("decoherence-law", rel < 0.05, f"tau {tau:.5f} vs {t_dec:.5f} ({rel:.2%})"))

    # two-atom correlation endpoints
    scan = protocol.two_atom_scan(al, [0.0, 8.0], model, fock.HilbertSpec(fock.default_dim(al)))
    p0, p8 = scan["p_e2_given_e1"].tolist()
    checks.append(("two-atom-correlations", p0 > 1 - 1e-4 and p8 < 0.02,
                   f"P(0) {p0:.6f}, P(8/k) {p8:.6f}"))

    # marginal vs map line integral
    small = wigner.wigner_map(cat, wigner.default_grid(1.5, step=0.06))
    thetas = (0.0, np.pi / 4, np.pi / 2, 2.2)
    q, lines = wigner.radon_of_map(small, thetas)
    dev = float(np.max(np.abs(lines - wigner.marginal_distribution(cat, thetas, q))))
    checks.append(("radon-consistency", dev < 5e-3, f"max dev {dev:.2e}"))

    # marginals-only incompleteness
    rep = tomo.pauli_incompleteness_demo(wigner.default_grid(1.5, step=0.15))
    checks.append(("marginals-incomplete",
                   rep["marginals_only_incomplete"]
                   and rep["theta_45_marginal_dev"] > 0.01,
                   f"two-angle dev {rep['two_angle_sinogram_sup_dev']:.2e}, "
                   f"full dev {rep['full_reconstruction_sup_dev']:.3f}"))

    # symmetric-ordering consistency
    coh = fock.pure_to_density(fock.coherent_state(spec, 0.9))
    op_val, int_val = wigner.moyal_average(coh, (2, 1))
    gap = abs(op_val - int_val)
    checks.append(("moyal-consistency", gap < 1e-6, f"discrepancy {gap:.2e}"))

    # separation measure magnitude
    sep = dynamics.separation_measure(1e-2, 1e-3, 300.0)
    checks.append(("separation-measure", 1e39 <= sep <= 1e41, f"{sep:.3e}"))

    # seeded sampling determinism
    _, counts1 = tomo.sample_homodyne(cat, 0.3, 2000, 42)
    _, counts2 = tomo.sample_homodyne(cat, 0.3, 2000, 42)
    checks.append(("seed-determinism", bool(np.array_equal(counts1, counts2)),
                   "identical histograms"))
    return checks


RUNNERS = {
    "prepare-cat": _run_prepare_cat,
    "decoherence-scan": _run_decoherence_scan,
    "wigner-map": _run_wigner_map,
    "tomography": _run_tomography,
    "direct-map": _run_direct_map,
    "direct-monitor": _run_direct_monitor,
    "pauli-demo": _run_pauli_demo,
    "selfcheck": _run_selfcheck,
}


def run(experiment: str, config: dict, out_dir: str) -> int:
    cfg = resolve_config(experiment, config)
    writer = ArtifactWriter(out_dir, experiment, cfg)
    code = RUNNERS[experiment](cfg, writer) or 0  # only selfcheck returns a code
    writer.finish()
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cavitylab",
        description="Cavity-QED field-state experiments (CSV/JSON artifacts).",
    )
    parser.add_argument("experiment", metavar="experiment",
                        help=f"one of {', '.join(sorted(OPTIONS))}")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="artifacts", help="output directory")
    parser.add_argument("--seed", type=int,
                        help="override the sampling seed (tomography, direct-monitor)")
    parser.add_argument("--dim", type=int,
                        help="override the truncation dimension (not pauli-demo, selfcheck)")
    args = parser.parse_args(argv)

    try:
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
        if args.dim is not None:
            config["dim"] = args.dim
        return run(args.experiment, config, args.out)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CavityLabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
