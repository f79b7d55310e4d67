"""Workload definitions: CLI sessions, their output checks and traced entry points.

A session is an ordered list of CLI experiments run by one client in one
fresh interpreter; each experiment starts when the previous one returned.
The sizes are the README figure configs shrunk (coarser grids, fewer
angles, samples and probes) so that several sessions fit in one run, with
each workload's dominant layer unchanged:

* figure-map   -- wigner (map kernel and promotion; selfcheck's small maps
                  and Moyal integral).  Protocol, direct and sampling idle.
* direct-scan  -- protocol + direct (one full atom probe per grid point,
                  dispersive and opposite-shift readouts).  Map kernel idle.
* tomography   -- tomo sampling + wigner.marginal_distribution; one truth
                  map and filtered back-projection.  Dynamics idle.
* decoherence  -- dynamics (RK45 damping trajectories, one thermal scan that
                  keeps the n_thermal > 0 path busy); no map is drawn.

Only `tomography` and `direct-monitor` take the workload seed; the other
experiments are deterministic and their configs do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks
import oracle

SQRT5 = float(np.sqrt(5.0))


@dataclass(frozen=True)
class Op:
    label: str
    experiment: str
    config: dict | None
    check: Callable[[str, checks.Report], None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], list[Op]]
    # Functions every session of the workload must enter when they exist;
    # a traced run that never enters one has lost its wrapper.
    expect: tuple[str, ...]


_CLI = ("cli.run", "cli.resolve_config", "cli.ArtifactWriter.finish")


def _figure_map(seed: int) -> list[Op]:
    damped = {"kind": "damped-cat", "alpha": 2.0, "psi1": 0.0, "t": 0.1, "kappa": 1.0}
    return [
        Op("cat-map", "wigner-map",
           {"state": {"kind": "cat", "alpha": 3.0, "psi1": 0.0},
            "grid": {"span": 8.0, "step": 0.3}},
           partial(checks.check_map, name="wigner_map",
                   w_closed=partial(oracle.wigner_cat, beta=3.0, psi1=0.0))),
        Op("damped-cat-map", "wigner-map", {"state": damped, "grid": {"step": 0.15}},
           partial(checks.check_map, name="wigner_map",
                   w_closed=partial(oracle.wigner_damped_cat, beta=2.0, psi1=0.0,
                                    kappa=1.0, t=0.1))),
        Op("selfcheck", "selfcheck", None, checks.check_selfcheck),
    ]


def _direct_scan(seed: int) -> list[Op]:
    even_cat = {"kind": "cat", "alpha": 2.0, "psi1": 0.0}
    w_minus = partial(checks.check_map, name="direct_map", reflect=True,
                      w_closed=partial(oracle.wigner_cat, beta=2.0, psi1=0.0))
    return [
        Op("prepare-cat", "prepare-cat", {"alpha": 3.0},
           partial(checks.check_prepare_cat, alpha=3.0)),
        Op("direct-dispersive", "direct-map",
           {"state": even_cat, "grid": {"span": 5.0, "step": 0.625}}, w_minus),
        Op("direct-opposite", "direct-map",
           {"state": even_cat, "grid": {"span": 5.0, "step": 1.25},
            "variant": "opposite-shift"}, w_minus),
    ]


def _tomography(seed: int) -> list[Op]:
    angles, samples = 36, 50_000
    return [
        Op("tomography", "tomography",
           {"state": {"kind": "cat", "alpha": 2.0, "psi1": 0.0}, "grid": {"step": 0.2},
            "angles": angles, "samples": samples, "seed": seed},
           partial(checks.check_tomography, n_angles=angles, n_samples=samples,
                   w_closed=partial(oracle.wigner_cat, beta=2.0, psi1=0.0))),
    ]


def _decoherence(seed: int) -> list[Op]:
    def scan(alpha, steps, n_thermal=0.0):
        return ({"alpha": alpha, "kappa": 1.0, "n_thermal": n_thermal,
                 "delays": {"t_start": 0.0, "t_end": 8.0, "steps": steps}},
                partial(checks.check_decoherence_scan, alpha=alpha, kappa=1.0,
                        n_thermal=n_thermal))
    return [
        Op("scan-readme", "decoherence-scan", *scan(SQRT5, 81)),
        Op("scan-alpha3", "decoherence-scan", *scan(3.0, 161)),
        Op("scan-thermal", "decoherence-scan", *scan(SQRT5, 81, n_thermal=0.05)),
        Op("monitor", "direct-monitor",
           {"state": {"kind": "cat", "alpha": 2.0, "psi1": 0.0}, "kappa": 1.0,
            "times": {"t_start": 0.0, "t_end": 2.0, "steps": 81},
            "n_shots": 2000, "efficiency": 0.8, "seed": seed},
           partial(checks.check_direct_monitor, alpha=2.0, psi1=0.0, kappa=1.0)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("figure-map", _figure_map, _CLI + ("wigner.wigner_map", "dynamics.evolve")),
    Workload("direct-scan", _direct_scan, _CLI + ("protocol.prepare_cat", "direct.scan_map")),
    Workload("tomography", _tomography,
             _CLI + ("tomo.reconstruct_from_samples", "tomo.sample_homodyne",
                     "tomo.inverse_radon", "wigner.wigner_map",
                     "wigner.marginal_distribution")),
    Workload("decoherence", _decoherence,
             _CLI + ("protocol.two_atom_scan", "dynamics.evolve_trajectory",
                     "direct.monitor_origin")),
)}


def _unchecked(out_dir: str, report: checks.Report) -> None:
    """Warm-up outputs are discarded unread."""


def warmup_ops() -> list[Op]:
    """A small session over every experiment kind, run once per benchmark
    run and discarded: it loads every module and shared library the
    workloads touch, so the measured sessions start with a full page cache."""
    cat = {"kind": "cat", "alpha": 1.0, "psi1": 0.0}
    return [
        Op("warm-prepare", "prepare-cat", {"alpha": 1.0}, _unchecked),
        Op("warm-map", "wigner-map",
           {"state": {"kind": "damped-cat", "alpha": 1.0, "t": 0.1},
            "grid": {"span": 2.0, "step": 0.5}}, _unchecked),
        Op("warm-direct", "direct-map",
           {"state": cat, "grid": {"span": 1.0, "step": 1.0}}, _unchecked),
        Op("warm-tomo", "tomography",
           {"state": cat, "grid": {"span": 2.0, "step": 0.5}, "angles": 8, "samples": 100},
           _unchecked),
        Op("warm-scan", "decoherence-scan",
           {"alpha": 1.0, "n_thermal": 0.05,
            "delays": {"t_start": 0.0, "t_end": 1.0, "steps": 3}}, _unchecked),
        Op("warm-monitor", "direct-monitor",
           {"state": cat, "times": {"t_start": 0.0, "t_end": 1.0, "steps": 3},
            "n_shots": 10}, _unchecked),
    ]
