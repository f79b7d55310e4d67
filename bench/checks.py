"""Output checks: every artifact of a session against closed-form values.

Each check reads what the CLI wrote and compares it with `oracle`.  A gap
between an exact output (map values, Born probabilities, the W(0) series)
and its closed form is recorded under a name with its tolerance; the
largest gap is the session's `oracle_max_err`.  Structural checks (exit
codes, bounds, histogram totals, manifest checksums) are pass/fail.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import oracle

# Tolerances sit well above the gaps measured at the baseline commit (about
# 1e-9 for maps of states that the truncation holds exactly, 1e-7 for the
# RK45-damped cat at dim 26) and far below any physical effect.
MAP_TOL = 1e-5
PROB_TOL = 1e-7
BOUND_TOL = 1e-8
TRACE_TOL = 1e-9
SAMPLED_SIGMAS = 5.0


class Report:
    """Gaps and failures collected over the checks of one session."""

    def __init__(self):
        self.gaps: dict[str, float] = {}
        self.failures: list[str] = []
        self.recon_rmse: float | None = None

    def gap(self, name: str, value: float, tol: float) -> None:
        value = float(value)
        self.gaps[name] = max(self.gaps.get(name, 0.0), value)
        if not value <= tol:  # also catches NaN
            self.failures.append(f"{name}: gap {value:.3e} exceeds {tol:.1e}")

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def max_gap(self) -> float:
        return max(self.gaps.values(), default=0.0)


def _table(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def check_manifest(out_dir: str, report: Report) -> None:
    """Every artifact is listed in the manifest with its SHA-256, and vice versa."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        listed = json.load(fh)["artifacts"]
    written = sorted(f for f in os.listdir(out_dir)
                     if f != "manifest.json" and not f.startswith("."))
    report.require(f"{out_dir}: manifest lists the artifacts", sorted(listed) == written,
                   f"manifest {sorted(listed)} vs files {written}")
    for name, digest in listed.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        report.require(f"{out_dir}/{name}: checksum", actual == digest)


def map_values(out_dir: str, name: str):
    """(q1, alpha, W) columns of a map artifact."""
    data = _table(os.path.join(out_dir, f"{name}.csv"))
    return data[:, 0], oracle.alpha_from_quadratures(data[:, 0], data[:, 1]), data[:, 2]


def check_map(out_dir: str, name: str, w_closed, report: Report,
              reflect: bool = False) -> None:
    """A map matches its closed form; `reflect` compares with W(-alpha)."""
    _, alpha, w = map_values(out_dir, name)
    report.require(f"{name}: |W| <= 2", float(np.max(np.abs(w))) <= 2.0 + BOUND_TOL,
                   f"max |W| = {np.max(np.abs(w))}")
    exact = w_closed(-alpha if reflect else alpha)
    report.gap(f"{name} vs closed form", np.max(np.abs(w - exact)), MAP_TOL)


def check_selfcheck(out_dir: str, report: Report) -> None:
    with open(os.path.join(out_dir, "selfcheck.json")) as fh:
        payload = json.load(fh)
    failed = [c["name"] for c in payload["checks"] if not c["ok"]]
    report.require("selfcheck passed", payload["passed"] and not failed, f"failed {failed}")


def check_prepare_cat(out_dir: str, alpha: complex, report: Report) -> None:
    rows = {}
    with open(os.path.join(out_dir, "prepare_cat.csv")) as fh:
        next(fh)
        for line in fh:
            outcome, prob, _fidelity = line.strip().split(",")
            rows[outcome] = float(prob)
    exact = oracle.prepare_cat_probabilities(alpha)
    report.require("prepare-cat branches", sorted(rows) == ["e", "g"], f"got {sorted(rows)}")
    for outcome, p in exact.items():
        report.gap(f"prepare-cat P({outcome})", abs(rows.get(outcome, np.nan) - p), PROB_TOL)


def check_decoherence_scan(out_dir: str, alpha: complex, kappa: float, n_thermal: float,
                           report: Report) -> None:
    scan = _table(os.path.join(out_dir, "decoherence_scan.csv"))
    delays, p_ee, p_gg = scan[:, 0], scan[:, 1], scan[:, 2]
    probs = scan[:, 1:]
    report.require("decoherence-scan probabilities in [0, 1]",
                   bool(np.all((probs >= -PROB_TOL) & (probs <= 1.0 + PROB_TOL))))
    if n_thermal == 0.0:
        report.gap("P(e2|e1) vs damped odd-cat parity",
                   np.max(np.abs(p_ee - oracle.p_e2_given_e1(alpha, kappa, delays))), PROB_TOL)
        report.gap("P(g2|g1) vs damped even-cat parity",
                   np.max(np.abs(p_gg - oracle.p_g2_given_g1(alpha, kappa, delays))), PROB_TOL)
    traj = _table(os.path.join(out_dir, "trajectory.csv"))
    report.require("trajectory rows match delays", traj.shape[0] == delays.size)
    report.require("trajectory trace error", float(np.max(traj[:, 3])) < TRACE_TOL,
                   f"max {np.max(traj[:, 3]):.3e}")


def check_direct_monitor(out_dir: str, alpha: complex, psi1: float, kappa: float,
                         report: Report) -> None:
    data = _table(os.path.join(out_dir, "direct_monitor.csv"))
    t, exact, sampled, stderr = data.T
    report.gap("W0_exact vs damped-cat parity",
               np.max(np.abs(exact - oracle.damped_cat_w0(alpha, psi1, kappa, t))), PROB_TOL)
    dev = np.abs(sampled - exact) / stderr
    report.require("W0_sampled within 5 stderr", bool(np.all(dev <= SAMPLED_SIGMAS)),
                   f"worst {np.max(dev):.2f} stderr")


def check_tomography(out_dir: str, w_closed, n_angles: int, n_samples: int,
                     report: Report) -> None:
    with open(os.path.join(out_dir, "sinogram_meta.json")) as fh:
        meta = json.load(fh)
    sino = _table(os.path.join(out_dir, "sinogram.csv"))
    thetas = np.unique(sino[:, 0])
    report.require("sinogram angle count", thetas.size == n_angles, f"{thetas.size}")
    counts = sino[:, 2] * meta["bin_width"] * n_samples
    report.require("sinogram densities are whole counts",
                   bool(np.all(np.abs(counts - np.round(counts)) < 1e-6)))
    totals = np.array([np.round(counts[sino[:, 0] == th]).sum() for th in thetas])
    report.require("histogram totals equal the sample count",
                   bool(np.all(totals == n_samples)), f"totals {np.unique(totals)}")

    q1, alpha, recon = map_values(out_dir, "reconstruction")
    truth = w_closed(alpha)
    rmse = float(np.sqrt(np.mean((recon - truth) ** 2)))
    report.recon_rmse = rmse
    with open(os.path.join(out_dir, "reconstruction_report.json")) as fh:
        rep = json.load(fh)
    # The truth map itself is not an artifact; two of its exact functionals are.
    # The program's rmse (against its truth map) differs from the closed-form
    # rmse by at most the truth map's own error.
    strip = truth[np.abs(q1) <= 0.5]
    report.gap("truth-map fringe contrast vs closed form",
               abs(rep["fringe_contrast_true"] - (strip.max() - strip.min())), MAP_TOL)
    report.gap("truth-map rmse vs closed form", abs(rep["rmse"] - rmse), MAP_TOL)
