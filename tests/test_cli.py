import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cavitylab
from cavitylab import cli, dynamics, fock, protocol, tomo, wigner
from cavitylab.errors import ConfigError


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[float(x) for x in row] for row in body]


def test_unknown_experiment_is_config_error(tmp_path):
    assert run_cli(["no-such-experiment", "--out", str(tmp_path)]) == 1


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"alpha": 1.0, "bogus": 3})
    assert run_cli(["prepare-cat", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]")
    assert run_cli(["prepare-cat", "--config", str(path),
                    "--out", str(tmp_path / "o")]) == 1


def test_numerical_failure_exit_code(tmp_path):
    # alpha far beyond what dim = 8 can carry -> truncation failure, exit 2;
    # the probe's angles are fixed, so phi and eta are unknown keys -> exit 1
    for k, (bad, code) in enumerate((({"alpha": 3.0, "dim": 8}, 2),
                                     ({"alpha": 1.5, "phi": float(np.pi / 2)}, 1),
                                     ({"alpha": 1.5, "eta": 0.3}, 1))):
        cfg = write_config(tmp_path, f"c{k}.json", bad)
        assert run_cli(["prepare-cat", "--config", cfg,
                        "--out", str(tmp_path / f"o{k}")]) == code


def test_prepare_cat_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {"alpha": 2.0})
    assert run_cli(["prepare-cat", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "prepare_cat.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["outcome", "probability", "fidelity_to_ideal_cat"]
    probs = {}
    with open(out / "prepare_cat.csv") as fh:
        for row in csv.DictReader(fh):
            probs[row["outcome"]] = float(row["probability"])
            assert float(row["fidelity_to_ideal_cat"]) >= 1 - 1e-9
    assert abs(probs["g"] + probs["e"] - 1.0) < 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "prepare-cat"
    assert "prepare_cat.csv" in manifest["artifacts"]


def test_decoherence_scan_shape(tmp_path):
    out = tmp_path / "out"
    alpha = float(np.sqrt(5.0))
    cfg = write_config(tmp_path, "c.json", {
        "alpha": alpha, "kappa": 1.0,
        "delays": [0.0, 0.1, 0.3, 0.8, 8.0],
    })
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(out)]) == 0
    header, body = read_csv(out / "decoherence_scan.csv")
    assert header == ["delay", "P_e2_given_e1", "P_g2_given_g1"]
    p = {row[0]: row[1] for row in body}
    assert p[0.0] > 1 - 1e-4            # perfect correlations at zero delay
    assert abs(p[0.8] - 0.5) < 0.02     # the incoherent plateau
    assert p[8.0] < 0.02                # the field has leaked out
    assert all(body[k][1] >= body[k + 1][1] for k in range(len(body) - 1))
    t_header, t_body = read_csv(out / "trajectory.csv")
    assert t_header == ["t", "coherence", "mean_n", "trace_error"]
    assert abs(t_body[0][1] - 1.0) < 0.01
    assert max(row[3] for row in t_body) < 1e-9


def _count_calls(monkeypatch, targets):
    """Count the calls of each (owner, name) in `targets` under the key
    "<owner>.<name>"; each call of a ``_diagonals`` also records its batch
    size and every diagonal the caller draws in `drawn`."""
    calls = {}
    drawn = []

    def counted(owner, name):
        original = getattr(owner, name)
        key = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        def diagonals(mats, *args):
            calls[key] += 1
            drawn.append((len(mats), []))
            for k, x in original(mats, *args):
                drawn[-1][1].append(k)
                yield k, x
        monkeypatch.setattr(owner, name, diagonals if name == "_diagonals" else wrapper)

    for owner, name in targets:
        counted(owner, name)
    return calls, drawn


def test_decoherence_scan_prepares_and_damps_once(tmp_path, monkeypatch):
    calls, drawn = _count_calls(monkeypatch, [
        (protocol, "prepare_cat"), (dynamics, "_diagonals"), (dynamics, "evolve"),
        (protocol, "field_kraus"), (dynamics, "coherent_state"),
        (fock.DensityOperator, "__post_init__")])
    cfg = write_config(tmp_path, "c.json", {
        "alpha": 1.5, "delays": {"t_start": 0.0, "t_end": 2.0, "steps": 9}})
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    # one preparation (its probe builds the Kraus amplitudes), one damping
    # pass over both branches that stops after their populations, one Born
    # rule for every delay, one pass over the e branch's diagonals for
    # trajectory.csv, |+-alpha> built once, and no matrix stack: the only
    # density operators are the injected field and its two branches
    assert calls == {"protocol.prepare_cat": 1, "dynamics._diagonals": 2,
                     "dynamics.evolve": 0, "protocol.field_kraus": 2,
                     "dynamics.coherent_state": 2, "DensityOperator.__post_init__": 3}
    (branches, populations), (batch, diagonals) = drawn
    assert (branches, populations) == (2, [0])
    assert batch == 1 and diagonals[0] == 0 and len(diagonals) > 1
    # the odd cat's odd diagonals are exactly zero, so the pass skips them
    assert all(k % 2 == 0 for k in diagonals)


def test_direct_monitor_damps_populations_once(tmp_path, monkeypatch):
    calls, drawn = _count_calls(monkeypatch, [
        (dynamics, "_diagonals"), (dynamics, "evolve"), (protocol, "field_kraus"),
        (fock.DensityOperator, "__post_init__")])
    cfg = write_config(tmp_path, "c.json", {
        "state": {"kind": "cat", "alpha": 1.5}, "n_thermal": 0.05,
        "times": {"t_start": 0.0, "t_end": 2.0, "steps": 9}, "n_shots": 50})
    assert run_cli(["direct-monitor", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    # one damping pass over the state's populations alone, one Born rule for
    # every time, and no density operator but the state itself
    assert calls == {"dynamics._diagonals": 1, "dynamics.evolve": 0,
                     "protocol.field_kraus": 1, "DensityOperator.__post_init__": 1}
    assert drawn == [(1, [0])]


def _cat_parity_closed_form(alpha, psi1, kappa, n_th, t):
    """<parity> of the damped cat N(|alpha> + e^{i psi1}|-alpha>) at times t,
    W_t(0)/2 summed over its four coherent dyads |b><c|, each a complex
    Gaussian under thermal damping (Kim & Buzek, PRA 46, 4239 (1992)):
    W_t(0) = <c|b>/D_t exp(-b c* s^2/D_t), s = e^{-kappa t/2},
    D_t = e^{-kappa t}/2 + (n_th + 1/2)(1 - e^{-kappa t})."""
    decay = np.exp(-kappa * np.asarray(t, dtype=float))
    d_t = decay / 2 + (n_th + 0.5) * (1 - decay)
    amps = {alpha: 1.0, -alpha: np.exp(1j * psi1)}
    norm2 = 1.0 / (2.0 * (1.0 + np.cos(psi1) * np.exp(-2.0 * abs(alpha) ** 2)))
    total = 0.0
    for b, cb in amps.items():
        for c, cc in amps.items():
            overlap = np.exp(-abs(b) ** 2 / 2 - abs(c) ** 2 / 2 + np.conj(c) * b)
            w0 = overlap / d_t * np.exp(-b * np.conj(c) * decay / d_t)
            total = total + norm2 * cb * np.conj(cc) * w0 / 2
    return total.real


@pytest.mark.parametrize("n_th, dim", [(0.05, None), (0.4, None), (1.0, 45), (1.0, None)])
def test_thermal_decoherence_scan_matches_closed_form(tmp_path, n_th, dim):
    alpha, kappa = np.sqrt(5.0), 1.0
    payload = {"alpha": alpha, "kappa": kappa, "n_thermal": n_th,
               "delays": {"t_start": 0.0, "t_end": 8.0, "steps": 81}}
    if dim is not None:
        payload["dim"] = dim
    cfg = write_config(tmp_path, "c.json", payload)
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    _, body = read_csv(tmp_path / "o" / "decoherence_scan.csv")
    delay, p_e_odd, p_g_even = np.array(body).T
    odd = _cat_parity_closed_form(alpha, np.pi, kappa, n_th, delay)
    even = _cat_parity_closed_form(alpha, 0.0, kappa, n_th, delay)
    np.testing.assert_allclose(p_e_odd, (1 - odd) / 2, rtol=0, atol=1e-9)
    np.testing.assert_allclose(p_g_even, (1 + even) / 2, rtol=0, atol=1e-9)


def test_thermal_scan_beyond_its_truncation_exit_code(tmp_path):
    # at n_th = 1.0 dim 31 (the default at n_th = 0) leaves 1.03e-8 on the top
    # Fock level and read 1.7e-9 off the closed form; dim 45 (above) reads it
    # to 1e-13, and so does the thermal default (above)
    cfg = write_config(tmp_path, "c.json", {"alpha": float(np.sqrt(5.0)), "n_thermal": 1.0,
                                            "dim": 31})
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_thermal_direct_monitor_matches_closed_form(tmp_path):
    # the default truncation allows for the thermal photons (dim 38, 2e-11
    # off the closed form); the coherent rule's dim 26 leaves up to 1.4e-7
    # on the top Fock level, read W(0) 9e-8 off it and is refused (below)
    alpha, kappa, n_th = 2.0, 1.0, 1.0
    cfg = write_config(tmp_path, "c.json", {
        "state": {"kind": "cat", "alpha": alpha, "psi1": 0.0}, "kappa": kappa,
        "n_thermal": n_th, "times": {"t_start": 0.0, "t_end": 2.0, "steps": 21}})
    assert run_cli(["direct-monitor", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    _, body = read_csv(tmp_path / "o" / "direct_monitor.csv")
    t, w0 = np.array(body)[:, :2].T
    np.testing.assert_allclose(w0, 2 * _cat_parity_closed_form(alpha, 0.0, kappa, n_th, t),
                               rtol=0, atol=1e-9)


def test_thermal_direct_monitor_beyond_its_truncation_exit_code(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "state": {"kind": "cat", "alpha": 2.0, "psi1": 0.0}, "n_thermal": 1.0, "dim": 26})
    assert run_cli(["direct-monitor", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_single_bin_tomography_exit_code(tmp_path):
    # a bin wider than [-q_range, q_range] crashed SinogramSet with an IndexError
    cfg = write_config(tmp_path, "c.json", {"state": {"kind": "cat", "alpha": 1.0},
                                            "samples": 100, "bin_width": 100})
    assert run_cli(["tomography", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_decoherence_scan_degenerate_branch_exit_code(tmp_path):
    # alpha = 0 never leaves the atom in e, so there is no post-e1 trajectory
    cfg = write_config(tmp_path, "c.json", {"alpha": 0.0, "delays": [0.0, 0.5]})
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


STRIP_GRID = {"q1_min": -0.45, "q1_max": 0.45, "q2_min": -2.0, "q2_max": 2.0,
              "n1": 7, "n2": 27}


def test_wigner_map_distinguishes_cat_from_mixture(tmp_path):
    values = {}
    for kind in ("cat", "mixture"):
        out = tmp_path / kind
        cfg = write_config(tmp_path, f"{kind}.json",
                           {"state": {"kind": kind, "alpha": 3.0}, "grid": STRIP_GRID})
        assert run_cli(["wigner-map", "--config", cfg, "--out", str(out)]) == 0
        _, body = read_csv(out / "wigner_map.csv")
        values[kind] = np.array([row[2] for row in body])
        meta = json.loads((out / "wigner_map.json").read_text())
        assert meta["convention"] == "alpha-normalized"
    assert np.max(np.abs(values["cat"] - values["mixture"])) > 1.5


def test_wigner_map_records_evaluation_health(tmp_path):
    grid = {"q1_min": -2.0, "q1_max": 2.0, "q2_min": -2.0, "q2_max": 2.0, "n1": 9, "n2": 9}
    cfg = write_config(tmp_path, "cat.json",
                       {"state": {"kind": "cat", "alpha": 1.5}, "dim": 30, "grid": grid})
    assert run_cli(["wigner-map", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    diagnostics = json.loads((tmp_path / "o" / "wigner_map.json").read_text())["diagnostics"]
    alphas = wigner.PhaseSpaceGrid(**grid).alpha_grid()
    assert diagnostics["eval_dim"] == 30
    assert diagnostics["distinct_radii"] == np.unique(4.0 * np.abs(alphas) ** 2).size


TOMO_CFG = {
    "state": {"kind": "coherent", "alpha": 1.0},
    "angles": 12, "samples": 2000, "seed": 99,
    "grid": {"span": 3.0, "step": 0.2},
}


def test_tomography_artifacts_and_determinism(tmp_path, monkeypatch):
    calls = []
    sample = tomo.sample_homodyne

    def counted(*args, **kwargs):
        calls.append(args[1])
        return sample(*args, **kwargs)

    monkeypatch.setattr(tomo, "sample_homodyne", counted)
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        cfg = write_config(tmp_path, f"{label}.json", dict(TOMO_CFG))
        assert run_cli(["tomography", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    # one sampling call per run, taking each angle once
    assert len(calls) == 2
    for thetas in calls:
        assert np.unique(thetas).size == np.size(thetas) == TOMO_CFG["angles"]
    for name in ("sinogram.csv", "reconstruction.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "reconstruction_report.json").read_text())
    assert report["angles"] == 12 and report["n"] == 2000
    assert report["rmse"] < 0.5
    # the written sinogram is the data the reconstruction inverted
    _, sino_rows = read_csv(outs[0] / "sinogram.csv")
    sino_rows = np.array(sino_rows)
    thetas = np.unique(sino_rows[:, 0])
    q = sino_rows[sino_rows[:, 0] == thetas[0], 1]
    sino = (thetas, q, sino_rows[:, 2].reshape(thetas.size, q.size))
    grid = wigner.PhaseSpaceGrid(
        **json.loads((outs[0] / "reconstruction.json").read_text())["grid"])
    _, recon_rows = read_csv(outs[0] / "reconstruction.csv")
    written = np.array(recon_rows)[:, 2].reshape(grid.n1, grid.n2)
    assert np.max(np.abs(tomo.inverse_radon(*sino, grid).values - written)) < 1e-12


@pytest.mark.parametrize("q_range", [None, 7])
def test_tomography_writes_the_library_report(tmp_path, monkeypatch, q_range):
    # reconstruction_report.json is the library's error report as it is, and
    # sinogram_meta.json records the window the library sampled
    results = []
    reconstruct = tomo.reconstruct_from_samples

    def kept(*args, **kwargs):
        results.append(reconstruct(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tomo, "reconstruct_from_samples", kept)
    out = tmp_path / "o"
    given = {} if q_range is None else {"q_range": q_range}
    cfg = write_config(tmp_path, "c.json", {**TOMO_CFG, **given})
    assert run_cli(["tomography", "--config", cfg, "--out", str(out)]) == 0
    ((_, error_report, _, sampled_range),) = results
    report = json.loads((out / "reconstruction_report.json").read_text())
    assert report == json.loads(json.dumps(error_report))
    meta = json.loads((out / "sinogram_meta.json").read_text())
    assert meta["q_range"] == sampled_range
    if q_range is not None:
        assert sampled_range == q_range


def test_csv_rows_match_csv_writer_reference(tmp_path):
    def reference(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(x):.17g}" if isinstance(x, (float, np.floating)) else x
                             for x in row])
        return buf.getvalue()

    rows = [["g", 1, np.float64(0.1), float("nan")],
            ["a,b", -3, float("inf"), np.float64(-2.5e-300)],
            [0.1, np.int64(7), -np.inf, np.float64(1 / 3)],
            [np.float64(np.nan), 2, 1e17, 0.30000000000000004],
            [np.float32(0.1), True, np.float64(1e-5), 12345678901234567890]]
    table = np.vstack([[[0.1, -1 / 3, 2.0], [np.inf, np.nan, 1e-320]],
                       np.random.default_rng(3).normal(size=(5000, 3))])  # spans blocks
    writer = cli.ArtifactWriter(str(tmp_path), "test", {})
    writer.csv("rows.csv", ["a", "b", "c", "d"], rows)
    writer.csv("table.csv", ["x", "y", "z"], table)
    assert (tmp_path / "rows.csv").read_text() == reference(["a", "b", "c", "d"], rows)
    assert (tmp_path / "table.csv").read_text() == reference(["x", "y", "z"], table)
    # the product form (a_axis, b_axis, values) writes the a-major table of
    # every (a, b) pair, byte for byte
    rng = np.random.default_rng(4)
    special = np.array([np.nan, np.inf, -np.inf, 5e-324, -0.0, 0.0, 1 / 3, -2.5e-300])
    cases = [(np.linspace(-1, 2, 7), np.linspace(0, 5, 13), rng.normal(size=(7, 13))),
             (np.array([-0.0, 0.0, 0.1]), np.array([0.0, 1e-320, -0.0, np.pi]),
              rng.normal(size=(3, 4))),
             (np.array([0.5, -1.5]), np.array([2.0, -7.0, 1e17, 0.3]), special.reshape(2, 4)),
             (np.array([0.25]), rng.normal(size=9), rng.normal(size=(1, 9))),
             (rng.normal(size=9), np.array([-3.0]), rng.normal(size=(9, 1))),
             (np.array([1.0]), np.array([2.0]), np.array([[np.nan]])),
             (np.arange(3.0), np.linspace(-8, 8, 601), rng.normal(size=(3, 601))),
             (np.linspace(0, 3, 300), np.array([-1 / 3, 1 / 3]), rng.normal(size=(300, 2)))]
    for k, (a_axis, b_axis, values) in enumerate(cases):
        writer.csv(f"grid{k}.csv", ["a", "b", "v"], (a_axis, b_axis, values))
        stacked = np.column_stack([np.repeat(a_axis, b_axis.size), np.tile(b_axis, a_axis.size),
                                   values.ravel()])
        assert (tmp_path / f"grid{k}.csv").read_text() == reference(["a", "b", "v"], stacked)


def test_seed_override_changes_samples(tmp_path):
    base = write_config(tmp_path, "c.json", dict(TOMO_CFG))
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert run_cli(["tomography", "--config", base, "--out", str(out_a)]) == 0
    assert run_cli(["tomography", "--config", base, "--out", str(out_b),
                    "--seed", "123"]) == 0
    assert (out_a / "sinogram.csv").read_bytes() != (out_b / "sinogram.csv").read_bytes()


def test_manifest_checksums_match_files(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {"alpha": 1.0})
    assert run_cli(["prepare-cat", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["versions"]["cavitylab"]
    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest


def test_direct_monitor_with_sampling(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {
        "state": {"kind": "cat", "alpha": 1.5, "psi1": 0.0},
        "times": [0.0, 0.2, 0.5],
        "n_shots": 400, "efficiency": 0.5, "seed": 5,
    })
    assert run_cli(["direct-monitor", "--config", cfg, "--out", str(out)]) == 0
    header, body = read_csv(out / "direct_monitor.csv")
    assert header == ["t", "W0_exact", "W0_sampled", "stderr"]
    for row in body:
        assert abs(row[1]) <= 2 + 1e-9
        assert np.isfinite(row[2]) and row[3] > 0


def test_pauli_demo(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json",
                       {"grid": {"span": 4.0, "step": 0.15}})
    assert run_cli(["pauli-demo", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "pauli_demo.json").read_text())
    assert report["marginals_only_incomplete"] is True


def test_direct_map_variant(tmp_path):
    # both probes read parity with the same Born probabilities, so the two
    # variants write the same map, byte for byte; the manifest records which
    grids = {"grid": {"span": 1.5, "step": 0.25}}
    written = {}
    for variant in ("dispersive", "opposite-shift"):
        out = tmp_path / variant
        cfg = write_config(tmp_path, f"{variant}.json", {
            "state": {"kind": "fock", "n": 1}, "variant": variant, **grids,
        })
        assert run_cli(["direct-map", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "direct_map.json").read_text())
        assert meta["provenance"] == "measured-direct"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["variant"] == variant
        written[variant] = [(out / name).read_bytes()
                            for name in ("direct_map.csv", "direct_map.json")]
    assert written["dispersive"] == written["opposite-shift"]


def test_selfcheck_passes_on_clean_tree(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["selfcheck", "--out", str(out)]) == 0
    report = json.loads((out / "selfcheck.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) >= 10


def test_config_helpers():
    times = cli._times_array({"t_start": 0.0, "t_end": 1.0, "steps": 5})
    np.testing.assert_allclose(times, [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(cli._times_array([0.0, 0.3]), [0.0, 0.3])
    grid = cli._build_grid(None, 2.0)
    assert grid.q1_max == pytest.approx(np.sqrt(2) * 2 + 4)
    grid2 = cli._build_grid({"span": 3.0, "step": 0.5}, 2.0)
    assert grid2.n1 == 13 and grid2.q1_min == -3.0
    assert cli._parse_alpha([1.0, -2.0]) == 1.0 - 2.0j


def test_dim_override_flows_through(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"alpha": 1.0})
    out = tmp_path / "out"
    assert run_cli(["prepare-cat", "--config", cfg, "--out", str(out),
                    "--dim", "24"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dim"] == 24


def test_every_experiment_has_an_option_table():
    assert set(cli.OPTIONS) == set(cli.RUNNERS)


nan, inf = float("nan"), float("inf")
S = {"kind": "cat", "alpha": 1.0}
BOX = {"q1_min": -1, "q1_max": 1, "q2_min": -1, "q2_max": 1, "n1": 5, "n2": 5}
SPAN = {"t_start": 0, "t_end": 1, "steps": 5}
# (experiment, config, accepted), as the JSON schemas the option table
# replaced judged them, except where the comments say otherwise
VERDICTS = [
    # type
    ("prepare-cat", {"alpha": "1"}, False),
    ("prepare-cat", {"alpha": True}, False),
    ("decoherence-scan", {"alpha": 1.0, "n_thermal": None}, False),
    ("decoherence-scan", {"alpha": 1, "kappa": 2}, True),
    # integral
    ("tomography", {"state": S, "angles": 12}, True),
    ("tomography", {"state": S, "angles": 12.0}, True),
    ("tomography", {"state": S, "angles": 12.5}, False),
    ("tomography", {"state": S, "samples": True}, False),
    # minimum
    ("decoherence-scan", {"alpha": 1.0, "n_thermal": 0}, True),
    ("decoherence-scan", {"alpha": 1.0, "n_thermal": -0.1}, False),
    ("tomography", {"state": S, "angles": 8}, True),
    ("tomography", {"state": S, "angles": 7}, False),
    # exclusive minimum
    ("decoherence-scan", {"alpha": 1.0, "kappa": 1e-300}, True),
    ("decoherence-scan", {"alpha": 1.0, "kappa": 0}, False),
    ("tomography", {"state": S, "bin_width": -0.05}, False),
    # maximum
    ("direct-monitor", {"state": S, "efficiency": 1}, True),
    ("direct-monitor", {"state": S, "efficiency": 1.0000001}, False),
    ("direct-monitor", {"state": S, "efficiency": 0}, True),
    ("direct-monitor", {"state": S, "efficiency": -0.1}, False),
    # null, where allowed
    ("wigner-map", {"state": S, "dim": None}, True),
    ("wigner-map", {"state": S, "dim": 2}, True),
    ("wigner-map", {"state": S, "dim": 1}, False),
    ("tomography", {"state": S, "q_range": None}, False),
    ("wigner-map", {"state": S, "grid": None}, False),
    # one of values
    ("direct-map", {"state": S, "variant": "opposite-shift"}, True),
    ("direct-map", {"state": S, "variant": "opposite"}, False),
    ("wigner-map", {"state": {"kind": "squeezed"}}, False),
    ("wigner-map", {"state": {"kind": "vacuum"}}, True),
    # required
    ("prepare-cat", {}, False),
    ("wigner-map", {}, False),
    ("pauli-demo", {}, True),
    ("selfcheck", {}, True),
    ("wigner-map", {"state": {"alpha": 1.0}}, False),
    # unknown key
    ("prepare-cat", {"alpha": 1.0, "bogus": 3}, False),
    ("wigner-map", {"state": {"kind": "cat", "beta": 1.0}}, False),
    ("wigner-map", {"state": S, "grid": {"span": 3.0, "pad": 1.0}}, False),
    ("decoherence-scan", {"alpha": 1.0, "times": [0.0]}, False),
    # nested state
    ("wigner-map", {"state": {"kind": "fock", "n": 2}}, True),
    ("wigner-map", {"state": {"kind": "fock", "n": -1}}, False),
    ("wigner-map", {"state": {"kind": "damped-cat", "alpha": 1.0, "t": 0, "kappa": 2}}, True),
    ("wigner-map", {"state": {"kind": "damped-cat", "alpha": 1.0, "t": -0.1}}, False),
    ("wigner-map", {"state": {"kind": "damped-cat", "alpha": 1.0, "kappa": 0}}, False),
    ("wigner-map", {"state": "cat"}, False),
    # nested grid
    ("wigner-map", {"state": S, "grid": {"span": 3.0, "step": 0.5}}, True),
    ("wigner-map", {"state": S, "grid": BOX}, True),
    ("wigner-map", {"state": S, "grid": {"n1": 1}}, False),
    ("wigner-map", {"state": S, "grid": {"step": 0}}, False),
    ("wigner-map", {"state": S, "grid": {**BOX, "span": 3.0}}, False),
    ("pauli-demo", {"grid": [3.0]}, False),
    # nested times
    ("direct-monitor", {"state": S, "times": [0.0, 0.5]}, True),
    ("direct-monitor", {"state": S, "times": []}, False),
    ("direct-monitor", {"state": S, "times": [-0.1]}, False),
    ("direct-monitor", {"state": S, "times": SPAN}, True),
    ("direct-monitor", {"state": S, "times": {"t_start": 0, "t_end": 1}}, False),
    ("direct-monitor", {"state": S, "times": {"t_start": 0, "t_end": 0, "steps": 5}}, False),
    ("direct-monitor", {"state": S, "times": {"t_start": 0, "t_end": 1, "steps": 0}}, False),
    ("direct-monitor", {"state": S, "times": {**SPAN, "dt": 0.1}}, False),
    ("decoherence-scan", {"alpha": 1.0, "delays": 3.0}, False),
    # both alpha forms
    ("prepare-cat", {"alpha": 2}, True),
    ("prepare-cat", {"alpha": [1.0, -0.5]}, True),
    ("prepare-cat", {"alpha": [1.0]}, False),
    ("prepare-cat", {"alpha": [1.0, 2.0, 3.0]}, False),
    ("prepare-cat", {"alpha": ["a", 1.0]}, False),
    ("wigner-map", {"state": {"kind": "coherent", "alpha": [0.5, 0.5]}}, True),
    # the keys each state kind reads, alpha required where read (the schemas took any)
    ("wigner-map", {"state": {"kind": "coherent"}, "grid": {"span": 2.0, "step": 0.5}}, False),
    ("wigner-map", {"state": {"kind": "mixture"}}, False),
    ("wigner-map", {"state": {"kind": "cat", "psi1": 0.0}}, False),
    ("wigner-map", {"state": {"kind": "damped-cat", "t": 0.1}}, False),
    ("wigner-map", {"state": {"kind": "vacuum", "alpha": 3.0, "psi1": 2, "n": 4}}, False),
    ("wigner-map", {"state": {"kind": "vacuum", "n": 4}}, False),
    ("wigner-map", {"state": {"kind": "fock", "alpha": 1.0}}, False),
    ("wigner-map", {"state": {"kind": "fock"}}, True),
    ("wigner-map", {"state": {"kind": "coherent", "alpha": 1.0, "psi1": 0.0}}, False),
    ("wigner-map", {"state": {"kind": "mixture", "alpha": 1.0, "psi1": 0.0}}, False),
    ("wigner-map", {"state": {"kind": "cat", "alpha": 1.0, "t": 0.1}}, False),
    ("wigner-map", {"state": {"kind": "damped-cat", "alpha": 1.0, "n": 1}}, False),
    ("wigner-map", {"state": {"kind": "damped-cat", "alpha": 1.0, "psi1": 0.0, "t": 0.1,
                              "kappa": 1.0}}, True),
    # time order the damping takes (the schemas took any order)
    ("decoherence-scan", {"alpha": 1.0, "delays": {"t_start": 5.0, "t_end": 2.0, "steps": 3}},
     False),
    ("decoherence-scan", {"alpha": 1.0, "delays": {"t_start": 2.0, "t_end": 2.0, "steps": 3}},
     False),
    ("decoherence-scan", {"alpha": 1.0, "delays": [0.5, 0.1, 0.0]}, False),
    ("direct-monitor", {"state": S, "times": [1.0, 0.5]}, False),
    ("decoherence-scan", {"alpha": 1.0, "delays": [0.0, 0.0, 0.3]}, True),
    # seed and dim where a runner reads them
    ("tomography", {"state": S, "seed": 3}, True),
    ("direct-monitor", {"state": S, "seed": 3}, True),
    ("tomography", {"state": S, "seed": -1}, False),
    ("prepare-cat", {"alpha": 1.0, "dim": 20}, True),
    ("decoherence-scan", {"alpha": 1.0, "dim": 20}, True),
    ("direct-map", {"state": S, "dim": 20}, True),
    ("direct-monitor", {"state": S, "dim": 20}, True),
    # the seed and dim no runner reads (the schemas took them)
    ("prepare-cat", {"alpha": 1.0, "seed": 0}, False),
    ("decoherence-scan", {"alpha": 1.0, "seed": 0}, False),
    ("wigner-map", {"state": S, "seed": 0}, False),
    ("direct-map", {"state": S, "seed": 0}, False),
    ("pauli-demo", {"seed": 0}, False),
    ("selfcheck", {"seed": 0}, False),
    ("pauli-demo", {"dim": None}, False),
    ("selfcheck", {"dim": 10}, False),
    # non-finite numbers (the schemas took all of these but the last)
    ("decoherence-scan", {"alpha": 2.0, "kappa": nan}, False),
    ("decoherence-scan", {"alpha": 2.0, "n_thermal": inf}, False),
    ("prepare-cat", {"alpha": nan}, False),
    ("prepare-cat", {"alpha": [0.0, -inf]}, False),
    ("direct-monitor", {"state": S, "kappa": nan}, False),
    ("direct-monitor", {"state": S, "times": [0, nan]}, False),
    ("direct-monitor", {"state": S, "times": {"t_start": 0, "t_end": inf, "steps": 3}}, False),
    ("wigner-map", {"state": {"kind": "cat", "alpha": 1.0, "psi1": inf}}, False),
    ("wigner-map", {"state": S, "grid": {**BOX, "q1_min": nan}}, False),
    ("tomography", {"state": S, "angles": inf}, False),
]


def test_option_table_verdicts():
    wrong = []
    for experiment, config, accepted in VERDICTS:
        try:
            cli.resolve_config(experiment, config)
            taken = True
        except ConfigError:
            taken = False
        if taken != accepted:
            wrong.append((experiment, config, accepted))
    assert wrong == []


@pytest.mark.parametrize("experiment, as_int, as_float", [
    ("wigner-map", {"state": {"kind": "vacuum"}, "grid": BOX, "dim": 24},
     {"state": {"kind": "vacuum"}, "grid": BOX, "dim": 24.0}),
    ("wigner-map", {"state": {"kind": "fock", "n": 2}, "grid": BOX},
     {"state": {"kind": "fock", "n": 2.0}, "grid": BOX}),
    ("wigner-map", {"state": {"kind": "vacuum"}, "grid": BOX},
     {"state": {"kind": "vacuum"}, "grid": {**BOX, "n1": 5.0}}),
    ("direct-monitor", {"state": S, "times": SPAN},
     {"state": S, "times": {**SPAN, "steps": 5.0}}),
    ("tomography", {"state": S, "grid": BOX, "angles": 8, "samples": 100},
     {"state": S, "grid": BOX, "angles": 8, "samples": 100.0}),
], ids=["dim", "fock-n", "grid-n1", "steps", "samples"])
def test_integral_floats_run_as_ints(tmp_path, experiment, as_int, as_float):
    # the option table takes 24.0 for an integer; the runners get 24
    written = []
    for k, config in enumerate((as_int, as_float)):
        out = tmp_path / f"o{k}"
        cfg = write_config(tmp_path, f"c{k}.json", config)
        assert run_cli([experiment, "--config", cfg, "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]


def test_resolved_defaults():
    given = {"kind": "cat", "alpha": 1.0}
    state = {**given, "psi1": 0.0}  # the state's own default is resolved too
    resolved = {name: cli.resolve_config(name, raw) for name, raw in (
        ("prepare-cat", {"alpha": 1.0}), ("decoherence-scan", {"alpha": 1.0}),
        ("wigner-map", {"state": given}), ("tomography", {"state": given}),
        ("direct-map", {"state": given}), ("direct-monitor", {"state": given}),
        ("pauli-demo", {}), ("selfcheck", {}))}
    assert resolved == {
        "prepare-cat": {"alpha": 1.0, "dim": None},
        "decoherence-scan": {"alpha": 1.0, "kappa": 1.0, "n_thermal": 0.0, "dim": None,
                             "delays": {"t_start": 0.0, "t_end": 8.0, "steps": 81}},
        "wigner-map": {"state": state, "grid": None, "dim": None},
        "tomography": {"state": state, "grid": None, "angles": 36, "samples": 100000,
                       "seed": 12345, "bin_width": 0.05, "q_range": None, "dim": None},
        "direct-map": {"state": state, "grid": None, "variant": "dispersive", "dim": None},
        "direct-monitor": {"state": state, "kappa": 1.0, "n_thermal": 0.0, "n_shots": 0,
                           "efficiency": 1.0, "seed": 0, "dim": None,
                           "times": {"t_start": 0.0, "t_end": 2.0, "steps": 41}},
        "pauli-demo": {"grid": None},
        "selfcheck": {},
    }


def test_manifest_records_every_state_default(tmp_path):
    # n, psi1, t and kappa were applied through dict.get and left out of the
    # resolved config, so omitting them wrote another manifest and config hash
    for omitted, stated in (({"kind": "damped-cat", "alpha": 2.0},
                             {"kind": "damped-cat", "alpha": 2.0, "psi1": 0.0, "t": 0.1,
                              "kappa": 1.0}),
                            ({"kind": "fock"}, {"kind": "fock", "n": 1})):
        manifests = []
        for k, state in enumerate((omitted, stated)):
            out = tmp_path / f"{state['kind']}{k}"
            cfg = write_config(tmp_path, f"{state['kind']}{k}.json",
                               {"state": state, "grid": {"span": 2.0, "step": 0.5}})
            assert run_cli(["wigner-map", "--config", cfg, "--out", str(out)]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"]["state"] == stated


def test_seed_and_dim_flags_only_where_read(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"state": {"kind": "vacuum"}})
    for k, argv in enumerate((["pauli-demo", "--seed", "1"], ["selfcheck", "--dim", "10"],
                              ["wigner-map", "--config", cfg, "--seed", "1"])):
        assert run_cli(argv + ["--out", str(tmp_path / f"o{k}")]) == 1
        assert "unexpected key" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, config", [
    ("decoherence-scan", {"alpha": 2.0, "kappa": nan}),
    ("decoherence-scan", {"alpha": 2.0, "n_thermal": inf}),
    ("prepare-cat", {"alpha": nan}),
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0}, "kappa": nan}),
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0}, "times": [0.0, nan]}),
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0},
                        "times": {"t_start": 0.0, "t_end": inf, "steps": 3}}),
], ids=["kappa-nan", "n-thermal-inf", "alpha-nan", "monitor-kappa-nan", "times-nan",
        "t-end-inf"])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, experiment, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))  # NaN and Infinity, as json.load takes them
    assert run_cli([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_fock_level_beyond_dim_is_config_error(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cavitylab.__file__)))
    for k, (config, message) in enumerate((
            ({"state": {"kind": "fock", "n": 30}, "dim": 10},
             "config error: fock state n = 30 needs dim > 30, got dim 10"),
            # explicit extents with neither span nor step must give all six
            ({"state": {"kind": "vacuum"}, "grid": {"q1_min": 0}},
             "config error: invalid config: 'q1_max' is a required property (key grid)"))):
        cfg = write_config(tmp_path, f"c{k}.json", config)
        proc = subprocess.run([sys.executable, "-m", "cavitylab.cli", "wigner-map", "--config",
                               cfg, "--out", str(tmp_path / f"o{k}")], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_config_error_names_the_offending_value(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"alpha": 1.0, "kappa": -1.0})
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "config error: invalid config: -1.0 is less than or equal to the minimum of 0" \
        in capsys.readouterr().err


@pytest.mark.parametrize("experiment, config, message", [
    ("decoherence-scan", {"alpha": 1.0, "kappa": -1.0},
     "-1.0 is less than or equal to the minimum of 0 (key kappa)"),
    ("wigner-map", {"state": {"kind": "fock", "n": 2.5}},
     "2.5 is not of type 'integer' (key state.n)"),
    ("wigner-map", {"state": {"kind": "cat", "alpha": 1.0}, "grid": {"step": -0.1}},
     "-0.1 is less than or equal to the minimum of 0 (key grid.step)"),
    ("tomography", {"state": {"kind": "cat", "alpha": 1.0}, "angles": True},
     "True is not of type 'integer' (key angles)"),
    ("tomography", {"state": {"kind": "cat", "alpha": 1.0}, "bin_width": "x"},
     "'x' is not of type 'number' (key bin_width)"),
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0}, "efficiency": 1.5},
     "1.5 is greater than the maximum of 1 (key efficiency)"),
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0}, "times": [0.0, -1.0]},
     "-1.0 is less than the minimum of 0 (key times[1])"),
    ("prepare-cat", {"alpha": 1.0, "dim": 1}, "1 is less than the minimum of 2 (key dim)"),
    # 1e308 samples raised a bare OverflowError in numpy's multinomial, and
    # 1e308 angles a bare ValueError; the table takes the library's maxima
    ("tomography", {"state": {"kind": "cat", "alpha": 1.0}, "samples": 1e308},
     "1e+308 is greater than the maximum of 9223372036854775807 (key samples)"),
    ("tomography", {"state": {"kind": "cat", "alpha": 1.0}, "angles": 1e308},
     "1e+308 is greater than the maximum of 4194304 (key angles)"),
    # 1e308 shots printed numpy's bare ValueError from the shot draw
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0}, "n_shots": 1e308},
     "1e+308 is greater than the maximum of 9223372036854775807 (key n_shots)"),
])
def test_config_number_refusal_is_the_whole_message_with_its_key(tmp_path, capsys, experiment,
                                                                  config, message):
    # the option table checks numbers by the library's rule (errors.number) and
    # reports each refusal as this exact config error
    cfg = write_config(tmp_path, "c.json", config)
    assert run_cli([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: invalid config: {message}\n"


@pytest.mark.parametrize("experiment, config, message", [
    ("wigner-map", {"state": {"kind": "coherent"}}, "'alpha' is a required property"),
    ("wigner-map", {"state": {"kind": "vacuum", "alpha": 3.0}},
     "kind 'vacuum' does not read key 'alpha'"),
    ("decoherence-scan", {"alpha": 1.0, "delays": {"t_start": 5.0, "t_end": 2.0, "steps": 3}},
     "t_end must exceed t_start"),
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0},
                        "times": {"t_start": 0.0, "t_end": 1.0, "steps": 0}},
     "0 is less than the minimum of 1"),
], ids=["missing-alpha", "unread-key", "backward-delays", "zero-steps"])
def test_refused_state_and_times_exit_as_config_errors(tmp_path, capsys, experiment, config,
                                                       message):
    # refused by the option table, before a runner builds the state or the times
    cfg = write_config(tmp_path, "c.json", config)
    assert run_cli([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("experiment, config", [
    ("wigner-map", {"state": {"kind": "coherent", "alpha": 16.1}}),
    ("prepare-cat", {"alpha": 16.1}),
    ("wigner-map", {"state": {"kind": "vacuum"}, "dim": 1025}),
], ids=["coherent-alpha", "prepare-cat-alpha", "dim"])
def test_oversized_dimension_exits_as_numerical_failure(tmp_path, capsys, experiment,
                                                        config):
    # |alpha| = 16.1 takes dim 1047 by default: pure_to_density refuses any
    # dim > 1024 before it builds the dense matrix
    cfg = write_config(tmp_path, "c.json", config)
    assert run_cli([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: TruncationError" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_decoherence_scan_past_the_damping_range_exits_as_numerical_failure(tmp_path, capsys):
    # at a delay of 1e20 the damping loses the trace: the scan wrote
    # P(e2|e1) = P(g2|g1) = 0 there and exited 0
    cfg = write_config(tmp_path, "c.json", {"alpha": 2.0, "delays": [0.0, 1e20]})
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: IntegrationError" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


CAT2 = {"kind": "cat", "alpha": 2.0}


@pytest.mark.parametrize("experiment, config, error", [
    ("decoherence-scan", {"alpha": 2.0, "delays": [0.0, 1e308]}, "IntegrationError"),
    # at kappa = 1e308 the damping generators themselves overflow
    ("decoherence-scan", {"alpha": 2.0, "kappa": 1e308, "delays": [0.0, 0.5]},
     "IntegrationError"),
    ("direct-monitor", {"state": CAT2, "kappa": 1e308}, "IntegrationError"),
    ("decoherence-scan", {"alpha": 2.0, "n_thermal": 0.05, "delays": [0.0, 1e20]},
     "IntegrationError"),
    ("tomography", {"state": CAT2, "bin_width": 1e-300}, "DomainError"),
    ("tomography", {"state": CAT2, "q_range": 1e308}, "DomainError"),
    ("decoherence-scan", {"alpha": 2.0, "n_thermal": 1e308}, "DomainError"),
    ("direct-monitor", {"state": CAT2, "n_thermal": 1e308}, "DomainError"),
    # past |q| ~ 1e154 the Hermite functions' x^2 overflowed: numpy warned
    ("tomography", {"state": CAT2, "q_range": 1e200, "bin_width": 1e199}, "SamplingError"),
], ids=["far-delay", "scan-kappa", "monitor-kappa", "far-thermal-delay", "bin-width",
        "q-range", "scan-n-thermal", "monitor-n-thermal", "huge-window"])
def test_sizes_that_overflow_exit_as_numerical_failures(tmp_path, capsys, experiment,
                                                        config, error):
    # each printed a traceback and exited 1: numpy's overflow warning (under
    # the RuntimeWarning filter the suite and CI run with), a bare ValueError
    # from np.arange, or a ZeroDivisionError in default_dim
    cfg = write_config(tmp_path, "c.json", config)
    assert run_cli([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {error}: ") and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("grid", [
    {"step": 1e-4}, {"q1_min": -1, "q1_max": 1, "q2_min": -1, "q2_max": 1,
                     "n1": 100000, "n2": 100000},
], ids=["step", "extents"])
def test_oversized_grid_exits_as_numerical_failure(tmp_path, capsys, grid):
    # a 160,001^2 default grid or a 10^10-node explicit one is refused
    # before its alpha array exists
    cfg = write_config(tmp_path, "c.json", {"state": {"kind": "vacuum"}, "grid": grid})
    assert run_cli(["wigner-map", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: DomainError" in err and "exceeds the limit" in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_extents_beside_step_are_refused_not_dropped(tmp_path, capsys):
    grid = {"step": 0.5, "q1_min": 0, "q1_max": 1, "q2_min": 0, "q2_max": 1, "n1": 3, "n2": 3}
    cfg = write_config(tmp_path, "c.json", {"state": {"kind": "vacuum"}, "grid": grid})
    assert run_cli(["wigner-map", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert ("invalid config: extents ['n1', 'n2', 'q1_max', 'q1_min', 'q2_max', 'q2_min'] "
            "given beside span or step (key grid)") in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


# One small run of every experiment kind, and a map's line integrals: the
# runtime needs numpy only, so none of them may load any scipy module.
_SMALL_RUNS = [
    ("prepare-cat", {"alpha": 1.0}),
    ("wigner-map", {"state": {"kind": "cat", "alpha": 1.0}, "grid": {"span": 2.0, "step": 0.5}}),
    ("tomography", {"state": {"kind": "cat", "alpha": 1.0}, "angles": 8, "samples": 200,
                    "grid": {"span": 2.0, "step": 0.5}}),
    ("decoherence-scan", {"alpha": 1.0, "n_thermal": 0.05,
                          "delays": {"t_start": 0.0, "t_end": 1.0, "steps": 3}}),
    ("direct-map", {"state": {"kind": "cat", "alpha": 1.0}, "grid": {"span": 2.0, "step": 1.0}}),
    ("direct-monitor", {"state": {"kind": "cat", "alpha": 1.0}, "n_shots": 10,
                        "times": {"t_start": 0.0, "t_end": 1.0, "steps": 3}}),
    ("pauli-demo", {"grid": {"span": 2.0, "step": 0.5}}),
    ("selfcheck", {}),
]


def test_cli_loads_no_scipy_module_and_numpy_random_at_import(tmp_path):
    # a fresh interpreter: this test process has loaded scipy for its own oracles.
    # numpy.random, and every other module a run needs, loads with the CLI, so
    # no run pays for an import inside its session.
    code = f"""
import json, os, sys
import cavitylab.cli
from cavitylab import (HilbertSpec, cat_state, default_grid, pure_to_density,
                       radon_of_map, wigner_map)
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(scipy_loaded(), "numpy.random" in sys.modules)
at_import = set(sys.modules)
rho = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
radon_of_map(wigner_map(rho, default_grid(1.0, step=0.5)), 0.3)
for k, (experiment, config) in enumerate({_SMALL_RUNS!r}):
    path = os.path.join({str(tmp_path)!r}, f"{{k}}.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join({str(tmp_path)!r}, f"out{{k}}")
    assert cavitylab.cli.main([experiment, "--config", path, "--out", out]) == 0, experiment
print(scipy_loaded(), sorted(set(sys.modules) - at_import))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cavitylab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert (out[0], out[-1]) == ("[] True", "[] []")  # the runs print between the two
