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
from cavitylab import cli, dynamics, protocol, tomo, wigner
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
    # a probe that does not measure parity cannot prepare a cat -> exit 2
    for k, bad in enumerate(({"alpha": 3.0, "dim": 8},
                             {"alpha": 1.5, "phi": float(np.pi / 2)},
                             {"alpha": 1.5, "eta": 0.3})):
        cfg = write_config(tmp_path, f"c{k}.json", bad)
        assert run_cli(["prepare-cat", "--config", cfg,
                        "--out", str(tmp_path / f"o{k}")]) == 2


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


def test_decoherence_scan_prepares_and_damps_once(tmp_path, monkeypatch):
    calls = {"prepare_cat": 0, "evolve_trajectory": 0, "coherent_state": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(protocol, "prepare_cat")
    counted(protocol, "evolve_trajectory")
    counted(dynamics, "evolve_trajectory")
    counted(dynamics, "coherent_state")
    cfg = write_config(tmp_path, "c.json", {
        "alpha": 1.5, "delays": {"t_start": 0.0, "t_end": 2.0, "steps": 9}})
    assert run_cli(["decoherence-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    # one preparation, one trajectory per branch, |+-alpha> built once
    assert calls == {"prepare_cat": 1, "evolve_trajectory": 2, "coherent_state": 2}


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
    axis = np.linspace(-2.0, 2.0, 9)
    alphas = (axis[:, None] + 1j * axis[None, :]) / np.sqrt(2.0)
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
    sino = tomo.SinogramSet(thetas, q, sino_rows[:, 2].reshape(thetas.size, q.size))
    grid = wigner.PhaseSpaceGrid(
        **json.loads((outs[0] / "reconstruction.json").read_text())["grid"])
    _, recon_rows = read_csv(outs[0] / "reconstruction.csv")
    written = np.array(recon_rows)[:, 2].reshape(grid.n1, grid.n2)
    assert np.max(np.abs(tomo.inverse_radon(sino, grid).values - written)) < 1e-12


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
    grids = {"grid": {"span": 1.5, "step": 0.25}}
    vals = {}
    for variant in ("dispersive", "opposite-shift"):
        out = tmp_path / variant
        cfg = write_config(tmp_path, f"{variant}.json", {
            "state": {"kind": "fock", "n": 1}, "variant": variant, **grids,
        })
        assert run_cli(["direct-map", "--config", cfg, "--out", str(out)]) == 0
        _, body = read_csv(out / "direct_map.csv")
        vals[variant] = np.array([row[2] for row in body])
        meta = json.loads((out / "direct_map.json").read_text())
        assert meta["provenance"] == "measured-direct"
    np.testing.assert_allclose(vals["dispersive"], vals["opposite-shift"], atol=1e-8)


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
    ("prepare-cat", {"alpha": 1.0, "phi": None}, False),
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
    state = {"kind": "cat", "alpha": 1.0}
    resolved = {name: cli.resolve_config(name, raw) for name, raw in (
        ("prepare-cat", {"alpha": 1.0}), ("decoherence-scan", {"alpha": 1.0}),
        ("wigner-map", {"state": state}), ("tomography", {"state": state}),
        ("direct-map", {"state": state}), ("direct-monitor", {"state": state}),
        ("pauli-demo", {}), ("selfcheck", {}))}
    assert resolved == {
        "prepare-cat": {"alpha": 1.0, "phi": 3.141592653589793, "eta": 0.0, "dim": None},
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
], ids=["kappa-nan", "n-thermal-inf", "alpha-nan", "monitor-kappa-nan", "times-nan"])
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
    ("wigner-map", {"state": {"kind": "coherent"}}, "'alpha' is a required property"),
    ("wigner-map", {"state": {"kind": "vacuum", "alpha": 3.0}},
     "kind 'vacuum' does not read key 'alpha'"),
    ("decoherence-scan", {"alpha": 1.0, "delays": {"t_start": 5.0, "t_end": 2.0, "steps": 3}},
     "t_end must exceed t_start"),
], ids=["missing-alpha", "unread-key", "backward-delays"])
def test_refused_state_and_times_exit_as_config_errors(tmp_path, capsys, experiment, config,
                                                       message):
    # refused by the option table, before a runner builds the state or the times
    cfg = write_config(tmp_path, "c.json", config)
    assert run_cli([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_extents_beside_step_are_refused_not_dropped(tmp_path, capsys):
    grid = {"step": 0.5, "q1_min": 0, "q1_max": 1, "q2_min": 0, "q2_max": 1, "n1": 3, "n2": 3}
    cfg = write_config(tmp_path, "c.json", {"state": {"kind": "vacuum"}, "grid": grid})
    assert run_cli(["wigner-map", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert ("invalid config: extents ['n1', 'n2', 'q1_max', 'q1_min', 'q2_max', 'q2_min'] "
            "given beside span or step (key grid)") in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


# Modules the CLI must not load at start-up (import time is paid by every
# run), nor when drawing a map's line integrals.
UNLOADED = ("scipy.integrate", "scipy.constants", "scipy.interpolate", "scipy.optimize",
            "jsonschema")


def test_cli_import_leaves_unused_scipy_modules_unloaded():
    # a fresh interpreter: this test process has loaded them for its own oracles
    code = f"""
import sys
import cavitylab.cli
from cavitylab import (HilbertSpec, cat_state, default_grid, pure_to_density,
                       radon_of_map, wigner_map)
unloaded = {UNLOADED!r}
print(sorted(m for m in unloaded if m in sys.modules))
rho = pure_to_density(cat_state(HilbertSpec(16), 1.0, 0.0))
radon_of_map(wigner_map(rho, default_grid(1.0, step=0.5)), 0.3)
print(sorted(m for m in unloaded if m in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cavitylab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:2] == ["[]", "[]"]
