"""Tests of the closed-form oracle and of the benchmark's metric list.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402

STATES = {
    "coherent": lambda a: oracle.wigner_coherent(a, 1.2 - 0.7j),
    "fock-0": lambda a: oracle.wigner_fock(a, 0),
    "fock-3": lambda a: oracle.wigner_fock(a, 3),
    "even-cat": lambda a: oracle.wigner_cat(a, 2.0, 0.0),
    "odd-cat": lambda a: oracle.wigner_cat(a, 2.0, np.pi),
    "cat-psi": lambda a: oracle.wigner_cat(a, 1.5 + 0.5j, 0.9),
    "mixture": lambda a: oracle.wigner_mixture(a, 2.0),
    "damped-odd-cat": lambda a: oracle.wigner_damped_cat(a, 2.0, np.pi, 1.0, 0.15),
}

AXIS = np.arange(-7.0, 7.0 + 1e-9, 0.04)
ALPHA = AXIS[:, None] + 1j * AXIS[None, :]


@pytest.mark.parametrize("kind", sorted(STATES))
def test_normalized_and_bounded(kind):
    w = STATES[kind](ALPHA)
    assert abs(w.sum() * 0.04 ** 2 / np.pi - 1.0) < 1e-9
    assert np.max(np.abs(w)) <= 2.0 + 1e-12


@pytest.mark.parametrize("beta,psi1,t", [(2.0, 0.0, 0.0), (2.0, np.pi, 0.0),
                                          (1.5 + 0.5j, 0.9, 0.0), (2.0, 0.0, 0.3),
                                          (np.sqrt(5.0), np.pi, 1.0)])
def test_w0_is_twice_parity(beta, psi1, t):
    w0 = oracle.wigner_damped_cat(0.0, beta, psi1, 1.0, t)
    assert abs(w0 - 2.0 * oracle.damped_cat_parity(beta, psi1, 1.0, t)) < 1e-13
    amps, weights = oracle.cat_terms(beta, psi1, 1.0, t)
    assert abs(oracle.dyad_sum_trace(amps, weights) - 1.0) < 1e-13
    assert abs(w0 - 2.0 * oracle.dyad_sum_parity(amps, weights)) < 1e-13


def test_parity_of_undamped_cat_from_fock_amplitudes():
    n = np.arange(80)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    beta = 1.7
    coh = np.exp(-beta ** 2 / 2 + n * np.log(beta) - log_fact / 2)
    for psi1 in (0.0, np.pi, 0.9):
        amps = coh + np.exp(1j * psi1) * coh * (-1.0) ** n
        amps /= np.linalg.norm(amps)
        parity = float(np.sum((-1.0) ** n * np.abs(amps) ** 2))
        assert abs(oracle.wigner_cat(0.0, beta, psi1) - 2.0 * parity) < 1e-12


def test_fock_origin_and_branch_probabilities():
    for n in range(6):
        assert abs(oracle.wigner_fock(0.0, n) - 2.0 * (-1) ** n) < 1e-12
    probs = oracle.prepare_cat_probabilities(3.0)
    assert abs(probs["g"] + probs["e"] - 1.0) < 1e-15
    assert abs(probs["g"] - probs["e"] - np.exp(-18.0)) < 1e-15
    t = np.array([0.0, 8.0])
    assert np.allclose(oracle.p_e2_given_e1(np.sqrt(5.0), 1.0, t), [1.0, 0.0], atol=2e-3)
    assert np.allclose(oracle.p_g2_given_g1(np.sqrt(5.0), 1.0, t), [1.0, 1.0], atol=2e-3)


def test_agrees_with_position_representation_at_promoted_dim():
    cl = pytest.importorskip("cavitylab")
    spec = cl.HilbertSpec(26)
    cases = [
        (cl.pure_to_density(cl.cat_state(spec, 2.0, 0.0)),
         lambda a: oracle.wigner_cat(a, 2.0, 0.0)),
        (cl.pure_to_density(cl.cat_state(spec, 2.0, np.pi)),
         lambda a: oracle.wigner_cat(a, 2.0, np.pi)),
        (cl.mix([cl.coherent_state(spec, 2.0), cl.coherent_state(spec, -2.0)], [0.5, 0.5]),
         lambda a: oracle.wigner_mixture(a, 2.0)),
        (cl.pure_to_density(cl.fock_state(spec, 3)), lambda a: oracle.wigner_fock(a, 3)),
        (cl.evolve(cl.pure_to_density(cl.cat_state(spec, 2.0, 0.0)),
                   cl.DampingModel(kappa=1.0), 0.1),
         lambda a: oracle.wigner_damped_cat(a, 2.0, 0.0, 1.0, 0.1)),
    ]
    big = cl.HilbertSpec(90)
    for rho, closed in cases:
        rho = cl.promote(rho, big)
        for q, p in ((0.0, 0.0), (0.4, -0.3), (2.8, 0.2), (-1.1, 1.7), (4.5, -3.0)):
            alpha = (q + 1j * p) / np.sqrt(2.0)
            assert abs(cl.wigner_position(rho, q, p) - closed(alpha)) < 1e-6


def test_benchmark_json_lists_the_reported_metrics():
    import run
    import tracer

    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert os.path.isfile(BENCH.parent / spec["command"][1])
