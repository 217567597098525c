"""Controls for the benchmark's correctness gate.

The negative controls show that the gate has the statistical power to see
the errors it claims to catch; the positive controls show that it passes a
correct sampler. Run from the repository root:

    python3 -m pytest -q perfbench
"""
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quatro.qcore import Circuit, NoiseModel, StateVector, run_noisy  # noqa: E402
from quatro.walks import WalkModel, absorbing_walk, calibrated_walk_model  # noqa: E402

from layers import Tracer  # noqa: E402
from oracle import (  # noqa: E402
    WalkOracle,
    calibration_ok,
    check_counts,
    circuit_probabilities,
    walk_cells,
)
from workloads import CircuitNoisy, WalkCalibrated, walk_counts  # noqa: E402

MODEL = WalkModel(8, -0.6, 1.0)
PSI0 = StateVector.basis(3, 4)
STEPS = 4


def oracle_cells(noise):
    tables, survival = WalkOracle(3, noise).tables(8, -0.6, 1.0, 1.0, PSI0.amplitudes, STEPS)
    return tables, walk_cells(tables, survival)


def sampled_cells(shots, seed, noise=None):
    result = absorbing_walk(MODEL, PSI0, STEPS, shots=shots, seed=seed, noise=noise)
    return walk_counts(result, shots, STEPS, 8)


def tv(p, q):
    return 0.5 * (np.abs(p - q).sum() + abs(p.sum() - q.sum()))


def test_noise_free_oracle_equals_exact_walk():
    tables, _ = oracle_cells(None)
    exact = absorbing_walk(MODEL, PSI0, STEPS)
    for ours, theirs in zip(tables, exact.tables):
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-14)


def test_oracle_noise_distance_is_ordered():
    ideal = oracle_cells(None)[0][STEPS]
    tvs = [tv(oracle_cells(NoiseModel(p, p))[0][STEPS], ideal) for p in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert tvs[1] == pytest.approx(0.0324, abs=5e-4)
    assert tvs[0] > tvs[1] > tvs[2] > tvs[3] > 0


def test_noisy_sampler_conforms():
    noise = NoiseModel(1e-2, 1e-2)
    assert check_counts(sampled_cells(4000, 5, noise), 4000, oracle_cells(noise)[1]).ok


def test_pooled_check_rejects_noise_free_samples():
    # 40k noise-free shots, as pooled over 20 calls of walk_noisy.
    verdict = check_counts(sampled_cells(40_000, 3), 40_000, oracle_cells(NoiseModel(1e-2, 1e-2))[1])
    assert not verdict.ok
    assert verdict.worst_z > 10


def test_rejects_ten_times_the_noise():
    counts = sampled_cells(1000, 8, NoiseModel(1e-1, 1e-1))
    assert not check_counts(counts, 1000, oracle_cells(NoiseModel(1e-2, 1e-2))[1]).ok


def test_impossible_outcome_is_rejected():
    assert not check_counts([1, 99], 100, [0.0, 1.0]).ok
    assert check_counts([0, 100], 100, [0.0, 1.0]).ok


def test_calibration_check():
    model = calibrated_walk_model(64, 1.0, -6.0)
    assert calibration_ok(model, -6.0)[0]
    assert not calibration_ok(model, -6.5)[0]
    assert not calibration_ok(calibrated_walk_model(64, 1.0, -6.0 + 1e-7), -6.0)[0]


def test_full_single_qubit_noise_gives_identity_over_two():
    circuit, noise = Circuit(1).x(0), NoiseModel(1.0, 0.0)
    probs = circuit_probabilities(circuit, noise)
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)
    shots = 20_000
    counts = run_noisy(circuit, noise, shots=shots, seed=4)
    assert check_counts([counts["0"], counts["1"]], shots, probs).ok


def test_circuit_workload_conforms():
    wl = CircuitNoisy(0)
    inp = wl.next_input()
    record = wl.record(inp, wl.call(inp, lambda name: nullcontext()))
    probs, issues = wl.expected(record)
    assert not issues and check_counts(record["counts"], wl.shots, probs).ok


def test_tracer_counts_public_calls_and_restores_them():
    import quatro.walks as walks

    original = walks.build_walk_hamiltonian
    wl, tracer = WalkCalibrated(0), Tracer()
    tracer.install()
    try:
        with tracer.span("call"):
            wl.call(wl.next_input(), tracer.span)
    finally:
        tracer.uninstall()
    assert walks.build_walk_hamiltonian is original
    layers = tracer.summary("call")
    assert layers["walks.build_walk_hamiltonian.calls"] > 1
    assert layers["sim.run_noisy.ms"] == 0.0 and layers["sim.sample.calls"] == 0
    assert 0 < layers["walks.absorbing_walk.self_ms"] <= layers["walks.absorbing_walk.ms"]
