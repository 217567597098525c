import numpy as np
import pytest

from quatro.qcore import (
    Circuit,
    NoiseModel,
    PauliString,
    PauliSum,
    PostSelect,
    SimulationError,
    StateVector,
    apply_circuit,
    evolve,
    measure_and_collapse,
    measure_probs,
    run_noisy,
    run_trajectories,
    sample,
)
from .test_pauli import random_hermitian


def taylor_evolve(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """Series-summation oracle for e^{-iHt} psi, summed to machine precision."""
    out = psi.astype(complex).copy()
    term = psi.astype(complex).copy()
    k = 0
    while np.max(np.abs(term)) > 1e-18 and k < 200:
        k += 1
        term = (-1j * t / k) * (h @ term)
        out += term
    return out


class TestEvolve:
    def test_t_zero_is_identity(self):
        psi = StateVector.from_amplitudes(np.arange(1, 5))
        out = evolve(random_hermitian(2, 0), 0.0, psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_eigenstate_picks_up_phase_only(self):
        h = PauliSum(1, {PauliString("Z"): 1.0})
        out = evolve(h, 1.3, StateVector.zero(1))
        assert out.amplitudes[0] == pytest.approx(np.exp(-1.3j))
        assert abs(out.amplitudes[0]) == pytest.approx(1.0)

    def test_matches_taylor_series_oracle(self):
        h = random_hermitian(3, 7)
        rng = np.random.default_rng(11)
        psi = StateVector.from_amplitudes(
            rng.normal(size=8) + 1j * rng.normal(size=8)
        )
        expected = taylor_evolve(h, 0.7, psi.amplitudes)
        out = evolve(h, 0.7, psi)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    def test_norm_preserved(self):
        psi = StateVector.from_amplitudes(np.ones(8))
        out = evolve(random_hermitian(3, 3), 2.1, psi)
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_time_additivity(self):
        h = random_hermitian(2, 9)
        psi = StateVector.from_amplitudes([1, 2, 3, 4])
        once = evolve(h, 0.9, psi)
        split = evolve(h, 0.5, evolve(h, 0.4, psi))
        assert np.max(np.abs(once.amplitudes - split.amplitudes)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(SimulationError):
            evolve(random_hermitian(2, 0), 1.0, StateVector.zero(1))


class TestApplyCircuit:
    def test_empty_circuit(self):
        psi = StateVector.from_amplitudes([1, 1j, -1, 2])
        out = apply_circuit(Circuit(2), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_hadamard(self):
        out = apply_circuit(Circuit(1).h(0), StateVector.zero(1))
        assert np.allclose(out.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_qubit0_is_most_significant(self):
        out = apply_circuit(Circuit(2).x(0), StateVector.zero(2))
        assert abs(out.amplitudes[2]) == pytest.approx(1.0)  # |10>

    def test_generic_unitary_matches_gate(self):
        theta = 0.83
        c_gate = Circuit(1).ry(theta, 0)
        m = np.array(
            [[np.cos(theta / 2), -np.sin(theta / 2)],
             [np.sin(theta / 2), np.cos(theta / 2)]]
        )
        c_u = Circuit(1).unitary(m, 0)
        psi = StateVector.from_amplitudes([0.6, 0.8])
        assert np.allclose(
            apply_circuit(c_gate, psi).amplitudes,
            apply_circuit(c_u, psi).amplitudes,
        )

    def test_two_qubit_unitary(self):
        # SWAP as a generic 2q unitary.
        swap = np.eye(4)[[0, 2, 1, 3]]
        psi = StateVector.from_amplitudes([1, 2, 3, 4])
        out = apply_circuit(Circuit(2).unitary(swap, 0, 1), psi)
        norm = np.linalg.norm([1, 2, 3, 4])
        assert np.allclose(out.amplitudes * norm, [1, 3, 2, 4])

    def test_index_out_of_range(self):
        with pytest.raises(SimulationError):
            Circuit(2).x(2)

    def test_control_equals_target_rejected(self):
        with pytest.raises(SimulationError):
            Circuit(2).cnot(1, 1)


class TestMeasure:
    def test_deterministic_state(self):
        probs = measure_probs(StateVector.zero(2), [0, 1])
        assert probs["00"] == pytest.approx(1.0)

    def test_bell_marginal(self):
        bell = StateVector.from_amplitudes([1, 0, 0, 1])
        probs = measure_probs(bell, [0])
        assert probs["0"] == pytest.approx(0.5)
        assert probs["1"] == pytest.approx(0.5)

    def test_marginals_match_dense_oracle(self):
        rng = np.random.default_rng(5)
        psi = StateVector.from_amplitudes(
            rng.normal(size=8) + 1j * rng.normal(size=8)
        )
        probs = measure_probs(psi, [1, 2])
        dense = np.abs(psi.amplitudes) ** 2
        for key, p in probs.items():
            expected = sum(
                dense[i]
                for i in range(8)
                if format(i, "03b")[1] == key[0] and format(i, "03b")[2] == key[1]
            )
            assert p == pytest.approx(expected, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_target_order_is_respected(self):
        psi = apply_circuit(Circuit(2).x(1), StateVector.zero(2))  # |01>
        assert measure_probs(psi, [0, 1])["01"] == pytest.approx(1.0)
        assert measure_probs(psi, [1, 0])["10"] == pytest.approx(1.0)

    def test_empty_targets_rejected(self):
        with pytest.raises(SimulationError):
            measure_probs(StateVector.zero(1), [])

    def test_collapse(self):
        bell = StateVector.from_amplitudes([1, 0, 0, 1])
        rng = np.random.default_rng(3)
        outcome, post = measure_and_collapse(bell, 0, rng)
        expect = np.zeros(4)
        expect[3 if outcome else 0] = 1.0
        assert np.allclose(np.abs(post.amplitudes) ** 2, expect)


class TestSample:
    def test_deterministic_state_gives_constant_samples(self):
        psi = StateVector.basis(3, 0b101)
        counts = sample(psi, 100, 0)
        assert counts == {"101": 100}

    def test_uniform_within_five_sigma(self):
        psi = apply_circuit(Circuit(1).h(0), StateVector.zero(1))
        shots = 100_000
        counts = sample(psi, shots, 12)
        sigma = np.sqrt(shots * 0.25)
        assert abs(counts["0"] - shots / 2) < 5 * sigma

    def test_same_seed_identical(self):
        psi = apply_circuit(Circuit(2).h(0).h(1), StateVector.zero(2))
        assert sample(psi, 5000, 99) == sample(psi, 5000, 99)

    def test_zero_shots_rejected(self):
        with pytest.raises(SimulationError):
            sample(StateVector.zero(1), 0, 0)


class TestNoise:
    def test_zero_noise_equals_noiseless_sampling(self):
        c = Circuit(2).h(0).cnot(0, 1)
        shots = 20_000
        noisy = run_noisy(c, NoiseModel(0.0, 0.0), shots, 21)
        ideal = sample(apply_circuit(c, StateVector.zero(2)), shots, 33)
        for key in set(noisy) | set(ideal):
            assert abs(noisy.get(key, 0) - ideal.get(key, 0)) < 5 * np.sqrt(shots * 0.25)

    def test_full_noise_gives_maximally_mixed_marginal(self):
        # Averaging over all four Paulis on the touched qubit yields I/2,
        # so both outcomes are equally likely whatever the gate did.
        shots = 100_000
        counts = run_noisy(Circuit(1).x(0), NoiseModel(p1=1.0), shots, 4)
        sigma = np.sqrt(shots * 0.25)
        assert abs(counts["0"] - shots / 2) < 5 * sigma

    def test_noise_determinism(self):
        c = Circuit(2).h(0).cnot(0, 1)
        nm = NoiseModel(0.05, 0.1)
        assert run_noisy(c, nm, 2000, 17) == run_noisy(c, nm, 2000, 17)

    def test_invalid_probability(self):
        with pytest.raises(SimulationError):
            NoiseModel(p1=1.5)


class TestTrajectories:
    # X on qubit 0 as a dense step, then a Bell pair, then keep qubit 1 = 1.
    program = [
        np.kron(PauliString("X").matrix(), np.eye(2)),
        *Circuit(2).h(0).cnot(0, 1).gates,
        PostSelect(1),
    ]

    def test_noise_free_run_is_one_row(self):
        amps, kept, noisy = run_trajectories(
            self.program, StateVector.zero(2), 50, np.random.default_rng(0)
        )
        assert amps.shape == (1, 4) and kept.shape == (1, 1) and noisy.size == 0
        assert kept[0, 0] == pytest.approx(0.5)
        assert np.allclose(amps[0], [0, 0, 0, -1])  # (|00> - |11>)/sqrt2, kept -|11>

    def test_each_noisy_shot_gets_its_own_row(self):
        shots = 50
        amps, kept, noisy = run_trajectories(
            self.program, StateVector.zero(2), shots, np.random.default_rng(0),
            NoiseModel(1.0, 1.0),
        )
        assert np.array_equal(noisy, np.arange(shots))
        assert amps.shape == (1 + shots, 4) and kept.shape == (1 + shots, 1)
        # Kept rows are renormalised; rows with nothing kept are zero.
        norms = np.linalg.norm(amps, axis=1)
        assert np.allclose(norms, kept[:, 0] > 0)
        assert np.allclose(np.abs(amps[:, [0, 2]]), 0.0)


class TestStateVector:
    def test_norm_invariant_enforced(self):
        with pytest.raises(SimulationError):
            StateVector(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StateVector(1, [np.nan, 0.0]),
            lambda: StateVector.from_amplitudes([0, 0]),
            lambda: StateVector.from_amplitudes([np.nan, 1]),
            lambda: StateVector.from_amplitudes([np.inf, 1]),
            lambda: apply_circuit(Circuit(1).ry(np.nan, 0), StateVector.zero(1)),
            lambda: evolve(np.eye(2), np.nan, StateVector.zero(1)),
        ],
        ids=["nan-state", "zero-amplitudes", "nan-amplitudes", "inf-amplitudes",
             "ry-nan", "evolve-t-nan"],
    )
    def test_nan_and_zero_norm_rejected(self, make):
        with pytest.raises(SimulationError):
            make()

    def test_from_amplitudes_normalizes(self):
        psi = StateVector.from_amplitudes([3, 4])
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0)
