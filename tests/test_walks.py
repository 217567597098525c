import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatro.qcore import (
    NoiseModel,
    StateVector,
    apply_circuit,
    evolution_operator,
    pauli_decompose,
    run_trajectories,
)
from quatro.walks import (
    WalkError,
    WalkModel,
    absorbing_walk,
    boundary_detector,
    build_walk_hamiltonian,
    calibrated_walk_model,
    reflecting_walk,
)
from .oracles import dense_walk_matrix, noisy_absorbing_oracle, pauli_dense


def total_variation(p, q):
    """TV distance treating any missing mass as an implicit absorbed outcome."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * (np.abs(p - q).sum() + abs((1.0 - p.sum()) - (1.0 - q.sum())))


def outside_five_sigma(tables, reference, shots):
    """Per arm 1.., whether each sampled state probability lies beyond 5
    binomial sigma of the reference probability."""
    out = []
    for table, ref in zip(tables[1:], reference[1:]):
        sigma = np.sqrt(np.maximum(ref * (1 - ref), 1e-12) / shots)
        out.append(np.abs(table - ref) > 5 * sigma + 1e-9)
    return np.array(out)


class TestHamiltonian:
    def test_construction_by_definition(self):
        dense = build_walk_hamiltonian(WalkModel(4, drift=0.0, coupling=1.0))
        expected = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
        assert np.array_equal(dense, expected)

    def test_zero_coupling_makes_basis_states_stationary(self):
        model = WalkModel(4, drift=-1.5, coupling=0.0)
        dense = build_walk_hamiltonian(model)
        psi = StateVector.basis(2, 2)
        out = evolution_operator(dense, 3.0) @ psi.amplitudes
        assert np.abs(out[2]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_states", [4, 8, 64])
    @pytest.mark.parametrize("drift", [-0.7, 0.0, 0.9])
    @pytest.mark.parametrize("coupling", [-1.3, 0.0, 1.1])
    def test_matches_the_definition(self, n_states, drift, coupling):
        dense = build_walk_hamiltonian(WalkModel(n_states, drift, coupling))
        reference = dense_walk_matrix(n_states, drift, coupling)
        assert np.array_equal(dense, reference)
        assert dense.tobytes() == reference.tobytes()  # signed zeros too

    def test_lattice_beyond_the_decomposer_guard(self):
        # 2048 states = 11 qubits, past pauli_decompose's 10-qubit guard.
        dense = build_walk_hamiltonian(WalkModel(2048, -0.01, 1.0))
        assert np.array_equal(dense, dense_walk_matrix(2048, -0.01, 1.0))

    # A numpy scalar target must not run the bisection in its own dtype.
    @pytest.mark.parametrize("n_states, energy", [(4, -7.22), (64, -4.0), (64, -8.0),
                                                  (64, np.float32(-7.22)), (64, np.float16(-5.0))])
    def test_calibration_hits_paper_ground_energy(self, n_states, energy):
        model = calibrated_walk_model(n_states, coupling=1.0, ground_energy=energy)
        dense = build_walk_hamiltonian(model)
        assert np.linalg.eigvalsh(dense)[0] == pytest.approx(float(energy), abs=1e-9)
        assert type(model.drift) is float

    def test_calibration_to_the_drift_free_ground_energy_stops(self, monkeypatch):
        import quatro.walks as walks

        e0 = np.linalg.eigvalsh(build_walk_hamiltonian(WalkModel(4, 0.0, 1.0)))[0]
        builds = []

        def counted(model):
            builds.append(model)
            return build_walk_hamiltonian(model)

        monkeypatch.setattr(walks, "build_walk_hamiltonian", counted)
        model = calibrated_walk_model(4, 1.0, float(e0))
        assert len(builds) <= 64
        assert model.drift == 0.0

    def test_pauli_form_matches_dense(self):
        dense = build_walk_hamiltonian(WalkModel(8, drift=-0.7, coupling=0.9))
        terms = pauli_decompose(dense)
        assert np.max(np.abs(pauli_dense(terms, 3) - dense)) < 1e-10

    def test_invalid_sizes(self):
        with pytest.raises(WalkError):
            WalkModel(3, 0.0, 1.0)
        with pytest.raises(WalkError):
            WalkModel(4, 0.0, 1.0, dt=0.0)

    @pytest.mark.parametrize("field", ["drift", "coupling", "dt"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameters(self, field, value):
        params = {"drift": -0.5, "coupling": 1.0, "dt": 1.0, field: value}
        with pytest.raises(WalkError):
            WalkModel(4, **params)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: WalkModel(8.0, 0.0, 1.0),
            lambda: WalkModel("8", 0.0, 1.0),
            lambda: WalkModel(8, "1", 1.0),
            lambda: WalkModel(8, None, 1.0),
            lambda: calibrated_walk_model(4.0, 1.0, -1.5),
            lambda: calibrated_walk_model(4, "1", -1.5),
            lambda: calibrated_walk_model(4, 1.0, "x"),
            lambda: calibrated_walk_model(4, 1.0, None),
            lambda: boundary_detector("3"),
            lambda: reflecting_walk(WalkModel(4, -0.5, 1.0), [1, 0, 0, 0], 2),
            lambda: absorbing_walk(WalkModel(4, -0.5, 1.0), [1, 0, 0, 0], 2),
            lambda: reflecting_walk((4, -0.5, 1.0), StateVector.basis(2, 1), 2),
            lambda: absorbing_walk((4, -0.5, 1.0), StateVector.basis(2, 1), 2),
            lambda: WalkModel(4, True, 1.0),
            lambda: WalkModel(4, 0.0, 1.0, dt=True),
            lambda: calibrated_walk_model(4, True, -7.22),
        ],
        ids=["float-states", "str-states", "str-drift", "none-drift", "calibrated-float-states",
             "calibrated-str-coupling", "calibrated-str-target", "calibrated-none-target",
             "detector-str-qubits", "reflecting-list-state", "absorbing-list-state",
             "reflecting-tuple-model", "absorbing-tuple-model", "bool-drift", "bool-dt",
             "calibrated-bool-coupling"],
    )
    def test_non_numeric_parameters(self, make):
        with pytest.raises(WalkError):
            make()

    @pytest.mark.parametrize("params", [(6e307, 0.0, 1.0), (1.0, 1e308, 1.0), (1.0, 0.0, 6e307)],
                             ids=["drift", "coupling", "dt"])
    def test_overflowing_phases_rejected(self, params):
        # Each is finite, but H dt is not: e^{-iH dt} would hold NaN.
        with pytest.raises(WalkError):
            WalkModel(4, *params)

    @pytest.mark.parametrize("energy", [-np.inf, np.nan])
    def test_calibration_rejects_non_finite_target(self, energy):
        with pytest.raises(WalkError):
            calibrated_walk_model(4, 1.0, energy)


class TestReflecting:
    def test_zero_steps_returns_initial_probabilities(self):
        psi = StateVector.from_amplitudes([1, 1, 1, 1])
        res = reflecting_walk(WalkModel(4, -1.0, 1.0), psi, 0)
        assert len(res.tables) == 1
        assert np.allclose(res.tables[0], 0.25)

    def test_symmetric_drift_free_walk_stays_mirror_symmetric(self):
        psi = StateVector.from_amplitudes([0, 1, 1, 0])
        res = reflecting_walk(WalkModel(4, 0.0, 1.0), psi, 5)
        for table in res.tables:
            assert np.allclose(table, table[::-1], atol=1e-10)

    def test_matches_matrix_power_oracle(self):
        model = WalkModel(8, drift=-0.8, coupling=1.1, dt=0.6)
        psi = StateVector.basis(3, 4)
        res = reflecting_walk(model, psi, 4)
        h = dense_walk_matrix(8, -0.8, 1.1)
        evals, evecs = np.linalg.eigh(h)
        u = (evecs * np.exp(-1j * evals * 0.6)) @ evecs.conj().T
        amps = psi.amplitudes
        for k in range(5):
            assert np.max(np.abs(res.tables[k] - np.abs(amps) ** 2)) < 1e-9
            amps = u @ amps

    @pytest.mark.parametrize("steps", [-1, 2.5, "3", True])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(WalkError):
            reflecting_walk(WalkModel(4, -0.5, 1.0), StateVector.basis(2, 1), steps)

    def test_tables_sum_to_one(self):
        psi = StateVector.from_amplitudes(np.arange(1, 9))
        res = reflecting_walk(WalkModel(8, -0.5, 1.0), psi, 6)
        for table in res.tables:
            assert table.sum() == pytest.approx(1.0, abs=1e-9)


class TestDetector:
    def run_detector(self, n, basis_index):
        circ = boundary_detector(n)
        psi = StateVector.basis(n + 1, basis_index << 1)  # ancilla |0>
        return apply_circuit(circ, psi)

    def test_all_zeros_keeps_ancilla_zero(self):
        out = self.run_detector(3, 0b000)
        assert np.abs(out.amplitudes[0b0000]) == pytest.approx(1.0)

    def test_all_ones_keeps_ancilla_zero(self):
        out = self.run_detector(3, 0b111)
        assert np.abs(out.amplitudes[0b1110]) == pytest.approx(1.0)

    def test_interior_state_flags_ancilla(self):
        out = self.run_detector(3, 0b011)
        assert np.abs(out.amplitudes[0b0111]) == pytest.approx(1.0)

    def test_boundary_superposition_keeps_ancilla_zero(self):
        circ = boundary_detector(3)
        amps = np.zeros(16)
        amps[0b0000] = amps[0b1110] = 1 / np.sqrt(2)
        out = apply_circuit(circ, StateVector(4, amps))
        anc1 = np.abs(out.amplitudes.reshape(-1, 2)[:, 1]) ** 2
        assert anc1.sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_full_truth_table_and_magnitude_preservation(self, n):
        circ = boundary_detector(n)
        for basis in range(2**n):
            out = apply_circuit(circ, StateVector.basis(n + 1, basis << 1))
            probs = np.abs(out.amplitudes) ** 2
            hot = int(np.argmax(probs))
            assert probs[hot] == pytest.approx(1.0)  # basis -> basis
            expected_anc = 0 if basis in (0, 2**n - 1) else 1
            assert hot == (basis << 1) | expected_anc

    def test_gate_kinds_restricted(self):
        for n in (2, 3, 5):
            for gate in boundary_detector(n).gates:
                assert gate.kind in {"X", "CNOT", "TOFFOLI"}

    def test_too_small_register(self):
        with pytest.raises(WalkError):
            boundary_detector(1)


class TestAbsorbing:
    def test_single_step_matches_reflecting(self):
        model = WalkModel(8, -0.9, 1.0)
        psi = StateVector.basis(3, 3)
        absorbed = absorbing_walk(model, psi, 1)
        reflected = reflecting_walk(model, psi, 1)
        assert np.allclose(absorbed.tables[1], reflected.tables[1], atol=1e-12)
        assert absorbed.survival[1] == pytest.approx(1.0)

    def test_boundary_start_survival_is_interior_mass(self):
        # Start on a boundary: step 1 measures freely; survival into step 2
        # equals the probability U kept the walker interior, checked with
        # plain 4x4 arithmetic.
        model = WalkModel(4, -0.5, 0.8, dt=0.7)
        psi = StateVector.basis(2, 0)
        res = absorbing_walk(model, psi, 2)
        h = dense_walk_matrix(4, -0.5, 0.8)
        evals, evecs = np.linalg.eigh(h)
        u = (evecs * np.exp(-1j * evals * 0.7)) @ evecs.conj().T
        one = u @ psi.amplitudes
        interior = np.abs(one[1]) ** 2 + np.abs(one[2]) ** 2
        assert res.survival[2] == pytest.approx(interior, abs=1e-12)

    def test_survival_non_increasing(self):
        model = WalkModel(8, -0.6, 1.0)
        psi = StateVector.from_amplitudes(np.ones(8))
        res = absorbing_walk(model, psi, 6)
        for a, b in zip(res.survival, res.survival[1:]):
            assert b <= a + 1e-12

    def test_sampled_matches_exact_within_tv_bound(self):
        model = WalkModel(8, -0.6, 1.0)
        psi = StateVector.basis(3, 4)
        exact = absorbing_walk(model, psi, 4)
        sampled = absorbing_walk(model, psi, 4, shots=100_000, seed=5)
        for k in range(1, 5):
            assert total_variation(exact.tables[k], sampled.tables[k]) <= 0.02

    def test_sampled_within_five_sigma_per_state(self):
        model = WalkModel(8, -0.6, 1.0)
        psi = StateVector.basis(3, 4)
        shots = 100_000
        exact = absorbing_walk(model, psi, 3)
        sampled = absorbing_walk(model, psi, 3, shots=shots, seed=11)
        for k in range(1, 4):
            for p_exact, p_hat in zip(exact.tables[k], sampled.tables[k]):
                sigma = np.sqrt(max(p_exact * (1 - p_exact), 1e-12) / shots)
                assert abs(p_hat - p_exact) <= 5 * sigma + 1e-9

    def test_accepted_trajectories_never_saw_boundary(self):
        # A shot is accepted only if every mid-walk post-selection kept it,
        # so the accepted share at arm k follows the exact probability of
        # surviving all k - 1 boundary projections (0.36, 0.13, 0.048 at
        # arms 2-4); a sampler that checked only the last one fails this.
        model = WalkModel(4, -0.5, 1.0)
        psi = StateVector.basis(2, 1)
        shots = 500
        exact = absorbing_walk(model, psi, 4)
        res = absorbing_walk(model, psi, 4, shots=shots, seed=3)
        for k in range(1, 5):
            p = exact.survival[k]
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(res.accepted_shots[k] / shots - p) <= 5 * sigma + 1e-9
            assert round(res.tables[k].sum() * shots) == res.accepted_shots[k]

    def test_sampled_path_deterministic(self):
        model = WalkModel(4, -0.5, 1.0)
        psi = StateVector.basis(2, 1)
        a = absorbing_walk(model, psi, 3, shots=2000, seed=9)
        b = absorbing_walk(model, psi, 3, shots=2000, seed=9)
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta, tb)

    @pytest.mark.parametrize("noise", [None, NoiseModel(0.0, 0.0), NoiseModel(0.3, 0.3)],
                             ids=["none", "p0", "p0.3"])
    def test_zero_survival_absorbs_every_clean_shot(self, noise):
        # With zero coupling a walker on a boundary stays there: arm 1
        # measures it freely and every later clean shot is absorbed. Noise
        # can still flip the detector, so noisy shots follow the oracle.
        model = WalkModel(4, 0.5, 0.0)
        psi = StateVector.basis(2, 0)
        shots = 500
        res = absorbing_walk(model, psi, 3, shots=shots, seed=1, noise=noise)
        oracle = noisy_absorbing_oracle(model, psi, 3, noise or NoiseModel(0.0, 0.0),
                                        boundary_detector(model.n_qubits).gates)
        assert not outside_five_sigma(res.tables, oracle, shots).any()
        if noise is None or noise.p1 == 0:
            assert res.accepted_shots == [500, 500, 0, 0]

    def test_engine_runs_only_noisy_arms(self, monkeypatch):
        # Noise-free post-selection through the detector is the boundary
        # projection, so clean shots come from the exact tables: a noise-free
        # walk hands the trajectory engine nothing, a noisy one a program per
        # arm for its noisy rows.
        import quatro.walks as walks

        handed = []

        def counted(program, *args, **kwargs):
            handed.append(len(program))
            return run_trajectories(program, *args, **kwargs)

        monkeypatch.setattr(walks, "run_trajectories", counted)
        model, psi = WalkModel(8, -0.6, 1.0), StateVector.basis(3, 4)
        absorbing_walk(model, psi, 8, shots=1000, seed=2)
        assert handed == []
        absorbing_walk(model, psi, 4, shots=1000, seed=2, noise=NoiseModel(1e-2, 1e-2))
        assert len(handed) == 4

    def test_noise_free_memory_does_not_grow_with_shots(self):
        model = WalkModel(64, -0.1, 1.0)
        psi = StateVector.basis(6, 2)
        absorbing_walk(model, psi, 8, shots=10, seed=0)  # compile the gates

        def peak(shots):
            tracemalloc.start()
            try:
                absorbing_walk(model, psi, 8, shots=shots, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 1.5 * peak(2_000)

    @pytest.mark.parametrize("shots, seed",
                             [(0, 0), (2.5, 0), (True, 0), (10, -1), (10, 1.5), (10, True),
                              (2**63, 0)])
    def test_zero_shots_rejected(self, shots, seed):
        model = WalkModel(4, -0.5, 1.0)
        with pytest.raises(WalkError):
            absorbing_walk(model, StateVector.basis(2, 1), 2, shots=shots, seed=seed)

    @pytest.mark.parametrize("excess", [5e-9, -5e-9])
    @pytest.mark.parametrize("shots, noise",
                             [(None, None), (500, None), (500, NoiseModel(0.05, 0.05))],
                             ids=["exact", "sampled", "noisy"])
    def test_off_norm_start_is_accepted(self, shots, noise, excess):
        # Any valid StateVector starts a walk; survival never passes 1.
        exact = StateVector.from_amplitudes([1, 2, 3, 4])
        psi = StateVector(2, exact.amplitudes * np.sqrt(1 + excess))
        res = absorbing_walk(WalkModel(4, -0.5, 1.0), psi, 3, shots=shots, seed=1, noise=noise)
        assert max(res.survival) <= 1 + 1e-12

    @pytest.mark.parametrize("noise", ["x", 0.1, (0.1, 0.1)])
    def test_non_noise_model_rejected(self, noise):
        model = WalkModel(4, -0.5, 1.0)
        with pytest.raises(WalkError):
            absorbing_walk(model, StateVector.basis(2, 1), 2, shots=10, noise=noise)

    @pytest.mark.parametrize("shots", [None, 100])
    @pytest.mark.parametrize("steps", [0, 2.5, "3", True])
    def test_bad_steps_rejected(self, steps, shots):
        model = WalkModel(4, -0.5, 1.0)
        with pytest.raises(WalkError):
            absorbing_walk(model, StateVector.basis(2, 1), steps, shots=shots)


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_walks(draw):
    n_states = draw(st.sampled_from([4, 8]))
    model = WalkModel(n_states, draw(finite), draw(st.just(0.0) | finite),
                      draw(st.floats(1e-3, 10.0)))
    psi = StateVector.basis(model.n_qubits, draw(st.integers(0, n_states - 1)))
    p = draw(st.sampled_from([None, 0.0, 0.05]))
    noise = None if p is None else NoiseModel(p, p)
    return model, psi, draw(st.integers(1, 4)), draw(st.integers(1, 500)), noise


class TestSampledProperties:
    @given(walk=small_walks(), seed=st.integers(0, 2**32))
    def test_tables_are_count_tables(self, walk, seed):
        model, psi, steps, shots, noise = walk
        res = absorbing_walk(model, psi, steps, shots=shots, seed=seed, noise=noise)
        assert np.array_equal(res.tables[0], np.abs(psi.amplitudes) ** 2)
        assert len(res.tables) == len(res.accepted_shots) == steps + 1
        for table, accepted in zip(res.tables[1:], res.accepted_shots[1:]):
            counts = table * shots
            assert table.shape == (model.n_states,)
            assert np.allclose(counts, np.rint(counts), rtol=0, atol=1e-6)
            assert round(counts.sum()) == accepted <= shots


class TestNoisyAbsorbing:
    def test_noise_ordering(self):
        # Noise moves the walk away from ideal, monotonically in p. The
        # true step-4 distances (0.032, 0.0037, 0.00037) lie below the
        # ~0.005 sampling floor of any affordable shot count for the two
        # smaller p, so the ordering is asserted on the exact channel and
        # the sampler is checked per state against that channel instead.
        model = WalkModel(8, -0.6, 1.0)
        psi = StateVector.basis(3, 4)
        steps = 4
        exact = absorbing_walk(model, psi, steps)
        detector = boundary_detector(model.n_qubits).gates

        # Control: with p = 0 the oracle is the noise-free walk.
        clean = noisy_absorbing_oracle(model, psi, steps, NoiseModel(0.0, 0.0), detector)
        for k in range(steps + 1):
            assert np.max(np.abs(clean[k] - exact.tables[k])) < 1e-12

        # Noisy gate locations before the last measurement: the detector
        # and the ancilla reset, once per mid-walk step. With probability
        # (1 - p)^G none fires and the trajectory is ideal, which bounds TV.
        locations = (len(detector) + 1) * (steps - 1)
        probabilities = (1e-2, 1e-3, 1e-4)
        oracles, tvs = [], []
        for p in probabilities:
            oracle = noisy_absorbing_oracle(model, psi, steps, NoiseModel(p, p), detector)
            tv = total_variation(exact.tables[steps], oracle[steps])
            assert tv <= 1 - (1 - p) ** locations
            oracles.append(oracle)
            tvs.append(tv)
        assert tvs[0] > tvs[1] > tvs[2] > 0

        # Power control: a sampler that dropped its noise would fail the
        # conformance check below at p = 1e-2 at this shot count.
        shots = 20_000
        assert outside_five_sigma(exact.tables, oracles[0], shots).any()

        for p, oracle in zip(probabilities, oracles):
            noisy = absorbing_walk(
                model, psi, steps, shots=shots, seed=31, noise=NoiseModel(p, p)
            )
            assert not outside_five_sigma(noisy.tables, oracle, shots).any()

    def test_heavy_noise_conforms_to_oracle(self):
        # At p = 0.2 every Pauli label is injected often enough that a wrong
        # one (a dropped Y, say) moves some state far beyond 5 sigma.
        model = WalkModel(4, -0.3, 0.7, dt=0.8)
        psi = StateVector.from_amplitudes([1, 2j, 1, 0])
        noise = NoiseModel(0.2, 0.1)
        shots = 20_000
        oracle = noisy_absorbing_oracle(model, psi, 4, noise, boundary_detector(2).gates)
        assert outside_five_sigma(absorbing_walk(model, psi, 4).tables, oracle, shots).any()
        noisy = absorbing_walk(model, psi, 4, shots=shots, seed=7, noise=noise)
        assert not outside_five_sigma(noisy.tables, oracle, shots).any()

    def test_reset_noise_conforms_to_oracle(self):
        # Only the reset X and the detector's X gates are noisy here, and a
        # noisy reset leaves the ancilla in |1>, which flags the next step's
        # boundary states as interior, so the reset's noise shows.
        model = WalkModel(8, 0.0, 1.0, dt=0.5)
        psi = StateVector.basis(3, 4)
        noise = NoiseModel(0.3, 0.0)
        detector = boundary_detector(model.n_qubits).gates
        shots = 20_000
        oracle = noisy_absorbing_oracle(model, psi, 4, noise, detector)
        # Power control: a sampler whose reset is noise-free fails at this
        # shot count (the heavy-noise case above cannot tell it apart).
        noise_free_reset = noisy_absorbing_oracle(model, psi, 4, noise, detector, reset=0.0)
        assert outside_five_sigma(noise_free_reset, oracle, shots).any()
        noisy = absorbing_walk(model, psi, 4, shots=shots, seed=7, noise=noise)
        assert not outside_five_sigma(noisy.tables, oracle, shots).any()
