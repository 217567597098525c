import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatro.qcore import (
    Circuit,
    Gate,
    NoiseModel,
    PauliString,
    PauliSum,
    PostSelect,
    SimulationError,
    StateVector,
    apply_circuit,
    evolution_operator,
    evolve,
    measure_and_collapse,
    measure_probs,
    run_noisy,
    run_trajectories,
    sample,
)
from .test_pauli import random_hermitian
from .test_walks import depolarize, gate_unitary


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


# Textbook single-qubit matrices for the reference gates below.
I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]])
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
P1 = np.diag([0, 1])


def ry(t):
    return np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])


def rz(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def rx(t):
    return np.array([[np.cos(t / 2), -1j * np.sin(t / 2)], [-1j * np.sin(t / 2), np.cos(t / 2)]])


def on(n, ops):
    """Kronecker product over qubits 0..n-1 (qubit 0 leftmost) of ``ops[q]``,
    the identity on qubits not in ``ops``."""
    return functools.reduce(np.kron, [ops.get(q, I2) for q in range(n)])


def controlled(n, controls, target, m):
    """I - P + P (x) m, with P the projector onto every control = 1."""
    ones = {c: P1 for c in controls}
    return np.eye(2**n) - on(n, ones) + on(n, {**ones, target: m})


def dense_on(n, qubits, u):
    """Sum of u[r, c] |r><c| spread over ``qubits``, the first qubit being
    the most significant bit of u's index."""
    k, out = len(qubits), 0
    for r, c in itertools.product(range(2**k), repeat=2):
        r_bits, c_bits = format(r, f"0{k}b"), format(c, f"0{k}b")
        units = {q: np.outer(I2[int(a)], I2[int(b)]) for q, a, b in zip(qubits, r_bits, c_bits)}
        out = out + u[r, c] * on(n, units)
    return out


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def noisy_circuit_oracle(circuit, noise):
    """Exact output law of ``run_noisy(circuit, noise, ...)``: the density
    matrix from |0...0>, each gate followed by its depolarizing channel."""
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = gate_unitary(gate, n)
        rho = depolarize(u @ rho @ u.conj().T, noise.gate_probability(gate), gate.qubits, n)
    return np.real(np.diag(rho))


def engine_counts(circuit, noise, shots, seed):
    """``run_noisy`` as one ``run_trajectories`` call, keyed by bitstring."""
    n = circuit.n_qubits
    counts = run_trajectories(circuit.gates, StateVector.zero(n), shots,
                              np.random.default_rng(seed), noise)
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts)}


ARITY = {"H": 1, "X": 1, "RY": 1, "RZ": 1, "CNOT": 2, "CRX": 2, "TOFFOLI": 3, "U1": 1, "U2": 2}


def gate_and_reference(kind, n, q, rng):
    """A one-gate circuit and its full-register matrix, built independently."""
    c, t = Circuit(n), rng.uniform(-np.pi, np.pi)
    if kind == "H":
        return c.h(*q), on(n, {q[0]: H})
    if kind == "X":
        return c.x(*q), on(n, {q[0]: X})
    if kind == "RY":
        return c.ry(t, *q), on(n, {q[0]: ry(t)})
    if kind == "RZ":
        return c.rz(t, *q), on(n, {q[0]: rz(t)})
    if kind == "CNOT":
        return c.cnot(*q), controlled(n, q[:1], q[1], X)
    if kind == "CRX":
        return c.crx(t, *q), controlled(n, q[:1], q[1], rx(t))
    if kind == "TOFFOLI":
        return c.toffoli(*q), controlled(n, q[:2], q[2], X)
    u = haar_unitary(rng, 2 ** len(q))
    return c.unitary(u, *q), dense_on(n, q, u)


class TestGateReference:
    """Every gate kind on every ordered placement of its qubits, from a
    random complex state, against a matrix built in this file."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", list(ARITY))
    def test_matches_textbook_matrix(self, kind, n):
        rng = np.random.default_rng(n)
        shots = 10**6
        for qubits in itertools.permutations(range(n), ARITY[kind]):
            psi = StateVector.from_amplitudes(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
            circuit, full = gate_and_reference(kind, n, qubits, rng)
            expected = full @ psi.amplitudes
            out = apply_circuit(circuit, psi).amplitudes
            assert np.max(np.abs(out - expected)) < 1e-12, qubits
            # The engine only counts outcomes, where a wrong phase does not
            # show until a Haar-random step after the gate mixes it in.
            haar = haar_unitary(rng, 2**n)
            p = np.abs(haar @ expected) ** 2
            counts = run_trajectories([*circuit.gates, haar], psi, shots, rng)
            assert np.all(np.abs(counts - shots * p) <= 5 * np.sqrt(shots * p * (1 - p))), qubits


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

    @pytest.mark.parametrize(
        "matrix",
        [2 * np.eye(2), [[1, 1], [0, 1]], np.full((2, 2), np.nan), np.eye(4)[[0, 1, 3, 3]]],
        ids=["scaled", "shear", "nan", "singular-2q"],
    )
    def test_non_unitary_matrix_rejected(self, matrix):
        with pytest.raises(SimulationError):
            Circuit(2).unitary(matrix, *range(int(np.log2(len(matrix)))))

    def test_distinct_angles_retain_bounded_memory(self):
        # Compiled gates are cached; thousands of distinct angles must not all
        # stay alive (a bounded cache retains about 0.4 MB, an unbounded one 5 MB).
        rng = np.random.default_rng(0)
        psi = StateVector.zero(6)
        apply_circuit(Circuit(6).ry(0.5, 3), psi)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for theta in rng.uniform(0, 2 * np.pi, 2000):
                apply_circuit(Circuit(6).ry(theta, 3), psi)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2_000_000


class TestInputChecks:
    """Malformed gates, states and operators raise typed errors when built
    or on entry, not numpy errors when run."""

    @pytest.mark.parametrize(
        "gate",
        [
            lambda: Gate("RY", (0,)),
            lambda: Gate("RZ", (0,), param=np.inf),
            lambda: Gate("CRX", (0, 1), param="0.5"),
            lambda: Gate("U", (0,)),
            lambda: Gate("U", (0, 1, 2), matrix=np.eye(8)),
            lambda: Gate("U", (0,), matrix=2 * np.eye(2)),
            lambda: Gate("SWAP", (0, 1)),
            lambda: Gate(0, (0,)),
            lambda: Gate("CNOT", (0,)),
            lambda: Gate("X", (0, 1)),
            lambda: Gate("CNOT", (1, 1)),
            lambda: Gate("X", (-1,)),
            lambda: Gate("X", (0.5,)),
        ],
        ids=["ry-no-angle", "rz-inf-angle", "crx-str-angle", "u-no-matrix", "u-3q",
             "u-non-unitary", "unknown-kind", "projector-key", "cnot-arity", "x-arity",
             "repeated-qubit", "negative-qubit", "float-qubit"],
    )
    def test_malformed_gate_rejected(self, gate):
        with pytest.raises(SimulationError):
            gate()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StateVector.from_amplitudes([1]),
            lambda: StateVector.from_amplitudes([]),
            lambda: StateVector.from_amplitudes([1, 0, 0]),
            lambda: StateVector.from_amplitudes([[1, 0], [0, 0]]),
            lambda: StateVector(0, [1]),
        ],
        ids=["one-amplitude", "no-amplitudes", "three-amplitudes", "matrix", "zero-qubits"],
    )
    def test_malformed_state_rejected(self, make):
        with pytest.raises(SimulationError):
            make()

    @pytest.mark.parametrize(
        "h",
        [
            np.array([[0, 1], [0, 0]]),
            np.array([[1, 1j], [1j, 1]]),
            np.array([[np.nan, 0], [0, 1]]),
            np.array([[np.inf, 0], [0, 1]]),
            np.ones((2, 3)),
            np.ones(2),
        ],
        ids=["upper-triangular", "complex-symmetric", "nan", "inf", "rectangular", "vector"],
    )
    @pytest.mark.parametrize(
        "run",
        [lambda h: evolve(h, 0.5, StateVector.zero(1)), lambda h: evolution_operator(h, 0.5)],
        ids=["evolve", "evolution_operator"],
    )
    def test_non_hermitian_operator_rejected(self, run, h):
        with pytest.raises(SimulationError):
            run(h)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StateVector.basis(2, -1),
            lambda: StateVector.basis(2, 4),
            lambda: StateVector.basis(2, 1.0),
            lambda: evolution_operator(np.eye(2), np.nan),
            lambda: evolution_operator(np.eye(2), np.inf),
            lambda: evolution_operator(np.eye(2), 1j),
            lambda: evolve(np.eye(2), "0.5", StateVector.zero(1)),
            lambda: PostSelect(0.5),
            lambda: PostSelect(-1),
            lambda: sample(StateVector.zero(1), 10, -1),
            lambda: run_noisy(Circuit(1).x(0), NoiseModel(0.1), 10, -1),
            lambda: run_trajectories([], StateVector.zero(1), -1, np.random.default_rng(0)),
            lambda: run_trajectories([], StateVector.zero(1), 0, np.random.default_rng(0)),
            lambda: run_trajectories([], StateVector.zero(1), 2.0, np.random.default_rng(0)),
            lambda: StateVector.zero(-1),
            lambda: StateVector.zero(2.5),
            lambda: StateVector.basis(-1, 0),
            lambda: measure_probs(StateVector.zero(2), [0.5]),
        ],
        ids=["basis-negative", "basis-past-register", "basis-float", "evolution-time-nan",
             "evolution-time-inf", "evolution-time-complex", "evolve-time-str",
             "post-select-float", "post-select-negative", "sample-negative-seed",
             "run-noisy-negative-seed", "trajectories-negative-shots",
             "trajectories-zero-shots", "trajectories-float-shots", "zero-negative-qubits",
             "zero-float-qubits", "basis-negative-qubits", "measure-float-target"],
    )
    def test_bad_argument_rejected(self, make):
        with pytest.raises(SimulationError):
            make()


class TestRegisterChecks:
    """Programs are checked against the register before they run."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda rng: run_trajectories(Circuit(3).x(2).gates, StateVector.zero(2), 10, rng),
            lambda rng: run_trajectories(Circuit(3).cnot(2, 0).gates, StateVector.zero(2), 10,
                                         rng, NoiseModel(0.5, 0.5)),
            lambda rng: apply_circuit(Circuit(2, Circuit(3).x(2).gates), StateVector.zero(2)),
            lambda rng: run_trajectories([PostSelect(2)], StateVector.zero(2), 10, rng),
            lambda rng: run_trajectories([PostSelect(-1)], StateVector.zero(2), 10, rng),
            lambda rng: run_trajectories([np.eye(2)], StateVector.zero(2), 10, rng),
            lambda rng: measure_and_collapse(StateVector.zero(2), 2, rng),
        ],
        ids=["gate", "noisy-gate", "apply-circuit", "post-select", "post-select-negative",
             "dense-step", "collapse"],
    )
    def test_out_of_register_rejected(self, run):
        with pytest.raises(SimulationError):
            run(np.random.default_rng(0))


@st.composite
def random_circuits(draw):
    """A circuit of any gate kinds, placements and angles on 2-5 qubits."""
    n = draw(st.integers(2, 5))
    circuit = Circuit(n)
    angles = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from([k for k, a in ARITY.items() if a <= n]))
        qubits = tuple(draw(st.permutations(range(n)))[: ARITY[kind]])
        if kind in ("RY", "RZ", "CRX"):
            circuit.gates.append(Gate(kind, qubits, param=draw(angles)))
        elif kind in ("U1", "U2"):
            rng = np.random.default_rng(draw(st.integers(0, 2**32)))
            circuit.unitary(haar_unitary(rng, 2 ** len(qubits)), *qubits)
        else:
            circuit.gates.append(Gate(kind, qubits))
    return circuit


class TestCircuitProperties:
    @given(circuit=random_circuits(), seed=st.integers(0, 2**32))
    def test_norm_is_preserved(self, circuit, seed):
        rng = np.random.default_rng(seed)
        dim = 2**circuit.n_qubits
        psi = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        out = apply_circuit(circuit, psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


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

    @pytest.mark.parametrize("shots", [0, 2.5])
    @pytest.mark.parametrize(
        "run",
        [lambda shots: sample(StateVector.zero(1), shots, 0),
         lambda shots: run_noisy(Circuit(1).x(0), NoiseModel(0.1), shots, 0)],
        ids=["sample", "run_noisy"],
    )
    def test_zero_shots_rejected(self, run, shots):
        with pytest.raises(SimulationError):
            run(shots)


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

    @pytest.mark.parametrize("run", [run_noisy, engine_counts], ids=["run_noisy", "engine"])
    def test_conforms_to_density_matrix_oracle(self, run):
        # Every gate kind, with H on the controls last so that errors on a
        # control show. A copy that twirls only a 2-qubit gate's target is
        # about 12 sigma off in some cell at this shot count.
        rng = np.random.default_rng(0)
        circuit = (Circuit(3).h(0).h(1).cnot(0, 2).toffoli(0, 1, 2).crx(0.9, 2, 1).rz(1.1, 0)
                   .ry(0.7, 2).x(1).unitary(haar_unitary(rng, 2), 2).h(0).h(1)
                   .unitary(haar_unitary(rng, 4), 0, 1))
        noise = NoiseModel(0.02, 0.3)
        shots = 8000
        law = noisy_circuit_oracle(circuit, noise)
        sigma = np.sqrt(shots * law * (1 - law))
        # Power control: charging 2-qubit gates p1 moves some cell far out.
        as_p1 = noisy_circuit_oracle(circuit, NoiseModel(noise.p1, noise.p1))
        assert np.max(np.abs(as_p1 - law) * shots / sigma) > 10
        counts = run(circuit, noise, shots, 5)
        observed = np.array([counts.get(format(i, "03b"), 0) for i in range(8)])
        assert np.all(np.abs(observed - shots * law) <= 5 * sigma)


class TestTrajectories:
    # X on qubit 0 as a dense step, then a Bell pair, then keep qubit 1 = 1.
    program = [
        np.kron(PauliString("X").matrix(), np.eye(2)),
        *Circuit(2).h(0).cnot(0, 1).gates,
        PostSelect(1),
    ]
    shots = 10_000

    def test_noise_free_counts_fall_on_the_kept_outcome(self):
        # (|00> - |11>)/sqrt2: half the shots keep qubit 1 = 1, all on |11>.
        counts = run_trajectories(
            self.program, StateVector.zero(2), self.shots, np.random.default_rng(0)
        )
        assert counts.shape == (4,) and counts[:3].sum() == 0
        assert abs(counts[3] - self.shots / 2) <= 5 * np.sqrt(self.shots / 4)

    def test_noisy_shots_are_discarded_at_the_exact_rate(self):
        # Every gate is followed by an event, so every shot is a noisy row.
        # The twirl after the CNOT leaves I/4, so a shot passes with p = 1/2.
        counts = run_trajectories(
            self.program, StateVector.zero(2), self.shots, np.random.default_rng(0),
            NoiseModel(1.0, 1.0),
        )
        assert counts[0] == counts[2] == 0
        discarded = self.shots - counts.sum()
        assert abs(discarded - self.shots / 2) <= 5 * np.sqrt(self.shots / 4)


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
