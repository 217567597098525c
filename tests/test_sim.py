import dataclasses
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
    PostSelect,
    SimulationError,
    StateVector,
    apply_circuit,
    draw_counts,
    evolution_operator,
    run_noisy,
    run_trajectories,
)
from .oracles import gate_matrix, haar_unitary, noisy_circuit_oracle, pauli_matrix, random_hermitian


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


def engine_counts(circuit, noise, shots, seed):
    """``run_noisy`` as one ``run_trajectories`` call, keyed by bitstring."""
    n = circuit.n_qubits
    counts = run_trajectories(circuit.gates, StateVector.zero(n), shots,
                              np.random.default_rng(seed), noise)
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts)}


def axis_kept_share(axis, labels):
    """Exact share of shots that read 0 when the +1 eigenstate of the Pauli
    ``axis`` takes a Pauli drawn uniformly from ``labels`` and is rotated
    back to the Z axis."""
    plus = np.linalg.eigh(pauli_matrix(axis))[1][:, 1]  # eigenvalues ascend: -1, +1
    return np.mean([abs(plus.conj() @ pauli_matrix(p) @ plus) ** 2 for p in labels])


ARITY = {"H": 1, "X": 1, "RY": 1, "RZ": 1, "CNOT": 2, "CRX": 2, "TOFFOLI": 3, "U1": 1, "U2": 2}


def gate_and_reference(kind, n, q, rng):
    """A one-gate circuit, built through its ``Circuit`` builder, and the
    gate's textbook full-register matrix."""
    c, t = Circuit(n), rng.uniform(-np.pi, np.pi)
    builders = {"H": c.h, "X": c.x, "CNOT": c.cnot, "TOFFOLI": c.toffoli,
                "RY": functools.partial(c.ry, t), "RZ": functools.partial(c.rz, t),
                "CRX": functools.partial(c.crx, t)}
    if kind in builders:
        builders[kind](*q)
    else:
        c.unitary(haar_unitary(rng, 2 ** len(q)), *q)
    return c, gate_matrix(c.gates[0], n)


class TestGateReference:
    """Every gate kind on every ordered placement of its qubits, from a
    random complex state, against its textbook matrix from ``oracles``."""

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
    """``evolution_operator(h, t) @ psi`` is the one evolution path."""

    def test_t_zero_is_identity(self):
        psi = StateVector.from_amplitudes(np.arange(1, 5))
        out = evolution_operator(random_hermitian(2, 0), 0.0) @ psi.amplitudes
        assert np.allclose(out, psi.amplitudes)

    def test_eigenstate_picks_up_phase_only(self):
        h = pauli_matrix("Z")
        out = evolution_operator(h, 1.3) @ StateVector.zero(1).amplitudes
        assert out[0] == pytest.approx(np.exp(-1.3j))
        assert abs(out[0]) == pytest.approx(1.0)

    def test_matches_taylor_series_oracle(self):
        h = random_hermitian(3, 7)
        rng = np.random.default_rng(11)
        psi = StateVector.from_amplitudes(
            rng.normal(size=8) + 1j * rng.normal(size=8)
        )
        expected = taylor_evolve(h, 0.7, psi.amplitudes)
        out = evolution_operator(h, 0.7) @ psi.amplitudes
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_norm_preserved(self):
        psi = StateVector.from_amplitudes(np.ones(8))
        out = evolution_operator(random_hermitian(3, 3), 2.1) @ psi.amplitudes
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_time_additivity(self):
        h = random_hermitian(2, 9)
        psi = StateVector.from_amplitudes([1, 2, 3, 4])
        once = evolution_operator(h, 0.9) @ psi.amplitudes
        split = evolution_operator(h, 0.5) @ (evolution_operator(h, 0.4) @ psi.amplitudes)
        assert np.max(np.abs(once - split)) < 1e-9


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

    def test_unitary_keeps_its_own_matrix(self):
        # A write to the caller's array after the unitarity check must not
        # reach the gate: a non-unitary step would lose mass that the engine
        # reads as discarded shots.
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        c = Circuit(1).unitary(m, 0)
        m[0, 0] = 0.5
        assert c.gates[0].matrix.tolist() == [[0, 1], [1, 0]]
        assert np.allclose(apply_circuit(c, StateVector.zero(1)).amplitudes, [0, 1])
        counts = run_trajectories(c.gates, StateVector.zero(1), 1000, np.random.default_rng(1))
        assert counts.tolist() == [0, 1000]

    @pytest.mark.parametrize("mutate", [lambda qs: qs.__setitem__(1, 0), lambda qs: qs.append(2)],
                             ids=["overwrite", "append"])
    def test_gate_keeps_its_own_qubits(self, mutate):
        # A write to the caller's list after the checks must not reach the
        # gate: a repeated or extra qubit would break its compiled gather.
        qubits = [0, 1]
        gate = Gate("CNOT", qubits)
        mutate(qubits)
        assert gate.qubits == (0, 1)
        out = apply_circuit(Circuit(2, [gate]), StateVector.basis(2, 2))
        assert out.probabilities().tolist() == [0, 0, 0, 1]
        counts = run_trajectories([gate], StateVector.basis(2, 2), 100,
                                  np.random.default_rng(1), NoiseModel(0.5, 0.5))
        assert counts.sum() == 100

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
            lambda: Gate(1, (0,)),
            lambda: Gate("CNOT", (0,)),
            lambda: Gate("X", (0, 1)),
            lambda: Gate("CNOT", (1, 1)),
            lambda: Gate("X", (-1,)),
            lambda: Gate("X", (0.5,)),
            lambda: Gate("X", (True,)),
            lambda: Gate("U", (0,), matrix="ab"),
            lambda: Circuit(1).unitary("ab", 0),
            lambda: Gate("X", 0),
            lambda: Gate("X", (0,), matrix=[[1, 0], [0, 1]]),
            lambda: Gate("RY", (0,), 0.5, matrix="ab"),
            lambda: Gate("X", (0,), param=float("nan")),
            lambda: Gate("H", (0,), param=0.3),
            lambda: Gate("I", (0,)),
            lambda: Gate("Y", (0,)),
            lambda: Gate("Z", (0,)),
            lambda: Gate("CNOT", (0, 1), param=0.3),
            lambda: Gate("TOFFOLI", (0, 1, 2), param=0.3),
            lambda: Gate("U", (0,), param=0.3, matrix=np.eye(2)),
        ],
        ids=["ry-no-angle", "rz-inf-angle", "crx-str-angle", "u-no-matrix", "u-3q",
             "u-non-unitary", "unknown-kind", "projector-key", "cnot-arity", "x-arity",
             "repeated-qubit", "negative-qubit", "float-qubit", "bool-qubit", "u-str-matrix",
             "unitary-str-matrix", "int-qubits", "x-list-matrix", "ry-str-matrix",
             "x-nan-angle", "h-angle", "i-kind", "y-kind", "z-kind", "cnot-angle",
             "toffoli-angle", "u-angle"],
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
            lambda: StateVector(1, "ab"),
            lambda: StateVector.from_amplitudes("ab"),
            lambda: StateVector(1, [1e200, 0]),
            lambda: StateVector(1, [1e155, 0]),
        ],
        ids=["one-amplitude", "no-amplitudes", "three-amplitudes", "matrix", "zero-qubits",
             "str-amplitudes", "from-str-amplitudes", "1e200-amplitude", "1e155-amplitude"],
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
            "ab",
        ],
        ids=["upper-triangular", "complex-symmetric", "nan", "inf", "rectangular", "vector",
             "str"],
    )
    @pytest.mark.parametrize(
        "run",
        [lambda h: evolution_operator(h, 0.5)],
        ids=["evolution_operator"],
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
            lambda: evolution_operator(np.eye(2), "0.5"),
            lambda: PostSelect(0.5),
            lambda: PostSelect(-1),
            lambda: run_noisy(Circuit(1).x(0), NoiseModel(0.1), 10, -1),
            lambda: run_trajectories([], StateVector.zero(1), -1, np.random.default_rng(0)),
            lambda: run_trajectories([], StateVector.zero(1), 0, np.random.default_rng(0)),
            lambda: run_trajectories([], StateVector.zero(1), 2.0, np.random.default_rng(0)),
            lambda: StateVector.zero(-1),
            lambda: StateVector.zero(2.5),
            lambda: StateVector.basis(-1, 0),
            lambda: Circuit(1).ry(None, 0),
            lambda: Circuit(1).ry("a", 0),
            lambda: Circuit(2.5),
            lambda: Circuit(0),
            lambda: NoiseModel("0.1"),
            lambda: NoiseModel(None),
            lambda: StateVector.basis(1, True),
            lambda: Circuit(True),
            lambda: PostSelect(False),
            lambda: run_noisy(Circuit(1).x(0), None, True, 0),
            lambda: run_noisy(Circuit(1).x(0), "x", 10, 0),
            lambda: run_trajectories(Circuit(1).x(0).gates, StateVector.zero(1), 10,
                                     np.random.default_rng(0), "x"),
            lambda: run_trajectories([], StateVector.zero(1), 3, "rng"),
            lambda: run_trajectories([], StateVector.zero(1), 3, 0),
            lambda: apply_circuit(Circuit(1).x(0), [1, 0]),
            lambda: apply_circuit("c", StateVector.zero(1)),
            lambda: run_noisy("c", None, 3, 0),
            lambda: run_trajectories([Gate("X", (0,))], [1, 0], 3, np.random.default_rng(0)),
            lambda: run_noisy(Circuit(1).x(0), None, 2**63, 0),
            lambda: evolution_operator(np.eye(2), True),
            lambda: NoiseModel(True, False),
            lambda: Circuit(1).ry(True, 0),
        ],
        ids=["basis-negative", "basis-past-register", "basis-float", "evolution-time-nan",
             "evolution-time-inf", "evolution-time-complex", "evolve-time-str",
             "post-select-float", "post-select-negative", "run-noisy-negative-seed",
             "trajectories-negative-shots", "trajectories-zero-shots", "trajectories-float-shots",
             "zero-negative-qubits", "zero-float-qubits", "basis-negative-qubits", "ry-none-angle",
             "ry-str-angle", "circuit-float-qubits", "circuit-zero-qubits",
             "noise-str-probability", "noise-none-probability", "basis-bool-index",
             "circuit-bool-qubits", "post-select-bool", "run-noisy-bool-shots",
             "run-noisy-str-noise", "trajectories-str-noise", "trajectories-str-rng",
             "trajectories-int-rng", "apply-circuit-list-state", "apply-circuit-str-circuit",
             "run-noisy-str-circuit", "trajectories-list-state",
             "run-noisy-int64-overflow-shots", "evolution-time-bool", "noise-bool-probability",
             "ry-bool-angle"],
    )
    def test_bad_argument_rejected(self, make):
        with pytest.raises(SimulationError):
            make()


class TestRegisterChecks:
    """Programs are checked against the register, and for steps the engine
    runs, before they run."""

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
            lambda rng: run_trajectories([0.5 * np.eye(2)], StateVector.zero(1), 10, rng),
            lambda rng: run_trajectories([np.full((2, 2), np.nan)], StateVector.zero(1), 10, rng),
        ],
        ids=["gate", "noisy-gate", "apply-circuit", "post-select", "post-select-negative",
             "dense-step", "dense-non-unitary", "dense-nan"],
    )
    def test_out_of_register_rejected(self, run):
        with pytest.raises(SimulationError):
            run(np.random.default_rng(0))

    @pytest.mark.parametrize(
        "run, match",
        [
            (lambda rng: run_trajectories(Circuit(1).x(0), StateVector.zero(1), 10, rng),
             "circuit.gates"),
            (lambda rng: run_trajectories(None, StateVector.zero(1), 10, rng), "circuit.gates"),
            (lambda rng: apply_circuit(Circuit(1, [np.eye(2)]), StateVector.zero(1)),
             "must be a Gate"),
            (lambda rng: apply_circuit(Circuit(1, [PostSelect(0)]), StateVector.zero(1)),
             "must be a Gate"),
            (lambda rng: run_noisy(Circuit(1, [PostSelect(0)]), None, 10, 0), "must be a Gate"),
            (lambda rng: run_noisy(Circuit(1, [np.eye(2)]), None, 10, 0), "must be a Gate"),
            (lambda rng: apply_circuit(Circuit(1, None), StateVector.zero(1)), "must be a list"),
        ],
        ids=["circuit-program", "none-program", "apply-circuit-dense", "apply-circuit-post-select",
             "run-noisy-post-select", "run-noisy-dense", "none-gates"],
    )
    def test_step_the_runner_cannot_run_rejected(self, run, match):
        with pytest.raises(SimulationError, match=match):
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


@st.composite
def composed_circuits(draw):
    """Up to 8 gates of any kind and placement on 2-5 qubits, each built
    through a ``Circuit`` builder, with the product of their reference
    matrices."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    circuit, full = Circuit(n), np.eye(2**n)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([k for k, a in ARITY.items() if a <= n]))
        qubits = tuple(draw(st.permutations(range(n)))[: ARITY[kind]])
        one, reference = gate_and_reference(kind, n, qubits, rng)
        circuit.gates += one.gates
        full = reference @ full
    return circuit, full


class TestCircuitProperties:
    @given(circuit=random_circuits(), seed=st.integers(0, 2**32))
    def test_norm_is_preserved(self, circuit, seed):
        rng = np.random.default_rng(seed)
        dim = 2**circuit.n_qubits
        psi = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        out = apply_circuit(circuit, psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    @given(composed=composed_circuits(), seed=st.integers(0, 2**32))
    def test_composition_matches_textbook_product(self, composed, seed):
        circuit, full = composed
        rng = np.random.default_rng(seed)
        dim = 2**circuit.n_qubits
        psi = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        out = apply_circuit(circuit, psi).amplitudes
        assert np.max(np.abs(out - full @ psi.amplitudes)) <= 1e-12


class TestSample:
    @pytest.mark.parametrize("shots", [0, 2.5])
    @pytest.mark.parametrize(
        "run",
        [lambda shots: run_noisy(Circuit(1).x(0), NoiseModel(0.1), shots, 0)],
        ids=["run_noisy"],
    )
    def test_zero_shots_rejected(self, run, shots):
        with pytest.raises(SimulationError):
            run(shots)


class TestDrawCounts:
    @pytest.mark.parametrize(
        "cells, shots, rng",
        [
            ([0.5, np.nan], 10, np.random.default_rng(0)),
            ([0.5, np.inf], 10, np.random.default_rng(0)),
            ([0.5, -np.inf], 10, np.random.default_rng(0)),
            ([0.5, -1e-3], 10, np.random.default_rng(0)),
            ([0.5, 0.5 + 1e-9], 10, np.random.default_rng(0)),
            ([[0.5, 0.5]], 10, np.random.default_rng(0)),
            (["a", "b"], 10, np.random.default_rng(0)),
            ([0.5, 0.5], -1, np.random.default_rng(0)),
            ([0.5, 0.5], 2.5, np.random.default_rng(0)),
            ([0.5, 0.5], True, np.random.default_rng(0)),
            ([0.5, 0.5], 10, "rng"),
            ([0.5, 0.5], 10, None),
            ([0.5], 2**63, np.random.default_rng(0)),
        ],
        ids=["nan", "inf", "-inf", "negative", "sum-past-one", "2d", "str", "negative-shots",
             "float-shots", "bool-shots", "str-rng", "none-rng", "int64-overflow-shots"],
    )
    def test_malformed_input_rejected(self, cells, shots, rng):
        with pytest.raises(SimulationError):
            draw_counts(cells, shots, rng)

    def test_zero_shots_give_zeros(self):
        counts = draw_counts([0.2, 0.3, 0.5], 0, np.random.default_rng(0))
        assert counts.tolist() == [0, 0, 0]

    def test_missing_mass_is_drawn_but_not_counted(self):
        shots, kept = 100_000, 0.6
        counts = draw_counts([0.2, 0.4], shots, np.random.default_rng(1))
        assert abs(counts.sum() - kept * shots) <= 5 * np.sqrt(shots * kept * (1 - kept))

    def test_certain_outcome_takes_every_shot(self):
        assert draw_counts([1.0, 0.0], 1000, np.random.default_rng(2)).tolist() == [1000, 0]

    def test_counts_are_int64(self):
        assert draw_counts([0.5, 0.5], 10, np.random.default_rng(3)).dtype == np.int64

    def test_largest_int64_shot_count_is_drawn(self):
        (kept,) = draw_counts([0.5], 2**63 - 1, np.random.default_rng(4))
        assert 0 < kept < 2**63 - 1


class TestNoise:
    def test_zero_noise_equals_noiseless_sampling(self):
        c = Circuit(2).h(0).cnot(0, 1)
        shots = 20_000
        noisy = run_noisy(c, NoiseModel(0.0, 0.0), shots, 21)
        probs = apply_circuit(c, StateVector.zero(2)).probabilities()
        ideal = {format(i, "02b"): int(k)
                 for i, k in enumerate(draw_counts(probs, shots, np.random.default_rng(33)))}
        for key in set(noisy) | set(ideal):
            assert abs(noisy.get(key, 0) - ideal.get(key, 0)) < 5 * np.sqrt(shots * 0.25)

    def test_full_noise_gives_maximally_mixed_marginal(self):
        # Averaging over all four Paulis on the touched qubit yields I/2,
        # so both outcomes are equally likely whatever the gate did.
        shots = 100_000
        counts = run_noisy(Circuit(1).x(0), NoiseModel(p1=1.0), shots, 4)
        sigma = np.sqrt(shots * 0.25)
        assert abs(counts["0"] - shots / 2) < 5 * sigma

    def test_no_noise_model_means_no_noise(self):
        shots = 20_000
        counts = run_noisy(Circuit(2).h(0).cnot(0, 1), None, shots, 8)
        assert set(counts) == {"00", "11"}
        for key in counts:
            assert abs(counts[key] - shots / 2) < 5 * np.sqrt(shots * 0.25)

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

    @pytest.mark.parametrize("run", [run_noisy, engine_counts], ids=["run_noisy", "engine"])
    def test_event_rate_conforms_to_oracle(self, run):
        # 14 one-qubit and 12 two-qubit gates, each rate charged many times
        # per shot, so that the counts see a wrong rate of either arity.
        circuit = Circuit(2).h(0)
        for _ in range(12):
            circuit.x(1).cnot(0, 1)
        circuit.h(0)
        noise = NoiseModel(0.02, 0.1)
        shots = 20_000
        law = noisy_circuit_oracle(circuit, noise)
        sigma = np.sqrt(shots * law * (1 - law))
        # Power controls, exact: p1 and p2 swapped reach z = 11.8, and each p
        # as p / (1 - p), the event rate of geometric gaps drawn one short
        # when repeats count, reaches z = 6.9.
        for wrong in (NoiseModel(noise.p2, noise.p1),
                      NoiseModel(noise.p1 / (1 - noise.p1), noise.p2 / (1 - noise.p2))):
            assert np.max(np.abs(noisy_circuit_oracle(circuit, wrong) - law) * shots / sigma) > 5
        counts = run(circuit, noise, shots, 0)
        observed = np.array([counts.get(format(i, "02b"), 0) for i in range(4)])
        assert np.all(np.abs(observed - shots * law) <= 5 * sigma)

    @pytest.mark.parametrize("run", [run_noisy, engine_counts], ids=["run_noisy", "engine"])
    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1 - 2**-53, 1.0],
                             ids=["subnormal", "1e-300", "below-1", "1"])
    def test_extreme_probability_gives_valid_counts(self, run, p):
        # Gaps come from log(u) / log1p(-p): a subnormal p must not overflow
        # the quotient, nor a tiny one cast a huge gap to an integer, and
        # p = 1 leaves no gap between events.
        shots = 2000
        counts = run(Circuit(2).h(0).cnot(0, 1), NoiseModel(p, p), shots, 3)
        seen = {key for key, count in counts.items() if count}
        assert sum(counts.values()) == shots and seen <= {"00", "01", "10", "11"}
        # Rare events leave the Bell pair's outcomes alone; certain (or all
        # but certain) ones leave every outcome a quarter of the shots.
        assert seen == ({"00", "11"} if p < 0.5 else {"00", "01", "10", "11"})

    @pytest.mark.parametrize("run", [run_noisy, engine_counts], ids=["run_noisy", "engine"])
    def test_rare_noise_memory_does_not_grow_with_shots(self, run):
        # 10**9 shots at p = 1e-300 expect no event, so nothing the size of
        # the shots, or of shots x gates, may be allocated.
        tracemalloc.start()
        try:
            counts = run(Circuit(1).x(0), NoiseModel(1e-300), 10**9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts["1"] == 10**9 and peak < 2**20

    @pytest.mark.parametrize("run", [run_noisy, engine_counts], ids=["run_noisy", "engine"])
    @pytest.mark.parametrize("axis", "XYZ")
    def test_twirl_flips_every_axis_half_the_time(self, run, axis):
        # Noise-free gates put qubit 0 on ``axis`` and take it back. Between
        # them, a CNOT whose control stays 0 acts as the identity, and its
        # certain depolarizing event twirls qubit 0; two of I, X, Y and Z
        # flip each axis.
        h, rz = Gate("H", (0,)), Gate("RZ", (0,), np.pi / 2)
        prep = {"Z": [], "X": [h], "Y": [h, rz]}[axis]
        undo = {"Z": [], "X": [h], "Y": [Gate("RZ", (0,), -np.pi / 2), h]}[axis]
        circuit = Circuit(2, [*prep, Gate("CNOT", (1, 0)), *undo])
        shots = 2000
        law = axis_kept_share(axis, "IXYZ")
        sigma = np.sqrt(shots * law * (1 - law))
        # Power control: a twirl of I and ``axis`` alone never flips it.
        assert abs(axis_kept_share(axis, "I" + axis) - law) * shots > 5 * sigma
        counts = run(circuit, NoiseModel(0.0, 1.0), shots, 1)
        kept = sum(count for key, count in counts.items() if key[0] == "0")
        assert abs(kept - shots * law) <= 5 * sigma


class TestTrajectories:
    # X on qubit 0 as a dense step, then a Bell pair, then keep qubit 1 = 1.
    program = [
        pauli_matrix("XI"),
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
        ],
        ids=["nan-state", "zero-amplitudes", "nan-amplitudes", "inf-amplitudes",
             "ry-nan"],
    )
    def test_nan_and_zero_norm_rejected(self, make):
        with pytest.raises(SimulationError):
            make()

    @pytest.mark.parametrize("excess", [5e-9, -5e-9])
    def test_off_norm_state_is_stored_unit_norm(self, excess):
        exact = StateVector.from_amplitudes([1, 2j, -3, 4])
        psi = StateVector(2, exact.amplitudes * np.sqrt(1 + excess))
        assert abs(psi.probabilities().sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("excess", [5e-9, -5e-9])
    def test_engine_runs_off_norm_state_as_normalised(self, excess):
        # A row's squared norm is its post-selection probability, so the
        # engine needs a unit-norm start; StateVector stores one.
        exact = StateVector.from_amplitudes([1, 2, -3, 4])
        off = StateVector(2, exact.amplitudes * np.sqrt(1 + excess))
        program = [*Circuit(2).h(0).cnot(0, 1).gates, PostSelect(1)]

        def run(psi):
            return run_trajectories(program, psi, 10_000, np.random.default_rng(7),
                                    NoiseModel(0.1, 0.1))

        assert np.array_equal(run(off), run(exact))

    @pytest.mark.parametrize("field, value", [("amplitudes", np.array([0.5, 0.5])),
                                              ("n_qubits", 2)], ids=["amplitudes", "n_qubits"])
    def test_fields_cannot_be_reassigned(self, field, value):
        psi = StateVector.zero(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(psi, field, value)

    def test_amplitudes_are_read_only(self):
        psi = StateVector.zero(1)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2
        assert psi.amplitudes.tolist() == [1, 0]

    def test_from_amplitudes_normalizes(self):
        psi = StateVector.from_amplitudes([3, 4])
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("amplitudes, expected",
                             [([1e155, 0], [1, 0]), ([3e-170, 4e-170], [0.6, 0.8]),
                              ([5e-324, 0], [1, 0])],
                             ids=["squares-overflow", "squares-underflow", "subnormal"])
    def test_from_amplitudes_normalizes_any_finite_scale(self, amplitudes, expected):
        # Squaring these overflows or underflows; tier-1 also turns any
        # RuntimeWarning into an error.
        psi = StateVector.from_amplitudes(amplitudes)
        assert np.allclose(psi.amplitudes, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "make",
    [lambda: StateVector.zero(1), lambda: Gate("U", (0,), matrix=np.eye(2)), lambda: Gate("X", [0])],
    ids=["state", "u-gate", "x-gate"],
)
def test_states_and_gates_compare_and_hash_by_identity(make):
    # Nothing compares them by value; the engine keys steps by id.
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
