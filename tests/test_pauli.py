import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatro.qcore import PauliError, PauliString, PauliSum, pauli_decompose


def random_hermitian(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def test_identity_decomposes_to_single_identity_term():
    ps = pauli_decompose(np.eye(2))
    assert ps.terms == {PauliString("I"): 1.0}


def test_pauli_z_by_definition():
    ps = pauli_decompose(np.diag([1.0, -1.0]))
    assert ps.terms == {PauliString("Z"): 1.0}


def test_matrix_returns_a_fresh_array():
    m = PauliString("X").matrix()
    m[0, 0] = 7.0
    assert np.array_equal(PauliString("X").matrix(), [[0, 1], [1, 0]])


def test_walk_hamiltonian_coefficients_match_trace_oracle():
    # 4-state walk Hamiltonian; oracle computes trace(P . h)/4 for all 16 strings.
    from quatro.walks import WalkModel, build_walk_hamiltonian

    model = WalkModel(n_states=4, drift=-2.0, coupling=1.0)
    dense = build_walk_hamiltonian(model)
    ps = pauli_decompose(dense)
    for a in "IXYZ":
        for b in "IXYZ":
            p = PauliString(a + b)
            expected = np.trace(p.matrix() @ dense).real / 4.0
            assert ps.terms.get(p, 0.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_random_hermitian(n_qubits, seed):
    h = random_hermitian(n_qubits, seed)
    ps = pauli_decompose(h)
    assert np.max(np.abs(ps.to_dense() - h)) < 1e-10


def test_rejects_non_hermitian():
    with pytest.raises(PauliError, match="Hermitian"):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("h", [np.full((2, 2), np.nan), np.diag([np.inf, 1.0])],
                         ids=["nan", "inf"])
def test_rejects_non_finite_matrix(h):
    # NaN > tol is false, so a NaN matrix would decompose to the zero operator.
    with pytest.raises(PauliError, match="non-finite"):
        pauli_decompose(h)


def test_rejects_non_power_of_two():
    with pytest.raises(PauliError, match="power of two"):
        pauli_decompose(np.eye(3))


def test_rejects_oversized_register():
    with pytest.raises(PauliError, match="guard"):
        pauli_decompose(np.eye(2**11))


def test_zero_coefficients_are_dropped():
    ps = PauliSum(1, {PauliString("X"): 0.0, PauliString("Z"): 2.0})
    assert PauliString("X") not in ps.terms
    assert ps.terms[PauliString("Z")] == 2.0


@st.composite
def hermitian_matrices(draw):
    dim = 2 ** draw(st.integers(1, 4))
    parts = arrays(float, (2, dim, dim), elements=st.floats(-10.0, 10.0))
    re, im = draw(parts)
    m = re + 1j * im
    return (m + m.conj().T) / 2


@given(h=hermitian_matrices())
def test_decomposition_round_trips(h):
    # Coefficients below the 1e-10 tolerance are dropped: at most 4^n of
    # them, each moving an entry by less than 1e-10.
    back = pauli_decompose(h).to_dense()
    assert np.max(np.abs(back - h)) <= h.size * 1e-10 + 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda: PauliSum(1, {"X": np.nan}),
        lambda: PauliSum(1, {"X": np.inf}),
        lambda: PauliSum(1, {"X": -np.inf}),
        # "X" and PauliString("X") name one term, so the two merge and overflow.
        lambda: PauliSum(1, {"X": 1e308, PauliString("X"): 1e308}),
    ],
    ids=["nan", "inf", "-inf", "overflowing-sum"],
)
def test_non_finite_coefficient_rejected(make):
    with pytest.raises(PauliError):
        make()


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: PauliSum(-1, {}), "qubit count"),
        (lambda: PauliSum(2.5, {}), "qubit count"),
        (lambda: PauliSum(True, {}), "qubit count"),
        (lambda: PauliSum(1, {"X": None}), "real number"),
        (lambda: PauliSum(1, {"X": "a"}), "real number"),
        (lambda: PauliSum(1, {"X": 1j}), "real number"),
        (lambda: PauliSum(1, {"X": True}), "real number"),
        (lambda: PauliSum(1, {5: 1.0}), "not a Pauli string"),
        (lambda: PauliString(5), "nonempty str"),
        (lambda: pauli_decompose(np.zeros((0, 0))), "power of two >= 2"),
        (lambda: pauli_decompose(np.eye(1)), "power of two >= 2"),
        (lambda: pauli_decompose("ab"), "not numeric"),
    ],
    ids=["negative-qubits", "float-qubits", "bool-qubits", "none-coefficient", "str-coefficient",
         "complex-coefficient", "bool-coefficient", "int-term", "int-string", "empty-matrix",
         "one-by-one", "str-matrix"],
)
def test_malformed_input_rejected(make, match):
    with pytest.raises(PauliError, match=match):
        make()
