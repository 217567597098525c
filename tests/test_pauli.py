import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatro.qcore import PauliError, pauli_decompose
from .oracles import PAULIS, pauli_dense, pauli_matrix, random_hermitian


def test_identity_decomposes_to_single_identity_term():
    terms = pauli_decompose(np.eye(2))
    assert terms == {"I": 1.0}
    assert type(terms) is dict and type(terms["I"]) is float


def test_pauli_z_by_definition():
    assert pauli_decompose(np.diag([1.0, -1.0])) == {"Z": 1.0}


def test_coefficients_below_the_tolerance_are_left_out():
    # The tolerance is 1e-10: X's coefficient is below it, Y's above.
    h = np.diag([1.0, -1.0]) + 5e-11 * PAULIS["X"] + 3e-10 * PAULIS["Y"]
    terms = pauli_decompose(h)
    assert list(terms) == ["Y", "Z"]
    assert terms["Y"] == pytest.approx(3e-10, abs=1e-16)


def test_walk_hamiltonian_coefficients_match_trace_oracle():
    # 4-state walk Hamiltonian; oracle computes trace(P . h)/4 for all 16 strings.
    from quatro.walks import WalkModel, build_walk_hamiltonian

    model = WalkModel(n_states=4, drift=-2.0, coupling=1.0)
    dense = build_walk_hamiltonian(model)
    terms = pauli_decompose(dense)
    for a in "IXYZ":
        for b in "IXYZ":
            expected = np.trace(pauli_matrix(a + b) @ dense).real / 4.0
            assert terms.get(a + b, 0.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_random_hermitian(n_qubits, seed):
    h = random_hermitian(n_qubits, seed)
    terms = pauli_decompose(h)
    assert all(len(label) == n_qubits for label in terms)
    assert np.max(np.abs(pauli_dense(terms, n_qubits) - h)) < 1e-10


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
    back = pauli_dense(pauli_decompose(h), len(h).bit_length() - 1)
    assert np.max(np.abs(back - h)) <= h.size * 1e-10 + 1e-12


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: pauli_decompose(np.zeros((0, 0))), "power of two >= 2"),
        (lambda: pauli_decompose(np.eye(1)), "power of two >= 2"),
        (lambda: pauli_decompose("ab"), "not numeric"),
    ],
    ids=["empty-matrix", "one-by-one", "str-matrix"],
)
def test_malformed_input_rejected(make, match):
    with pytest.raises(PauliError, match=match):
        make()
