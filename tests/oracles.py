"""Reference matrices and exact noisy laws the tests compare against.

Every matrix here is built from its textbook definition with ``np.kron``,
qubit 0 leftmost (the most significant bit of a basis index). This module
imports nothing from ``quatro``, so no reference shares code with the
simulator it checks; it reads only the public fields of the gates, models,
states and noise models passed to it.
"""
import functools
import itertools

import numpy as np

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
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
    return functools.reduce(np.kron, [ops.get(q, PAULIS["I"]) for q in range(n)])


def controlled(n, controls, target, m):
    """I - P + P (x) m, with P the projector onto every control = 1."""
    ones = {c: P1 for c in controls}
    return np.eye(2**n) - on(n, ones) + on(n, {**ones, target: m})


def dense_on(n, qubits, u):
    """Sum of u[r, c] |r><c| spread over ``qubits``, the first qubit being
    the most significant bit of u's index."""
    k, out = len(qubits), 0
    units = np.eye(2)
    for r, c in itertools.product(range(2**k), repeat=2):
        r_bits, c_bits = format(r, f"0{k}b"), format(c, f"0{k}b")
        ops = {q: np.outer(units[int(a)], units[int(b)]) for q, a, b in zip(qubits, r_bits, c_bits)}
        out = out + u[r, c] * on(n, ops)
    return out


def gate_matrix(gate, n):
    """The full-register matrix of ``gate`` on n qubits, from its kind,
    qubits (controls first, target last) and angle or matrix."""
    kind, qubits, t = gate.kind, gate.qubits, gate.param
    if kind == "U":
        return dense_on(n, qubits, gate.matrix)
    if kind in ("CNOT", "TOFFOLI", "CRX"):
        return controlled(n, qubits[:-1], qubits[-1], rx(t) if kind == "CRX" else PAULIS["X"])
    if kind == "RY":
        return on(n, {qubits[0]: ry(t)})
    if kind == "RZ":
        return on(n, {qubits[0]: rz(t)})
    return on(n, {qubits[0]: {"H": H, "X": PAULIS["X"]}[kind]})


def pauli_matrix(label):
    """The Kronecker product of a label's Paulis, qubit 0 leftmost."""
    return on(len(label), {q: PAULIS[c] for q, c in enumerate(label)})


def pauli_dense(terms, n_qubits):
    """The dense matrix of ``{label: coefficient}`` on ``n_qubits``."""
    h = np.zeros((2**n_qubits,) * 2, dtype=complex)
    for label, c in terms.items():
        h += c * pauli_matrix(label)
    return h


def random_hermitian(n_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_walk_matrix(n, mu, sigma):
    h = np.zeros((n, n))
    for i in range(n):
        h[i, i] = mu * i
        if i + 1 < n:
            h[i, i + 1] = h[i + 1, i] = sigma
    return h


def depolarize(rho, p, qubits, n_qubits):
    """(1 - p) rho + p * (uniform Pauli twirl of rho on ``qubits``).

    A Pauli string drawn uniformly from the 4^k strings on k qubits is an
    independent uniform Pauli on each qubit, so the twirl factorises.
    """
    twirled = rho
    for q in qubits:
        embedded = [on(n_qubits, {q: pauli}) for pauli in PAULIS.values()]
        twirled = sum(e @ twirled @ e.conj().T for e in embedded) / 4.0
    return (1.0 - p) * rho + p * twirled


def gate_noise(gate, noise):
    """A gate's depolarizing probability: p1 on one qubit, p2 on more."""
    return noise.p1 if len(gate.qubits) == 1 else noise.p2


def noisy_circuit_oracle(circuit, noise):
    """Exact output law of ``run_noisy(circuit, noise, ...)``: the density
    matrix from |0...0>, each gate followed by its depolarizing channel."""
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = gate_matrix(gate, n)
        rho = depolarize(u @ rho @ u.conj().T, gate_noise(gate, noise), gate.qubits, n)
    return np.real(np.diag(rho))


def noisy_absorbing_oracle(model, psi0, steps, noise, detector, reset=None):
    """Exact tables of ``absorbing_walk(..., shots=..., noise=noise)``, whose
    detector gates are ``detector``.

    The density-matrix form of the channel the trajectory sampler unravels:
    per mid-walk step, evolve, run each detector gate followed by its
    depolarizing channel, keep ancilla = 1, reset it to 0, and depolarize
    the reset X with probability ``reset`` (``noise.p1`` if None). Table k
    is the unnormalized lattice distribution measured after step k.
    """
    n_main = model.n_states.bit_length() - 1
    n_full = n_main + 1
    dim = 2**n_full
    evals, evecs = np.linalg.eigh(dense_walk_matrix(model.n_states, model.drift, model.coupling))
    u = (evecs * np.exp(-1j * evals * model.dt)) @ evecs.conj().T
    u_full = np.kron(u, np.eye(2))
    gates = [(gate_matrix(g, n_full), gate_noise(g, noise), g.qubits) for g in detector]
    start = np.kron(psi0.amplitudes, [1.0, 0.0])
    rho = np.outer(start, start.conj())
    tables = [np.abs(psi0.amplitudes) ** 2]
    for _ in range(steps):
        rho = u_full @ rho @ u_full.conj().T
        tables.append(np.real(np.diag(rho)).reshape(-1, 2).sum(axis=1))
        for g, p, qubits in gates:
            rho = depolarize(g @ rho @ g.conj().T, p, qubits, n_full)
        blocks = rho.reshape(dim // 2, 2, dim // 2, 2)
        kept = np.zeros_like(blocks)
        kept[:, 0, :, 0] = blocks[:, 1, :, 1]
        rho = depolarize(kept.reshape(dim, dim), noise.p1 if reset is None else reset,
                         (n_main,), n_full)
    return tables
