"""Exact reference distributions and the statistical gate built on them.

The trajectory sampler unravels a per-gate depolarizing channel, so its
expected output is the diagonal of a density matrix pushed through that
channel. This module builds that density matrix from public API only:

* gate unitaries come from ``apply_circuit`` on every basis state,
* the detector is ``boundary_detector``,
* walk evolution uses this module's own tridiagonal matrix and eigensolve.

The channel matches ``NoiseModel``: after a gate on k qubits, with
probability p a Pauli string drawn uniformly from the 4^k strings on those
qubits is applied. The ancilla reset after each mid-walk collapse counts as
a noisy 1-qubit X.

Sampled counts are checked cell by cell against the exact probabilities
with an exact binomial test at the two-sided 5-sigma level, Bonferroni-
corrected over the cells of one check, so a correct sampler fails a check
with probability below 5.7e-7 however many cells it has.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quatro.qcore import Circuit, StateVector, apply_circuit
from quatro.walks import boundary_detector

# Two-sided Gaussian tail beyond 5 sigma.
ALPHA_5SIGMA = math.erfc(5.0 / math.sqrt(2.0))
CALIBRATION_TOL = 1e-9

_PAULI_2X2 = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# --- channel pieces ---------------------------------------------------------

def gate_unitary(gate, n_qubits: int) -> np.ndarray:
    """Full-register unitary of one gate, read off ``apply_circuit``."""
    circuit = Circuit(n_qubits, [gate])
    return np.column_stack(
        [apply_circuit(circuit, StateVector.basis(n_qubits, i)).amplitudes
         for i in range(2**n_qubits)]
    )


def _embedded_paulis(qubit: int, n_qubits: int) -> list[np.ndarray]:
    left, right = np.eye(2**qubit), np.eye(2 ** (n_qubits - qubit - 1))
    return [np.kron(np.kron(left, p), right) for p in _PAULI_2X2]


class Channel:
    """Per-gate depolarizing channel on an n-qubit density matrix."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self._paulis = [_embedded_paulis(q, n_qubits) for q in range(n_qubits)]

    def depolarize(self, rho: np.ndarray, qubits) -> np.ndarray:
        # A uniform string over 4^k is an independent uniform Pauli per qubit.
        for q in qubits:
            rho = sum(p @ rho @ p.conj().T for p in self._paulis[q]) / 4.0
        return rho

    def apply(self, rho: np.ndarray, unitary: np.ndarray, p: float, qubits) -> np.ndarray:
        rho = unitary @ rho @ unitary.conj().T
        if p > 0.0:
            rho = (1.0 - p) * rho + p * self.depolarize(rho, qubits)
        return rho


def _gate_probability(noise, gate) -> float:
    if noise is None:
        return 0.0
    return noise.p1 if len(gate.qubits) == 1 else noise.p2


# --- walks ---------------------------------------------------------------------

def walk_matrix(n_states: int, drift: float, coupling: float) -> np.ndarray:
    """H[i][i] = drift * i, H[i][i +/- 1] = coupling."""
    h = np.diag(drift * np.arange(n_states, dtype=float))
    off = np.full(n_states - 1, float(coupling))
    return h + np.diag(off, 1) + np.diag(off, -1)


def walk_unitary(n_states: int, drift: float, coupling: float, dt: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(walk_matrix(n_states, drift, coupling))
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def ground_energy(n_states: int, drift: float, coupling: float) -> float:
    return float(np.linalg.eigvalsh(walk_matrix(n_states, drift, coupling))[0])


class WalkOracle:
    """Exact post-selected lattice distributions of the sampled absorbing walk.

    Built once per lattice size and noise model; ``tables`` then takes the
    walk parameters. Gate unitaries of the detector are read once here.
    """

    def __init__(self, n_qubits: int, noise=None):
        self.n_main = n_qubits
        self.channel = Channel(n_qubits + 1)
        detector = boundary_detector(n_qubits)
        steps = [
            (gate_unitary(g, n_qubits + 1), _gate_probability(noise, g), g.qubits)
            for g in detector.gates
        ]
        if noise is None:
            # Noise-free: the whole detector is one unitary.
            total = np.eye(2 ** (n_qubits + 1), dtype=complex)
            for u, _, _ in steps:
                total = u @ total
            steps = [(total, 0.0, ())]
        self.detector_steps = steps
        self.reset_p = 0.0 if noise is None else noise.p1

    def tables(self, n_states, drift, coupling, dt, psi0: np.ndarray, steps: int):
        """Return (tables, survival) for timesteps 0..steps.

        ``tables[a][i]`` is the probability that a trajectory survives the
        a - 1 mid-walk detector rounds and is then measured in state i.
        """
        dim = 2 ** (self.n_main + 1)
        u_full = np.kron(walk_unitary(n_states, drift, coupling, dt), np.eye(2))
        start = np.kron(np.asarray(psi0, dtype=complex), [1.0, 0.0])
        rho = np.outer(start, start.conj())
        tables = [np.abs(np.asarray(psi0)) ** 2]
        for arm in range(1, steps + 1):
            final = u_full @ rho @ u_full.conj().T
            table = np.real(np.diag(final)).reshape(-1, 2).sum(axis=1)
            tables.append(np.clip(table, 0.0, 1.0))
            if arm == steps:
                break
            rho = final
            for u, p, qubits in self.detector_steps:
                rho = self.channel.apply(rho, u, p, qubits)
            # Keep ancilla = 1 (interior) and reset it to 0.
            blocks = rho.reshape(dim // 2, 2, dim // 2, 2)
            kept = np.zeros_like(blocks)
            kept[:, 0, :, 0] = blocks[:, 1, :, 1]
            rho = kept.reshape(dim, dim)
            if self.reset_p > 0.0:
                rho = (1.0 - self.reset_p) * rho + self.reset_p * self.channel.depolarize(
                    rho, (self.n_main,)
                )
        survival = [float(t.sum()) for t in tables]
        return tables, survival


def walk_cells(tables, survival) -> np.ndarray:
    """Per arm 1..steps: the lattice states, then the absorbed outcome."""
    return np.concatenate(
        [np.append(t, max(0.0, 1.0 - s)) for t, s in zip(tables[1:], survival[1:])]
    )


# --- circuits --------------------------------------------------------------------

def circuit_probabilities(circuit, noise) -> np.ndarray:
    """Exact output distribution of ``run_noisy(circuit, noise, ...)``."""
    n = circuit.n_qubits
    channel = Channel(n)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        rho = channel.apply(
            rho, gate_unitary(gate, n), _gate_probability(noise, gate), gate.qubits
        )
    return np.clip(np.real(np.diag(rho)), 0.0, 1.0)


# --- the gate --------------------------------------------------------------------

def _log_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def _tail(k: int, n: int, p: float, upper: bool) -> float:
    """P(X >= k) if ``upper`` else P(X <= k), for X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 1.0 if (k == 0 or not upper) else 0.0
    if p >= 1.0:
        return 1.0 if (k == n or upper) else 0.0
    total, j, step = 0.0, k, (1 if upper else -1)
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p))
        total += term
        if term < 1e-18 * total:
            break
        j += step
    return min(1.0, total)


def binomial_pvalue(k: int, n: int, p: float) -> float:
    """Two-sided exact binomial p-value: twice the tail on the side of k."""
    return min(1.0, 2.0 * _tail(k, n, p, upper=k > n * p))


@dataclass
class Verdict:
    ok: bool
    cells: int
    worst_z: float
    min_pvalue: float


def check_counts(counts, trials: int, probs) -> Verdict:
    """Each cell's count against Binomial(trials, p) at Bonferroni 5 sigma.

    Pooled cells whose calls had different probabilities are tested against
    the binomial with the same mean, whose variance is never smaller, so the
    test stays conservative.
    """
    counts = np.asarray(counts, dtype=np.int64)
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    mean = trials * probs
    sd = np.sqrt(trials * probs * (1.0 - probs))
    dev = np.abs(counts - mean)
    z = np.where(sd > 0, dev / np.where(sd > 0, sd, 1.0), np.where(dev > 0, np.inf, 0.0))
    threshold = ALPHA_5SIGMA / max(1, counts.size)
    min_p = 1.0
    # Within 3 sigma no binomial cell reaches the threshold; test the rest exactly.
    for i in np.flatnonzero(z > 3.0):
        min_p = min(min_p, binomial_pvalue(int(counts[i]), trials, float(probs[i])))
    worst = float(z.max()) if z.size else 0.0
    return Verdict(min_p >= threshold, int(counts.size), worst, min_p)


def calibration_ok(model, target: float) -> tuple[bool, float]:
    """Whether the model's ground energy is ``target`` within 1e-9."""
    err = abs(ground_energy(model.n_states, model.drift, model.coupling) - target)
    return err <= CALIBRATION_TOL, err
