"""Quantum walks for 2-choice decision models.

A walk lives on a 1-d lattice of 2^n preference states with a tridiagonal
drift-diffusion Hamiltonian: H[i][i] = drift * i, H[i][i +/- 1] = coupling.
Reflecting walks evolve freely; absorbing walks project out the boundary
states (first and last lattice site) after every timestep.

The sampled absorbing path emulates post-selection: a one-ancilla detector
circuit flags interior states, the ancilla is measured mid-walk, and
trajectories that hit a boundary are discarded. Arm k (the lattice measured
after k steps) runs the exact evolution (dense exponential), then k - 1
mid-walk steps: the detector's gates, a post-selection of the ancilla on 1,
an X gate that resets the ancilla to |0>, and the evolution. Without noise
that post-selection is exactly the boundary projection, so each arm draws
its noise-free shots as one multinomial over the lattice states and the
absorbed outcome, from its exact projected table. Depolarizing noise
attaches to every gate of the mid-walk step, the detector's and the reset
X's (p1), and each arm is one call to ``qcore``'s shot-batched
``run_trajectories``, whose register counts are summed over the ancilla.
Each arm's output law is that of sampling every shot on its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (Circuit, Gate, NoiseModel, PostSelect, StateVector,
                    evolution_operator, run_trajectories)


class WalkError(ValueError):
    pass


@dataclass(frozen=True)
class WalkModel:
    n_states: int
    drift: float       # diagonal slope mu
    coupling: float    # nearest-neighbor amplitude sigma
    dt: float = 1.0    # evolution time per timestep

    def __post_init__(self):
        n = self.n_states
        if n < 4 or n & (n - 1):
            raise WalkError("n_states must be a power of two >= 4")
        if not np.isfinite([self.drift, self.coupling, self.dt]).all():
            raise WalkError("drift, coupling and dt must be finite")
        if not self.dt > 0:
            raise WalkError("dt must be positive")
        # Bounds every eigenvalue times dt, so e^{-iH dt} stays finite.
        if not np.isfinite((abs(self.drift) * (n - 1) + 2 * abs(self.coupling)) * self.dt):
            raise WalkError("drift, coupling and dt overflow the walk's phases")

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.n_states)))


@dataclass
class WalkResult:
    """Per-timestep state probabilities (index 0 = initial state).

    For absorbing walks the tables are unnormalized: their sums give the
    post-selection survival probability, which is non-increasing.
    """

    kind: str
    tables: list[np.ndarray]
    survival: list[float] | None = None
    accepted_shots: list[int] | None = None
    shots: int | None = None

    def table(self, timestep: int) -> np.ndarray:
        return self.tables[timestep]


def build_walk_hamiltonian(model: WalkModel) -> np.ndarray:
    """Dense ``n_states x n_states`` tridiagonal walk Hamiltonian; its Pauli
    form is ``pauli_decompose(build_walk_hamiltonian(model))``."""
    dense = np.diag(model.drift * np.arange(model.n_states, dtype=float))
    i = np.arange(model.n_states - 1)
    dense[i, i + 1] = dense[i + 1, i] = model.coupling
    return dense


def calibrated_walk_model(
    n_states: int = 4,
    coupling: float = 1.0,
    ground_energy: float = -7.22,
    dt: float = 1.0,
) -> WalkModel:
    """Bisect the drift so the walk Hamiltonian's minimum eigenvalue hits
    ``ground_energy`` (monotone in the drift, so bisection is exact)."""

    def lam_min(mu: float) -> float:
        dense = build_walk_hamiltonian(WalkModel(n_states, mu, coupling, dt))
        return float(np.linalg.eigvalsh(dense)[0])

    lo, hi = -abs(ground_energy) - 2 * abs(coupling), 0.0
    top = lam_min(hi)
    if not lam_min(lo) <= ground_energy <= top:
        raise WalkError(f"target {ground_energy} not bracketed by drift range")
    if top == ground_energy:  # else lo would descend through the subnormals
        return WalkModel(n_states, hi, coupling, dt)
    mid = (lo + hi) / 2
    while lo < mid < hi:  # stop once lo and hi are adjacent doubles
        if lam_min(mid) < ground_energy:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return WalkModel(n_states, (lo + hi) / 2, coupling, dt)


def reflecting_walk(model: WalkModel, psi0: StateVector, steps: int) -> WalkResult:
    """Probability tables |U^k psi0|^2 for k = 0..steps, U = e^{-iH dt}."""
    if psi0.amplitudes.size != model.n_states:
        raise WalkError("initial state dimension does not match the lattice")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise WalkError("steps must be an integer >= 0")
    u = evolution_operator(build_walk_hamiltonian(model), model.dt)
    amps = psi0.amplitudes.copy()
    tables = [np.abs(amps) ** 2]
    for _ in range(steps):
        amps = u @ amps
        tables.append(np.abs(amps) ** 2)
    return WalkResult(kind="reflecting", tables=tables)


# --- boundary detector ----------------------------------------------------

def _append_mcx(circuit: Circuit, controls: list[int], target: int, borrow: list[int]):
    """Multi-controlled X from CNOT/Toffoli, borrowing dirty wires.

    For >= 3 controls, splits into two halves around one borrowed wire a:
        t ^= B&a ; a ^= A ; t ^= B&a ; a ^= A
    which nets t ^= A&B for any initial a, and restores a.
    """
    m = len(controls)
    if m == 0:
        circuit.x(target)
    elif m == 1:
        circuit.cnot(controls[0], target)
    elif m == 2:
        circuit.toffoli(controls[0], controls[1], target)
    else:
        a = borrow[0]
        k1 = (m + 1) // 2
        s1, s2 = list(controls[:k1]), list(controls[k1:])
        for _ in range(2):
            _append_mcx(circuit, s2 + [a], target, borrow=s1)
            _append_mcx(circuit, s1, a, borrow=s2 + [target] + borrow[1:])


def boundary_detector(n_qubits: int) -> Circuit:
    """One-ancilla circuit flagging non-boundary lattice states.

    On input sum_i a_i |i> (x) |0> the output carries the ancilla in |1>
    exactly on the interior states: boundary amplitudes (|0..0>, |1..1>)
    keep ancilla |0>. Main-register amplitude magnitudes are unchanged.
    The ancilla is the appended qubit ``n_qubits``.
    """
    if n_qubits < 2:
        raise WalkError("detector needs at least 2 main qubits")
    c = Circuit(n_qubits + 1)
    anc = n_qubits
    xors = list(range(1, n_qubits))
    # q_i <- q_i xor q_0: all-equal registers (the two boundary states)
    # leave every xor bit 0.
    for q in xors:
        c.cnot(0, q)
    for q in xors:
        c.x(q)
    _append_mcx(c, xors, anc, borrow=[0])  # anc ^= "is boundary"
    for q in xors:
        c.x(q)
    c.x(anc)                               # anc = "is interior"
    for q in xors:
        c.cnot(0, q)
    return c


# --- absorbing walks -------------------------------------------------------

def _exact_absorbing(u: np.ndarray, psi0: StateVector, steps: int) -> WalkResult:
    survivor = psi0.amplitudes.copy()
    tables = [np.abs(survivor) ** 2]
    survival = [1.0]
    for _ in range(steps):
        evolved = u @ survivor
        table = np.abs(evolved) ** 2
        tables.append(table)
        survival.append(float(table.sum()))
        survivor = evolved.copy()
        survivor[0] = 0.0        # project out both boundaries
        survivor[-1] = 0.0
    return WalkResult(kind="absorbing-exact", tables=tables, survival=survival)


def _sampled_absorbing(
    model: WalkModel,
    u: np.ndarray,
    psi0: StateVector,
    steps: int,
    shots: int,
    seed: int,
    noise: NoiseModel | None,
) -> WalkResult:
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise WalkError("sampled path requires an integer shots >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise WalkError("seed must be a non-negative integer")
    if noise is None:
        exact = _exact_absorbing(u, psi0, steps).tables
    else:
        n_main = model.n_qubits
        u_full = np.kron(u, np.eye(2))
        # One mid-walk step after an evolution: flag interior states on the
        # ancilla, keep ancilla = 1, reset it to |0> with a (noisy) X, evolve.
        mid_step = [*boundary_detector(n_main).gates, PostSelect(n_main),
                    Gate("X", (n_main,)), u_full]
        start = StateVector(n_main + 1, np.kron(psi0.amplitudes, [1.0, 0.0]))

    tables = [np.abs(psi0.amplitudes) ** 2]
    accepted = [shots]
    for arm in range(1, steps + 1):
        # Arm k measures the lattice after k steps: k - 1 post-selections.
        rng = np.random.default_rng([seed, arm])
        if noise is None:
            # Shots are iid and only their counts are kept, so they are one
            # multinomial over the lattice states and the absorbed outcome,
            # whose cells are the arm's exact projected table.
            cells = np.append(exact[arm], max(1.0 - exact[arm].sum(), 0.0))
            counts = rng.multinomial(shots, cells / cells.sum())[:-1]
        else:
            program = [u_full] + mid_step * (arm - 1)
            # The ancilla is the last qubit: sum it out of the register counts.
            counts = run_trajectories(program, start, shots, rng, noise)
            counts = counts.reshape(model.n_states, 2).sum(axis=1)
        tables.append(counts / shots)
        accepted.append(int(counts.sum()))
    return WalkResult(
        kind="absorbing-sampled",
        tables=tables,
        survival=[a / shots for a in accepted],
        accepted_shots=accepted,
        shots=shots,
    )


def absorbing_walk(
    model: WalkModel,
    psi0: StateVector,
    steps: int,
    shots: int | None = None,
    seed: int = 0,
    noise: NoiseModel | None = None,
) -> WalkResult:
    """Absorbing-boundary walk.

    With ``shots=None`` runs the exact path: the boundary projector is
    applied between evolutions and tables stay unnormalized. Otherwise runs
    the sampled path: the detector circuit runs after each mid-walk step,
    the ancilla is measured, and only all-interior trajectories survive to
    the final lattice measurement; one independent batch of ``shots``
    trajectories is run per reported timestep. Without noise, the detector's
    post-selection is the boundary projection, so each timestep's shots are
    one multinomial draw from its exact projected table; with noise, they are
    the counts of one ``run_trajectories`` call. Either keeps the output law,
    but not the outputs for a given seed, of drawing each shot alone.
    """
    if psi0.amplitudes.size != model.n_states:
        raise WalkError("initial state dimension does not match the lattice")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise WalkError("steps must be an integer >= 1")
    if shots is None and noise is not None:
        raise WalkError("noise applies to the sampled path only")
    u = evolution_operator(build_walk_hamiltonian(model), model.dt)
    if shots is None:
        return _exact_absorbing(u, psi0, steps)
    return _sampled_absorbing(model, u, psi0, steps, shots, seed, noise)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance treating any missing mass as an implicit absorbed outcome."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * (np.abs(p - q).sum() + abs((1.0 - p.sum()) - (1.0 - q.sum())))
