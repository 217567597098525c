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

import numbers
from dataclasses import dataclass

import numpy as np

from .qcore import (Circuit, Gate, NoiseModel, PostSelect, StateVector, draw_counts,
                    evolution_operator, run_trajectories)


class WalkError(ValueError):
    pass


def _check_integer(value, name: str, low: int, high: int | None = None):
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value >= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise WalkError(f"{name} must be an integer {bound}, got {value!r}")


@dataclass(frozen=True)
class WalkModel:
    n_states: int
    drift: float       # diagonal slope mu
    coupling: float    # nearest-neighbor amplitude sigma
    dt: float = 1.0    # evolution time per timestep

    def __post_init__(self):
        n = self.n_states
        _check_integer(n, "n_states", 4)
        if n & (n - 1):
            raise WalkError(f"n_states must be a power of two, got {n!r}")
        reals = (self.drift, self.coupling, self.dt)
        if (not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in reals)
                or not np.isfinite(reals).all()):
            raise WalkError("drift, coupling and dt must be finite reals")
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
    post-selection survival probability, which is non-increasing. A sampled
    walk also gives each timestep's accepted shots; ``accepted_shots[0]`` is
    the shot count of every timestep.
    """

    tables: list[np.ndarray]
    survival: list[float] | None = None
    accepted_shots: list[int] | None = None


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

    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in (coupling, ground_energy)):
        raise WalkError("coupling and ground_energy must be reals")
    # A numpy scalar would run the bisection in its own dtype.
    coupling, ground_energy = float(coupling), float(ground_energy)
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


def _walk_operator(model: WalkModel, psi0: StateVector, steps: int,
                   min_steps: int) -> np.ndarray:
    """Check a walk's model, initial state and step count; return its
    one-step operator U = e^{-iH dt}."""
    if not (isinstance(model, WalkModel) and isinstance(psi0, StateVector)):
        raise WalkError(f"need a WalkModel and a StateVector, got {model!r} and {psi0!r}")
    if psi0.amplitudes.size != model.n_states:
        raise WalkError("initial state dimension does not match the lattice")
    _check_integer(steps, "steps", min_steps)
    return evolution_operator(build_walk_hamiltonian(model), model.dt)


def reflecting_walk(model: WalkModel, psi0: StateVector, steps: int) -> WalkResult:
    """Probability tables |U^k psi0|^2 for k = 0..steps, U = e^{-iH dt}."""
    u = _walk_operator(model, psi0, steps, 0)
    amps = psi0.amplitudes
    tables = [np.abs(amps) ** 2]
    for _ in range(steps):
        amps = u @ amps
        tables.append(np.abs(amps) ** 2)
    return WalkResult(tables=tables)


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
    _check_integer(n_qubits, "detector main qubits", 2)
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
    survivor = psi0.amplitudes
    tables = [np.abs(survivor) ** 2]
    survival = [1.0]
    for _ in range(steps):
        evolved = u @ survivor
        table = np.abs(evolved) ** 2
        tables.append(table)
        survival.append(float(table.sum()))
        survivor = evolved
        survivor[0] = 0.0        # project out both boundaries
        survivor[-1] = 0.0
    return WalkResult(tables=tables, survival=survival)


def _sampled_absorbing(
    model: WalkModel,
    u: np.ndarray,
    psi0: StateVector,
    steps: int,
    shots: int,
    seed: int,
    noise: NoiseModel | None,
) -> WalkResult:
    _check_integer(shots, "shots", 1, 2**63)  # numpy's multinomial takes an int64 count
    _check_integer(seed, "seed", 0)
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
            # Shots are iid and only their counts are kept: one draw over the
            # arm's exact projected table, whose missing mass is the absorbed outcome.
            counts = draw_counts(exact[arm], shots, rng)
        else:
            program = [u_full] + mid_step * (arm - 1)
            # The ancilla is the last qubit: sum it out of the register counts.
            counts = run_trajectories(program, start, shots, rng, noise)
            counts = counts.reshape(model.n_states, 2).sum(axis=1)
        tables.append(counts / shots)
        accepted.append(int(counts.sum()))
    return WalkResult(
        tables=tables,
        survival=[a / shots for a in accepted],
        accepted_shots=accepted,
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
    if noise is not None and not isinstance(noise, NoiseModel):
        raise WalkError(f"noise must be a NoiseModel or None, got {noise!r}")
    if shots is None and noise is not None:
        raise WalkError("noise applies to the sampled path only")
    u = _walk_operator(model, psi0, steps, 1)
    if shots is None:
        return _exact_absorbing(u, psi0, steps)
    return _sampled_absorbing(model, u, psi0, steps, shots, seed, noise)
