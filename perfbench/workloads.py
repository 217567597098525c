"""The benchmark's workloads: fixed inputs, per-call inputs and the public call.

Each workload is a closed loop: one client makes one public call at a time,
and every call gets a fresh seed drawn from the workload's own generator,
which is seeded by ``--seed``. ``record`` keeps what the correctness gate
needs from an output, so the gate runs after the timed loop.
"""
from __future__ import annotations

import numpy as np

import quatro.qcore as qcore
import quatro.walks as walks

SEED_RANGE = 2**31


def walk_counts(result, shots: int, steps: int, n_states: int) -> np.ndarray:
    """Per arm: lattice counts then absorbed count, as in ``oracle.walk_cells``."""
    if len(result.tables) != steps + 1 or result.accepted_shots is None:
        raise ValueError("walk result has the wrong shape")
    cells = []
    for table, accepted in zip(result.tables[1:], result.accepted_shots[1:]):
        scaled = np.asarray(table, dtype=float) * shots
        counts = np.rint(scaled)
        if table.shape != (n_states,) or np.abs(scaled - counts).max() > 1e-6:
            raise ValueError("walk table is not a count table")
        if counts.sum() != accepted:
            raise ValueError("accepted shots disagree with the table")
        cells.append(np.append(counts, shots - accepted))
    return np.concatenate(cells).astype(np.int64)


class WalkNoisy:
    """Noisy sampled absorbing walk on a fixed 8-state model."""

    name = "walk_noisy"
    steps = 4
    shots = 2000

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.model = walks.WalkModel(8, -0.6, 1.0)
        self.psi0 = qcore.StateVector.basis(3, 4)
        self.noise = qcore.NoiseModel(1e-2, 1e-2)
        self.trajectories = self.shots * self.steps
        self._expected = None

    def next_input(self):
        return int(self.rng.integers(SEED_RANGE))

    def call(self, seed, span):
        with span("walks.absorbing_walk"):
            return walks.absorbing_walk(
                self.model, self.psi0, steps=self.steps, shots=self.shots,
                seed=seed, noise=self.noise,
            )

    def record(self, seed, result):
        counts = walk_counts(result, self.shots, self.steps, self.model.n_states)
        if not np.array_equal(result.tables[0], self.psi0.probabilities()):
            raise ValueError("timestep 0 is not the initial distribution")
        return {"seed": seed, "counts": counts}

    def expected(self, record):
        if self._expected is None:
            from oracle import WalkOracle, walk_cells

            m = self.model
            tables, survival = WalkOracle(m.n_qubits, self.noise).tables(
                m.n_states, m.drift, m.coupling, m.dt, self.psi0.amplitudes, self.steps
            )
            self._expected = walk_cells(tables, survival)
        return self._expected, []

    def noisy_share(self):
        """Share of trajectories with a noise event, from p and gate counts."""
        detector = walks.boundary_detector(3)
        clean = (1 - self.noise.p1) * np.prod(
            [1 - self.noise.gate_probability(g) for g in detector.gates]
        )  # the detector gates, then the noisy ancilla reset
        return float(np.mean([1 - clean ** (arm - 1) for arm in range(1, self.steps + 1)]))


class WalkCalibrated:
    """Calibrate a 64-state walk to a random ground energy, then sample it."""

    name = "walk_calibrated"
    steps = 8
    shots = 20000
    n_states = 64
    coupling = 1.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.psi0 = qcore.StateVector.basis(6, 2)
        self.trajectories = self.shots * self.steps
        self._oracle = None

    def next_input(self):
        # The paper's ground energy, -7.22, lies inside this range.
        return int(self.rng.integers(SEED_RANGE)), float(self.rng.uniform(-8.0, -4.0))

    def call(self, inp, span):
        seed, energy = inp
        with span("walks.calibrated_walk_model"):
            model = walks.calibrated_walk_model(self.n_states, self.coupling, energy)
        with span("walks.absorbing_walk"):
            result = walks.absorbing_walk(
                model, self.psi0, steps=self.steps, shots=self.shots, seed=seed
            )
        return model, result

    def record(self, inp, out):
        model, result = out
        counts = walk_counts(result, self.shots, self.steps, self.n_states)
        if not np.array_equal(result.tables[0], self.psi0.probabilities()):
            raise ValueError("timestep 0 is not the initial distribution")
        return {"seed": inp[0], "energy": inp[1], "model": model, "counts": counts}

    def expected(self, record):
        from oracle import WalkOracle, calibration_ok, walk_cells

        if self._oracle is None:
            self._oracle = WalkOracle(6, None)
        model, problems = record["model"], []
        if (model.n_states, model.coupling, model.dt) != (self.n_states, self.coupling, 1.0):
            problems.append(f"calibrated model has the wrong shape: {model}")
        hit, err = calibration_ok(model, record["energy"])
        if not hit:
            problems.append(f"ground energy misses the target by {err:.3e}")
        tables, survival = self._oracle.tables(
            self.n_states, model.drift, self.coupling, 1.0, self.psi0.amplitudes, self.steps
        )
        return walk_cells(tables, survival), problems

    def noisy_share(self):
        return 0.0


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def layered_circuit(rng: np.random.Generator, n: int = 5):
    """H, RY, CNOT, CRX and RZ layers plus one random dense 2-qubit gate."""
    c = qcore.Circuit(n)
    for q in range(n):
        c.h(q)
    for q in range(n):
        c.ry(rng.uniform(0, 2 * np.pi), q)
    for q in range(n - 1):
        c.cnot(q, q + 1)
    for q in range(n - 1):
        c.crx(rng.uniform(0, 2 * np.pi), q, q + 1)
    for q in range(n):
        c.rz(rng.uniform(0, 2 * np.pi), q)
    a, b = rng.choice(n, size=2, replace=False)
    c.unitary(haar_unitary(rng, 4), int(a), int(b))
    return c


class CircuitNoisy:
    """``run_noisy`` on a fresh random 5-qubit layered circuit per call."""

    name = "circuit_noisy"
    shots = 5000
    n_qubits = 5

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.noise = qcore.NoiseModel(1e-2, 2e-2)
        self.trajectories = self.shots

    def next_input(self):
        return int(self.rng.integers(SEED_RANGE)), layered_circuit(self.rng, self.n_qubits)

    def call(self, inp, span):
        seed, circuit = inp
        with span("sim.run_noisy"):
            return qcore.run_noisy(circuit, self.noise, shots=self.shots, seed=seed)

    def record(self, inp, counts):
        n = self.n_qubits
        cells = np.zeros(2**n, dtype=np.int64)
        for key, value in counts.items():
            if len(key) != n or set(key) - {"0", "1"}:
                raise ValueError(f"bad outcome {key!r}")
            cells[int(key, 2)] += value
        if cells.sum() != self.shots:
            raise ValueError("counts do not add up to the shots")
        return {"seed": inp[0], "circuit": inp[1], "counts": cells}

    def expected(self, record):
        from oracle import circuit_probabilities

        return circuit_probabilities(record["circuit"], self.noise), []

    def noisy_share(self):
        """Share of shots with a noise event, from p and the gate counts."""
        probe = layered_circuit(np.random.default_rng(0), self.n_qubits)
        clean = np.prod([1 - self.noise.gate_probability(g) for g in probe.gates])
        return float(1 - clean)


WORKLOADS = {w.name: w for w in (WalkNoisy, WalkCalibrated, CircuitNoisy)}
