"""Exact dense statevector simulator.

States live on n <= ~10 qubits as complex vectors of length 2^n. Basis
index i renders as the bitstring of i with qubit 0 leftmost (most
significant). Every gate, injected Pauli and projector compiles once (and
is cached) into a gather over the register, which one kernel applies.
Evolution is exact (Hermitian eigendecomposition); noise is a per-gate
depolarizing channel realized by Pauli-twirl trajectory sampling.
"""
from __future__ import annotations

import functools
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString, PauliSum

_NORM_TOL = 1e-10

_PAULI_1Q = {c: PauliString(c).matrix() for c in "IXYZ"}


class SimulationError(ValueError):
    """Raised on dimension mismatches, bad indices, or norm violations."""


def _check_integer(value, name: str, low: int):
    if not isinstance(value, (int, np.integer)) or value < low:
        raise SimulationError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_integer(self.n_qubits, "qubit count", 1)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise SimulationError(
                f"expected {2**self.n_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        norm = np.sum(np.abs(self.amplitudes) ** 2)
        if not abs(norm - 1.0) <= 1e-8:  # also rejects NaN
            raise SimulationError(f"state norm {norm} is not 1")

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        _check_integer(n_qubits, "qubit count", 1)
        if not isinstance(index, (int, np.integer)) or not 0 <= index < 2**n_qubits:
            raise SimulationError(f"basis index {index!r} outside a {n_qubits}-qubit register")
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise SimulationError(f"{amps.size} amplitudes are not a power of two >= 2")
        n = amps.size.bit_length() - 1
        norm = np.linalg.norm(amps)
        if not 0 < norm < np.inf:
            raise SimulationError(f"cannot normalise amplitudes of norm {norm}")
        return cls(n, amps / norm)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.n_qubits}b")


# --- gates --------------------------------------------------------------

# Each kind's matrix on its qubits, controls first, the first qubit being the
# most significant bit of the matrix index; a callable takes the gate's param.
_KIND_MATRIX = {
    **_PAULI_1Q,
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
    0: np.diag([1.0, 0.0]),  # projectors onto qubit = 0, 1, keyed apart from gate kinds
    1: np.diag([0.0, 1.0]),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],
    "TOFFOLI": np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]],
    "RY": lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]]),
    "RZ": lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]),
    "CRX": lambda t: np.diag([1, 1, 0, 0]) + np.kron(
        np.diag([0, 1]), np.cos(t / 2) * _PAULI_1Q["I"] - 1j * np.sin(t / 2) * _PAULI_1Q["X"]),
}


@dataclass(frozen=True)
class Gate:
    """One circuit element. ``qubits`` lists controls first, target last.

    Checked when built: a known kind on distinct non-negative qubits of its
    arity, a finite ``param`` for RY, RZ and CRX, and a unitary ``matrix``
    for ``U``; anything else raises ``SimulationError``.
    """

    kind: str
    qubits: tuple[int, ...]
    param: float | None = None
    matrix: np.ndarray | None = None  # for generic 1q/2q unitaries

    def __post_init__(self):
        k = len(self.qubits)
        if len(set(self.qubits)) != k or not all(
                isinstance(q, (int, np.integer)) and q >= 0 for q in self.qubits):
            raise SimulationError(f"invalid qubits {self.qubits}")
        if self.kind == "U":
            m = np.asarray(np.nan if self.matrix is None else self.matrix, dtype=complex)
            if k not in (1, 2) or m.shape != (2**k, 2**k) or not (
                    np.abs(m.conj().T @ m - np.eye(2**k)).max() <= _NORM_TOL):
                raise SimulationError(f"U needs a 1- or 2-qubit unitary matrix on {self.qubits}")
            return
        m = _KIND_MATRIX.get(self.kind) if isinstance(self.kind, str) else None
        if callable(m):
            if not (isinstance(self.param, numbers.Real) and np.isfinite(self.param)):
                raise SimulationError(f"{self.kind} needs a finite angle, got {self.param!r}")
            m = m(self.param)
        if m is None or m.shape != (2**k, 2**k):
            raise SimulationError(f"{self.kind!r} is not a gate kind on {k} qubits")


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def _check(self, *qubits: int):
        if len(set(qubits)) != len(qubits):
            raise SimulationError(f"repeated qubit in {qubits}")
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise SimulationError(f"qubit {q} out of range for n={self.n_qubits}")

    def h(self, q: int) -> "Circuit":
        self._check(q)
        self.gates.append(Gate("H", (q,)))
        return self

    def x(self, q: int) -> "Circuit":
        self._check(q)
        self.gates.append(Gate("X", (q,)))
        return self

    def ry(self, theta: float, q: int) -> "Circuit":
        self._check(q)
        self.gates.append(Gate("RY", (q,), param=float(theta)))
        return self

    def rz(self, theta: float, q: int) -> "Circuit":
        self._check(q)
        self.gates.append(Gate("RZ", (q,), param=float(theta)))
        return self

    def cnot(self, control: int, target: int) -> "Circuit":
        self._check(control, target)
        self.gates.append(Gate("CNOT", (control, target)))
        return self

    def crx(self, theta: float, control: int, target: int) -> "Circuit":
        self._check(control, target)
        self.gates.append(Gate("CRX", (control, target), param=float(theta)))
        return self

    def toffoli(self, c1: int, c2: int, target: int) -> "Circuit":
        self._check(c1, c2, target)
        self.gates.append(Gate("TOFFOLI", (c1, c2, target)))
        return self

    def unitary(self, matrix: np.ndarray, *qubits: int) -> "Circuit":
        """Generic 1- or 2-qubit unitary."""
        self._check(*qubits)
        self.gates.append(Gate("U", tuple(qubits), matrix=np.asarray(matrix, dtype=complex)))
        return self

    def __len__(self) -> int:
        return len(self.gates)


_COMPILED_GATES = 128  # distinct compiled gates kept; a walk or circuit uses a few dozen


@functools.lru_cache(maxsize=_COMPILED_GATES)
def _compile(kind: str | int, qubits: tuple[int, ...], param, n: int):
    """One gate on an n-qubit register as a gather ``(src, w)``:
    ``out[j] = sum_t w[t, j] * in[src[t, j]]``, one term ``t`` per nonzero
    in the fullest row of the gate's matrix. ``kind`` is a gate kind or a
    projector's outcome; ``param`` is the angle, or a ``U``'s matrix bytes."""
    k = len(qubits)
    if not all(0 <= q < n for q in qubits):
        raise SimulationError(f"qubits {qubits} invalid for a {n}-qubit register")
    m = np.frombuffer(param, dtype=complex) if kind == "U" else _KIND_MATRIX[kind]
    m = (m(param) if callable(m) else m).reshape(2**k, 2**k)
    bits = [(k - 1 - i, n - 1 - q) for i, q in enumerate(qubits)]  # matrix bit, register bit
    j, c = np.arange(2**n), np.arange(2**k)
    row = sum(((j >> r) & 1) << b for b, r in bits)
    col = sum(((c >> b) & 1) << r for b, r in bits) + (j & ~sum(1 << r for _, r in bits))[:, None]
    # Each row's nonzero columns first; padding terms get weight 0.
    nonzero = m != 0
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, : nonzero.sum(axis=1).max()]
    src = np.ascontiguousarray(np.take_along_axis(col, cols[row], axis=1).T)
    w = np.ascontiguousarray(np.take_along_axis(m, cols, axis=1)[row].T)
    src.flags.writeable = w.flags.writeable = False
    return src, w


def _compile_step(step: Gate | np.ndarray | PostSelect, n: int):
    """A program step checked against the register and compiled: a cached
    gather for a ``Gate`` (a ``U`` keyed by its matrix bytes) or a
    ``PostSelect``, the transpose of a dense step."""
    if isinstance(step, PostSelect):
        return _compile(1, (step.qubit,), None, n)
    if isinstance(step, Gate):
        param = step.param if step.matrix is None else np.asarray(step.matrix, complex).tobytes()
        return _compile(step.kind, tuple(step.qubits), param, n)
    if np.shape(step) != (2**n, 2**n):
        raise SimulationError(f"dense step of shape {np.shape(step)} on {n} qubits")
    return np.asarray(step).T


def _apply(block: np.ndarray, op) -> np.ndarray:
    """Apply a compiled gate to one state vector or a ``(rows, 2**n)`` block."""
    src, w = op
    out = block[..., src[0]] * w[0]
    for s, x in zip(src[1:], w[1:]):
        out += block[..., s] * x
    return out


def apply_circuit(circuit: Circuit, psi: StateVector) -> StateVector:
    """Apply gates in order; unitary, so the norm is preserved."""
    if circuit.n_qubits != psi.n_qubits:
        raise SimulationError(
            f"circuit has {circuit.n_qubits} qubits, state has {psi.n_qubits}"
        )
    amps = psi.amplitudes.copy()
    for gate in circuit.gates:
        amps = _apply(amps, _compile_step(gate, circuit.n_qubits))
    norm = np.sum(np.abs(amps) ** 2)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise SimulationError(f"norm drifted to {norm}")
    return StateVector(psi.n_qubits, amps)


# --- evolution ----------------------------------------------------------

def _hermitian(h: PauliSum | np.ndarray) -> np.ndarray:
    """``h`` as a dense matrix, checked to be square, finite and Hermitian
    (``eigh`` reads one triangle only, so it would pass anything else)."""
    dense = h.to_dense() if isinstance(h, PauliSum) else np.asarray(h, dtype=complex)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or dense.size == 0:
        raise SimulationError(f"operator of shape {dense.shape} is not square")
    if not np.isfinite(dense).all() or np.abs(dense - dense.conj().T).max() > _NORM_TOL:
        raise SimulationError("operator is not a finite Hermitian matrix")
    return dense


def evolve(h: PauliSum | np.ndarray, t: float, psi: StateVector) -> StateVector:
    """Return e^{-iHt} |psi> via Hermitian eigendecomposition (exact)."""
    u = evolution_operator(h, t)
    if u.shape != (psi.amplitudes.size,) * 2:
        raise SimulationError(
            f"operator shape {u.shape} does not match state dim {psi.amplitudes.size}"
        )
    amps = u @ psi.amplitudes
    norm = np.sum(np.abs(amps) ** 2)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise SimulationError(f"norm drifted to {norm}")
    return StateVector(psi.n_qubits, amps)


def evolution_operator(h: PauliSum | np.ndarray, t: float) -> np.ndarray:
    """Dense e^{-iHt}; ``h`` must be finite and Hermitian, ``t`` finite and real."""
    if not (isinstance(t, numbers.Real) and np.isfinite(t)):
        raise SimulationError(f"evolution time must be a finite real, got {t!r}")
    evals, evecs = np.linalg.eigh(_hermitian(h))
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


# --- measurement and sampling -------------------------------------------

def measure_probs(psi: StateVector, targets: list[int] | tuple[int, ...]) -> dict[str, float]:
    """Marginal probabilities over the target qubits, keyed by bitstring.

    Key bit order follows ``targets``; probabilities sum to 1.
    """
    targets = list(targets)
    if not targets:
        raise SimulationError("targets must be nonempty")
    if len(set(targets)) != len(targets):
        raise SimulationError("targets must be distinct")
    for q in targets:
        if not isinstance(q, (int, np.integer)) or not 0 <= q < psi.n_qubits:
            raise SimulationError(f"qubit {q!r} out of range")
    n = psi.n_qubits
    probs = psi.probabilities().reshape([2] * n)
    keep = sorted(targets)
    drop = tuple(ax for ax in range(n) if ax not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    # Reorder the kept axes to the caller's target order.
    marg = np.transpose(marg, [keep.index(q) for q in targets])
    flat = marg.reshape(-1)
    width = len(targets)
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(flat)}


def measure_and_collapse(
    psi: StateVector, qubit: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projectively measure one qubit; return (outcome, collapsed state)."""
    n = psi.n_qubits
    kept = [_apply(psi.amplitudes, _compile(b, (qubit,), None, n)) for b in (0, 1)]
    p1 = float(np.sum(np.abs(kept[1]) ** 2))
    outcome = 1 if rng.random() < p1 else 0
    return outcome, StateVector(n, kept[outcome] / np.sqrt(p1 if outcome else 1.0 - p1))


def sample(psi: StateVector, shots: int, seed: int) -> Counter[str]:
    """Draw ``shots`` i.i.d. full-register bitstrings; deterministic per seed."""
    _check_integer(shots, "shots", 1)
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    probs = psi.probabilities()
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    out: Counter[str] = Counter()
    for i in np.flatnonzero(counts):
        out[psi.bitstring(i)] = int(counts[i])
    return out


# --- depolarizing noise ---------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing probabilities for 1- and 2-qubit gates.

    Gates with k touched qubits use p1 (k == 1) or p2 (k >= 2); on a noise
    event a Pauli drawn uniformly from all 4^k strings (identity included)
    is injected on the touched qubits.
    """

    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"probability {p} outside [0, 1]")

    def gate_probability(self, gate: Gate) -> float:
        return self.p1 if len(gate.qubits) == 1 else self.p2


def _noise_events(gates: list[Gate], noise: NoiseModel, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """For each shot with at least one depolarizing event, which of
    ``gates`` are followed by one."""
    probs = np.array([noise.gate_probability(g) for g in gates])
    events = rng.random((shots, probs.size)) < probs[None, :]
    return events[events.any(axis=1)]


def _inject_pauli(block: np.ndarray, rows: np.ndarray, qubits: tuple[int, ...],
                  n: int, rng: np.random.Generator) -> np.ndarray:
    """Inject a uniform Pauli on each of ``qubits`` into each of ``rows``:
    one label per row; each non-identity label acts on the rows holding it."""
    for q in qubits:
        labels = rng.integers(4, size=rows.size)
        for label in (1, 2, 3):
            hit = rows[labels == label]
            if hit.size:
                block[hit] = _apply(block[hit], _compile("IXYZ"[label], (q,), None, n))
    return block


@dataclass(frozen=True)
class PostSelect:
    """Trajectory step: keep the part of the state with ``qubit`` = 1."""

    qubit: int

    def __post_init__(self):
        _check_integer(self.qubit, "post-selection qubit", 0)


def run_trajectories(
    program: list[Gate | np.ndarray | PostSelect],
    psi0: StateVector,
    shots: int,
    rng: np.random.Generator,
    noise: NoiseModel | None = None,
) -> np.ndarray:
    """Run ``shots`` trajectories of ``program`` from ``psi0`` as one block
    and measure the register at the end.

    A step is a ``Gate``, a dense unitary on the whole register (noiseless),
    or a ``PostSelect`` (noiseless). Each step is compiled once, a gate or a
    post-selection to a gather, before any runs; a step that does not fit
    the register raises ``SimulationError``. With ``noise``, whether each
    gate of each shot is followed by a depolarizing event is drawn up front;
    an event injects a uniform Pauli on the gate's qubits.

    Returns the counts of the ``2**n`` outcomes over the shots that passed
    every ``PostSelect``; the shots not counted were discarded.
    """
    _check_integer(shots, "shots", 1)
    n = psi0.n_qubits
    ops = [_compile_step(step, n) for step in program]
    events = np.zeros((0, 0), dtype=bool)
    if noise is not None:
        gates = [step for step in program if isinstance(step, Gate)]
        events = _noise_events(gates, noise, shots, rng)

    # Row 0 is shared by every shot without an event, row r >= 1 is the r-th
    # noisy shot. Rows are never renormalised: the squared norm of a row is
    # the probability that it passed every post-selection.
    block = np.tile(psi0.amplitudes, (1 + len(events), 1))
    g_idx = 0
    for step, op in zip(program, ops):
        block = block @ op if isinstance(op, np.ndarray) else _apply(block, op)
        if isinstance(step, Gate):
            if len(events):
                hit = np.flatnonzero(events[:, g_idx]) + 1
                block = _inject_pauli(block, hit, step.qubits, n, rng)
            g_idx += 1
    probs = np.abs(block) ** 2
    # Clean shots: one multinomial over the outcomes and the discarded mass.
    cells = np.append(probs[0], max(1.0 - probs[0].sum(), 0.0))
    counts = rng.multinomial(shots - len(events), cells / cells.sum())[:-1]
    # Noisy shots: one inverse-CDF draw per row; a uniform past the row's
    # mass lands on outcome 2**n, the discarded one.
    cdf = np.cumsum(probs[1:], axis=1)
    picks = (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1)
    return counts + np.bincount(picks, minlength=2**n + 1)[:-1]


def run_noisy(
    circuit: Circuit, noise: NoiseModel, shots: int, seed: int
) -> Counter[str]:
    """Trajectory-sampled noisy execution from |0...0>, measured at the end.

    Per shot, after each gate, a uniformly random Pauli is injected on the
    gate's qubits with the gate-arity probability. Shots without any
    injection share the ideal final state; they are drawn in one batch,
    which leaves the output distribution unchanged.
    """
    _check_integer(shots, "shots", 1)
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    n = circuit.n_qubits
    ops = [_compile_step(gate, n) for gate in circuit.gates]
    events = _noise_events(circuit.gates, noise, shots, rng)
    clean = apply_circuit(circuit, StateVector.zero(n))
    out: Counter[str] = Counter()

    n_clean = shots - len(events)
    if n_clean:
        clean_seed = int(rng.integers(2**63))
        out.update(sample(clean, n_clean, clean_seed))

    row = np.zeros(1, dtype=int)
    for shot_events in events:
        amps = StateVector.zero(n).amplitudes[None]
        for gate, op, event in zip(circuit.gates, ops, shot_events):
            amps = _apply(amps, op)
            if event:
                amps = _inject_pauli(amps, row, gate.qubits, n, rng)
        probs = np.abs(amps[0]) ** 2
        probs /= probs.sum()
        idx = rng.choice(probs.size, p=probs)
        out[format(idx, f"0{n}b")] += 1
    return out
