"""Exact dense statevector simulator.

States live on n <= ~10 qubits as complex vectors of length 2^n. Basis
index i renders as the bitstring of i with qubit 0 leftmost (most
significant). A step's small complex matrix (a gate kind's, a ``U``'s own
or a projector) compiles once, cached by its bytes and qubits, into a
gather over the register, which one kernel applies. Evolution is exact
(Hermitian eigendecomposition); per-gate depolarizing noise is sampled as
Pauli-twirl trajectories. Only the noise events are drawn, as geometric gaps
between them, and each event's Pauli is injected into its row as a
precomputed bit-flip mask and sign mask (as in Stim: Gidney, Quantum 5, 497,
2021).
"""
from __future__ import annotations

import functools
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-10
_MAX_SHOTS = 2**63  # exclusive: numpy's multinomial takes an int64 count


class SimulationError(ValueError):
    """Raised on dimension mismatches, bad indices, or norm violations."""


def _check_integer(value, name: str, low: int, high: int | None = None):
    """``value`` is an integer, not a ``bool``, with ``low <= value`` and,
    if ``high`` is given, ``value < high``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value >= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise SimulationError(f"{name} must be an integer {bound}, got {value!r}")


def _check_type(value, cls: type, name: str):
    if not isinstance(value, cls):
        raise SimulationError(f"{name} must be a {cls.__name__}, got {value!r}")


def _complex_array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as e:
        raise SimulationError(f"{name} is not numeric: {e}") from None


def _is_unitary(m: np.ndarray) -> bool:
    """Whether the square matrix ``m`` is finite and ``|M^dagger M - I|max <= _NORM_TOL``."""
    return np.abs(m.conj().T @ m - np.eye(len(m))).max() <= _NORM_TOL  # NaN fails


@dataclass(frozen=True, eq=False)
class StateVector:
    """``2**n_qubits`` amplitudes whose squared norm is within 1e-8 of 1;
    they are stored divided by that norm's root, so every state is unit-norm
    to rounding. A state is immutable: its fields cannot be reassigned and
    its amplitudes are a read-only array, so the checks made when it is
    built hold for as long as it lives. States compare and hash by identity."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_integer(self.n_qubits, "qubit count", 1)
        amps = _complex_array(self.amplitudes, "amplitudes")
        if amps.shape != (2**self.n_qubits,):
            raise SimulationError(f"expected {2**self.n_qubits} amplitudes, got {amps.shape}")
        # Checked before squaring, so that no square overflows; NaN fails too.
        if not (largest := np.abs(amps).max()) <= 1.0 + 1e-8:
            raise SimulationError(f"an amplitude of magnitude {largest} exceeds 1")
        norm = np.sum(np.abs(amps) ** 2)
        if not abs(norm - 1.0) <= 1e-8:
            raise SimulationError(f"state norm {norm} is not 1")
        amps = amps / np.sqrt(norm)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        _check_integer(n_qubits, "qubit count", 1)
        _check_integer(index, "basis index", 0, 2**n_qubits)
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        amps = _complex_array(amplitudes, "amplitudes")
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise SimulationError(f"{amps.size} amplitudes are not a power of two >= 2")
        n = amps.size.bit_length() - 1
        # Scaled to a largest magnitude of 1 first, so the norm's squares
        # neither overflow nor underflow. The real and imaginary parts are
        # divided as reals: complex division takes 1 / largest, which
        # overflows for a subnormal one.
        largest = np.abs(amps).max()
        if not 0 < largest < np.inf:  # also rejects NaN
            raise SimulationError(f"cannot normalise amplitudes of largest magnitude {largest}")
        parts = np.ascontiguousarray(amps).view(float) / largest
        return cls(n, parts.view(complex) / np.linalg.norm(parts))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


# --- gates --------------------------------------------------------------

# Each kind's matrix on its qubits, controls first, the first qubit being the
# most significant bit of the matrix index; a callable takes the gate's param.
_KIND_MATRIX = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
    "X": np.array([[0, 1], [1, 0]]),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],
    "TOFFOLI": np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]],
    "RY": lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]]),
    "RZ": lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]),
    "CRX": lambda t: np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, np.cos(t / 2), -1j * np.sin(t / 2)],
                               [0, 0, -1j * np.sin(t / 2), np.cos(t / 2)]]),
}
# The compile key of PostSelect's projector onto qubit = 1.
_POST_SELECT = np.diag([0, 1]).astype(complex).tobytes()


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit element. ``qubits`` lists controls first, target last.

    Checked when built: a kind among H, X, RY, RZ, CNOT, CRX, TOFFOLI and U (one per
    ``Circuit`` builder) on distinct non-negative qubits of its arity, a finite ``param``
    for RY, RZ and CRX and none for any other kind, and a unitary ``matrix`` for ``U``
    and no other kind; anything else raises ``SimulationError``.
    A gate keeps its own tuple of qubits, and a ``U`` its own read-only
    complex copy of the matrix, so later writes to the caller's list or
    array do not reach the gate. Gates compare and hash by identity.
    """

    kind: str
    qubits: tuple[int, ...]
    param: float | None = None
    matrix: np.ndarray | None = None  # for generic 1q/2q unitaries

    def __post_init__(self):
        if not isinstance(self.qubits, (tuple, list)):
            raise SimulationError(f"gate qubits must be a tuple or list, got {self.qubits!r}")
        k = len(self.qubits)
        for q in self.qubits:
            _check_integer(q, "gate qubit", 0)
        if len(set(self.qubits)) != k:
            raise SimulationError(f"repeated qubits {self.qubits}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        m = _KIND_MATRIX.get(self.kind) if isinstance(self.kind, str) else None
        if callable(m):
            if (isinstance(self.param, bool) or not isinstance(self.param, numbers.Real)
                    or not np.isfinite(self.param)):
                raise SimulationError(f"{self.kind} needs a finite angle, got {self.param!r}")
            m = m(self.param)
        elif self.param is not None:
            raise SimulationError(f"{self.kind!r} takes no angle, got {self.param!r}")
        if self.kind == "U":
            m = _complex_array(np.nan if self.matrix is None else self.matrix, "U matrix")
            if k not in (1, 2) or m.shape != (2**k, 2**k) or not _is_unitary(m):
                raise SimulationError(f"U needs a 1- or 2-qubit unitary matrix on {self.qubits}")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
            return
        if self.matrix is not None:
            raise SimulationError(f"only a U gate takes a matrix, not {self.kind!r}")
        if m is None or m.shape != (2**k, 2**k):
            raise SimulationError(f"{self.kind!r} is not a gate kind on {k} qubits")


@dataclass
class Circuit:
    """An ordered gate list on ``n_qubits``; each builder appends one gate
    and returns the circuit. ``Gate`` checks each gate; ``Circuit`` checks
    only that the gate's qubits fit the register."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        _check_integer(self.n_qubits, "qubit count", 1)

    def _add(self, kind: str, qubits: tuple[int, ...], param=None, matrix=None) -> "Circuit":
        gate = Gate(kind, qubits, param, matrix)
        if max(gate.qubits) >= self.n_qubits:
            raise SimulationError(f"qubits {qubits} out of range for n={self.n_qubits}")
        self.gates.append(gate)
        return self

    def h(self, q: int) -> "Circuit":
        return self._add("H", (q,))

    def x(self, q: int) -> "Circuit":
        return self._add("X", (q,))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self._add("RY", (q,), theta)

    def rz(self, theta: float, q: int) -> "Circuit":
        return self._add("RZ", (q,), theta)

    def cnot(self, control: int, target: int) -> "Circuit":
        return self._add("CNOT", (control, target))

    def crx(self, theta: float, control: int, target: int) -> "Circuit":
        return self._add("CRX", (control, target), theta)

    def toffoli(self, c1: int, c2: int, target: int) -> "Circuit":
        return self._add("TOFFOLI", (c1, c2, target))

    def unitary(self, matrix: np.ndarray, *qubits: int) -> "Circuit":
        """Generic 1- or 2-qubit unitary."""
        return self._add("U", qubits, matrix=matrix)

    def __len__(self) -> int:
        return len(self.gates)


_COMPILED_GATES = 128  # distinct compiled gates kept; a walk or circuit uses a few dozen


@functools.lru_cache(maxsize=_COMPILED_GATES)
def _compile(matrix: bytes, qubits: tuple[int, ...], n: int):
    """A ``2**k x 2**k`` complex matrix on k ``qubits`` of an n-qubit
    register as a gather ``(src, w)``: ``out[j] = sum_t w[t, j] * in[src[t, j]]``,
    one term ``t`` per nonzero in the fullest row of the matrix. ``matrix``
    is the matrix's bytes, so a gate is cached by what it does, not by its
    kind or angle. A permutation (one term, every weight 1, as for X, CNOT
    and TOFFOLI) has ``w = None``: it is the gather alone."""
    k = len(qubits)
    if not all(0 <= q < n for q in qubits):
        raise SimulationError(f"qubits {qubits} invalid for a {n}-qubit register")
    m = np.frombuffer(matrix, dtype=complex).reshape(2**k, 2**k)
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
    return src, None if len(w) == 1 and (w == 1).all() else w


def _compile_step(step: Gate | np.ndarray | PostSelect, n: int):
    """A program step checked against the register and compiled: a cached
    gather of a ``Gate``'s matrix (a ``U``'s own, else its kind's at its
    angle) or of ``PostSelect``'s projector, the transpose of a dense step,
    which must be unitary."""
    if isinstance(step, PostSelect):
        return _compile(_POST_SELECT, (step.qubit,), n)
    if isinstance(step, Gate):
        m = step.matrix if step.kind == "U" else _KIND_MATRIX[step.kind]
        m = m(step.param) if callable(m) else m
        return _compile(np.asarray(m, dtype=complex).tobytes(), step.qubits, n)
    m = _complex_array(step, "dense step")
    if m.shape != (2**n, 2**n) or not _is_unitary(m):
        raise SimulationError(f"dense step of shape {m.shape} on {n} qubits is not unitary")
    return m.T


def _compile_circuit(circuit: Circuit) -> list:
    """A circuit's gates compiled for its register; its ``gates`` is public
    and mutable, so an element that is not a ``Gate`` is rejected here."""
    _check_type(circuit, Circuit, "circuit")
    if not isinstance(circuit.gates, (list, tuple)):
        raise SimulationError(f"circuit gates must be a list, got {circuit.gates!r}")
    for g in circuit.gates:
        _check_type(g, Gate, "circuit gate")
    return [_compile_step(g, circuit.n_qubits) for g in circuit.gates]


def _apply(block: np.ndarray, op) -> np.ndarray:
    """Apply a compiled gate to one state vector or a ``(rows, 2**n)`` block,
    one ``take`` per term."""
    src, w = op
    out = block.take(src[0], axis=-1)
    if w is None:
        return out
    out *= w[0]
    for s, x in zip(src[1:], w[1:]):
        term = block.take(s, axis=-1)
        term *= x
        out += term
    return out


def apply_circuit(circuit: Circuit, psi: StateVector) -> StateVector:
    """Apply gates in order; unitary, so the norm is preserved."""
    ops = _compile_circuit(circuit)
    _check_type(psi, StateVector, "psi")
    if circuit.n_qubits != psi.n_qubits:
        raise SimulationError(
            f"circuit has {circuit.n_qubits} qubits, state has {psi.n_qubits}"
        )
    amps = psi.amplitudes
    for op in ops:
        amps = _apply(amps, op)
    norm = np.sum(np.abs(amps) ** 2)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise SimulationError(f"norm drifted to {norm}")
    return StateVector(psi.n_qubits, amps)


# --- evolution ----------------------------------------------------------

def _hermitian(h) -> np.ndarray:
    """``h`` as a complex array, checked to be square, finite and Hermitian
    (``eigh`` reads one triangle only, so it would pass anything else)."""
    dense = _complex_array(h, "operator")
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or dense.size == 0:
        raise SimulationError(f"operator of shape {dense.shape} is not square")
    if not np.isfinite(dense).all() or np.abs(dense - dense.conj().T).max() > _NORM_TOL:
        raise SimulationError("operator is not a finite Hermitian matrix")
    return dense


def evolution_operator(h: np.ndarray, t: float) -> np.ndarray:
    """Dense e^{-iHt}; ``h`` must be a dense finite Hermitian matrix and
    ``t`` finite and real. Evolve a state as
    ``evolution_operator(h, t) @ psi.amplitudes``."""
    if isinstance(t, bool) or not (isinstance(t, numbers.Real) and np.isfinite(t)):
        raise SimulationError(f"evolution time must be a finite real, got {t!r}")
    evals, evecs = np.linalg.eigh(_hermitian(h))
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


# --- measurement and sampling -------------------------------------------

def draw_counts(cells, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Int64 counts of ``shots`` i.i.d. draws over the kept outcomes, whose
    probabilities ``cells`` are finite, non-negative and sum to at most
    1 + 1e-10; the missing mass ``1 - sum(cells)`` is drawn but not counted."""
    _check_integer(shots, "shots", 0, _MAX_SHOTS)
    _check_type(rng, np.random.Generator, "rng")
    try:
        cells = np.asarray(cells, dtype=float)
    except (TypeError, ValueError) as e:
        raise SimulationError(f"cells are not numeric: {e}") from None
    if cells.ndim != 1 or not (cells >= 0).all() or not cells.sum() <= 1.0 + _NORM_TOL:
        raise SimulationError(f"cells are not probabilities summing to at most 1: {cells}")
    cells = np.append(cells, max(1.0 - cells.sum(), 0.0))
    return rng.multinomial(shots, cells / cells.sum())[:-1].astype(np.int64, copy=False)


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
            if isinstance(p, bool) or not (isinstance(p, numbers.Real) and 0.0 <= p <= 1.0):
                raise SimulationError(f"probability {p!r} is not a real in [0, 1]")

    def gate_probability(self, gate: Gate) -> float:
        return self.p1 if len(gate.qubits) == 1 else self.p2


def _successes(p: float, cells: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending indices, as exact floats, of the successes among ``cells``
    independent Bernoulli(``p``) trials, found from geometric gaps: with u
    uniform on (0, 1], a gap is 1 + floor(log u / log1p(-p)), so
    P(gap >= m) = (1 - p)^(m - 1). Memory grows with the successes drawn."""
    log_q = np.log1p(-p) if p < 1 else -np.inf
    # A gap past twice the trials ends the draw like any gap past them, and
    # the floor on log u keeps the quotient finite when p is subnormal.
    low = 2.0 * cells * log_q
    found, last = [], -1.0
    while last < cells:
        left = (cells - 1 - last) * p  # expected successes still to come
        gaps = rng.random(int(left + 5 * np.sqrt(left)) + 16)
        np.subtract(1.0, gaps, out=gaps)
        np.log(gaps, out=gaps)
        np.maximum(gaps, low, out=gaps)
        gaps /= log_q
        np.floor(gaps, out=gaps)
        gaps += 1.0
        at = np.cumsum(gaps, out=gaps)
        at += last
        found.append(at[: np.searchsorted(at, cells)])
        last = at[-1]
    return np.concatenate(found) if len(found) > 1 else found[0]


def _event_keys(probs: list[float], shots: int, rng: np.random.Generator) -> np.ndarray:
    """The cells ``gate * shots + shot``, ascending and as exact floats, that
    are followed by a depolarizing event, gate ``g`` having one with
    probability ``probs[g]`` in each shot. Each distinct p > 0 draws its
    gates' cells gate-major, so cell ``i * shots + s`` of a group is shot s
    after its i-th gate."""
    span = float(shots)
    keys = []
    for p in dict.fromkeys(probs):
        if p > 0:
            group = [g for g, q in enumerate(probs) if q == p]
            cells = _successes(p, shots * len(group), rng)
            cuts = np.searchsorted(cells, np.arange(len(group) + 1) * span).tolist()
            for i, g in enumerate(group):
                if g != i:
                    cells[cuts[i]:cuts[i + 1]] += (g - i) * span
            keys.append(cells)
    if len(keys) > 1:
        return np.sort(np.concatenate(keys))
    return keys[0] if keys else np.zeros(0)


def _noise_events(gates: list[Gate], noise: NoiseModel, shots: int, n: int,
                  rng: np.random.Generator):
    """The depolarizing events of ``shots`` runs of ``gates`` on an n-qubit
    register, drawn with memory that grows with the events only.

    Returns ``(rank, pauli, starts, noisy)``. Events are gate-major: gate g's
    are ``starts[g]:starts[g + 1]``, in ascending shot order. Per event,
    ``rank`` is its shot's rank among the ``noisy`` shots with an event, and
    ``pauli`` packs its Pauli X^x Z^z as ``x | z << n``, a bit-flip mask and a
    sign mask over the register (one array for both keeps a large draw's
    memory to two arrays): a uniform label I, X, Y or Z per qubit of the gate
    gives x-bit ``label % 3 != 0`` and z-bit ``label >= 2``.
    """
    _check_type(noise, NoiseModel, "noise")
    span = float(shots)
    key = _event_keys([noise.gate_probability(g) for g in gates], shots, rng)
    starts = np.searchsorted(key, np.arange(len(gates) + 1) * span)
    if not key.size:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), starts, 0
    # Each event-sized array is dropped once used, so that a large draw
    # holds few of them at a time.
    shot = np.mod(key, span, out=key)
    ordered = np.sort(shot)
    noisy_shots = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    del ordered
    rank = np.searchsorted(noisy_shots, shot)
    del key, shot
    # One draw holds every event's labels, a base-4 digit per qubit slot,
    # and a per-gate table turns a gate's digits into its packed masks.
    k = max(len(g.qubits) for g in gates)
    digits = np.arange(4**k)[:, None] >> 2 * np.arange(k) & 3
    bits = np.array([[1 << (n - 1 - q) for q in g.qubits] + [0] * (k - len(g.qubits))
                     for g in gates])[:, None, :]
    table = (((digits % 3 != 0) * bits).sum(axis=2)
             | ((digits >= 2) * bits).sum(axis=2) << n).ravel()
    labels = rng.integers(4**k, size=rank.size)
    labels += np.repeat(np.arange(len(gates)) * 4**k, np.diff(starts))
    return rank, table.take(labels), starts, len(noisy_shots)


def _parity_signs(n: int) -> np.ndarray:
    """``(-1) ** popcount(m)`` for each m below ``2**n``."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    return signs


def _inject_pauli(block: np.ndarray, rows: np.ndarray, x: np.ndarray, z: np.ndarray,
                  signs: np.ndarray) -> None:
    """Inject in place the Pauli X^x Z^z of each event into its row of
    ``block``, one gather for them all: ``out[j] = in[j ^ x] * (-1)^parity((j ^ x) & z)``,
    with ``signs`` from ``_parity_signs``. ``rows`` are distinct. Y = iXZ, and
    a row's global phase changes no probability."""
    src = x[:, None] ^ np.arange(block.shape[-1])
    block[rows] = block[rows[:, None], src] * signs[src & z[:, None]]


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
    or a ``PostSelect`` (noiseless). Each distinct step object is compiled
    once, a gate or a post-selection to a gather, before any runs; a step
    that does not fit the register, or a dense step that is not unitary,
    raises ``SimulationError``. With ``noise``, the depolarizing events of
    all shots are drawn up front by ``_noise_events``, in memory that grows
    with the events, not the shots; an event injects a uniform Pauli on the
    gate's qubits, one gather per gate step for all of that step's events.

    Returns the counts of the ``2**n`` outcomes over the shots that passed
    every ``PostSelect``; the shots not counted were discarded.
    """
    if not isinstance(program, (list, tuple)):
        raise SimulationError(
            f"program must be a list or tuple of steps (a circuit's is circuit.gates), "
            f"got {type(program).__name__}")
    _check_type(psi0, StateVector, "psi0")
    _check_integer(shots, "shots", 1, _MAX_SHOTS)
    _check_type(rng, np.random.Generator, "rng")
    n = psi0.n_qubits
    distinct = {id(step): step for step in program}  # a walk repeats its steps
    compiled = {key: _compile_step(step, n) for key, step in distinct.items()}
    ops = [compiled[id(step)] for step in program]
    gates = [step for step in program if isinstance(step, Gate)]
    rows, pauli, starts, noisy = _noise_events(
        gates, NoiseModel() if noise is None else noise, shots, n, rng)
    rows += 1  # the noisy shot of rank r is row r + 1 of the block
    spans = zip(starts[:-1].tolist(), starts[1:].tolist())
    signs, low = _parity_signs(n), (1 << n) - 1

    # Row 0 is shared by every shot without an event, row r >= 1 is the r-th
    # noisy shot. Rows are never renormalised: a row's squared norm is the
    # probability that it passed every post-selection, the rest is discarded.
    block = np.tile(psi0.amplitudes, (1 + noisy, 1))
    for step, op in zip(program, ops):
        block = block @ op if isinstance(op, np.ndarray) else _apply(block, op)
        if isinstance(step, Gate):
            lo, hi = next(spans)
            if lo < hi:
                _inject_pauli(block, rows[lo:hi], pauli[lo:hi] & low, pauli[lo:hi] >> n, signs)
    probs = np.abs(block) ** 2
    # Clean shots: one draw over row 0's outcomes and its discarded mass.
    counts = draw_counts(probs[0], shots - noisy, rng)
    # Noisy shots: one inverse-CDF draw per row; a uniform past the row's
    # mass lands on outcome 2**n, the discarded one.
    cdf = np.cumsum(probs[1:], axis=1)
    picks = (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1)
    return counts + np.bincount(picks, minlength=2**n + 1)[:-1]


def run_noisy(
    circuit: Circuit, noise: NoiseModel | None, shots: int, seed: int
) -> Counter[str]:
    """Trajectory-sampled noisy execution from |0...0>, measured at the end.

    Per shot, after each gate, a uniformly random Pauli is injected on the
    gate's qubits with the gate-arity probability; ``noise=None`` means no
    noise. The events of all shots are drawn up front by ``_noise_events``,
    as ``run_trajectories`` draws them. Shots without any injection share
    the ideal final state and are one ``draw_counts`` over its
    probabilities; each other shot is run with its own events and drawn
    alone. Either keeps the output law of running every shot alone.
    """
    ops = _compile_circuit(circuit)
    _check_integer(shots, "shots", 1, _MAX_SHOTS)
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    n = circuit.n_qubits
    rank, pauli, starts, noisy = _noise_events(
        circuit.gates, NoiseModel() if noise is None else noise, shots, n, rng)
    clean = apply_circuit(circuit, StateVector.zero(n))
    counts = draw_counts(clean.probabilities(), shots - noisy, rng)
    # Each noisy shot's events, in gate order. Every event-sized array is
    # dropped once used, so that a dense draw holds few of them at a time.
    by_shot = np.argsort(rank, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(rank)).tolist()]
    del rank
    pauli = pauli[by_shot]
    gate = np.searchsorted(starts, by_shot, side="right")
    gate -= 1
    del by_shot
    signs, low = _parity_signs(n), (1 << n) - 1
    row = np.zeros(1, dtype=int)
    zero = StateVector.zero(n).amplitudes[None]
    for lo, hi in zip(bounds, bounds[1:]):
        hits = dict(zip(gate[lo:hi].tolist(), range(lo, hi)))
        amps = zero
        for g, op in enumerate(ops):
            amps = _apply(amps, op)
            if (e := hits.get(g)) is not None:
                _inject_pauli(amps, row, pauli[e:e + 1] & low, pauli[e:e + 1] >> n, signs)
        counts[rng.choice(2**n, p=np.abs(amps[0]) ** 2)] += 1
    return Counter({format(i, f"0{n}b"): int(counts[i]) for i in np.flatnonzero(counts)})
