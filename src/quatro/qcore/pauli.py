"""Pauli strings and the Pauli form of a Hermitian matrix.

Models hand their Hamiltonians around as dense matrices; the Pauli form
(a ``PauliSum``) is derived output of ``pauli_decompose``, read through its
``terms`` or turned back with ``to_dense``. It has no serialisation and no
arithmetic. Qubit 0 is the leftmost label in the string and the most
significant bit of a basis index.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-10  # Hermiticity slack, and the size below which a coefficient is dropped
_MAX_QUBITS = 10  # 4^n coefficients: 10 qubits is about a million

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_LABELS = "IXYZ"

# Maps the flattened 2x2 block [h00, h01, h10, h11] of one qubit onto its
# (I, X, Y, Z) coefficients: c_P = trace(P . h) / 2.
_BLOCK_TO_PAULI = 0.5 * np.array(
    [
        [1, 0, 0, 1],      # I: (h00 + h11)/2
        [0, 1, 1, 0],      # X: (h01 + h10)/2
        [0, 1j, -1j, 0],   # Y: i(h01 - h10)/2
        [1, 0, 0, -1],     # Z: (h00 - h11)/2
    ],
    dtype=complex,
)


class PauliError(ValueError):
    """Raised on malformed Pauli strings or non-decomposable matrices."""


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. ``"IXZ"`` (qubit 0 first)."""

    ops: str

    def __post_init__(self):
        ops = self.ops
        if not isinstance(ops, str) or not ops or any(c not in _LABELS for c in ops):
            raise PauliError(f"a Pauli string is a nonempty str over {_LABELS}, got {ops!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.ops)

    def matrix(self) -> np.ndarray:
        m = _PAULI_1Q[self.ops[0]].copy()  # callers may write to it
        for c in self.ops[1:]:
            m = np.kron(m, _PAULI_1Q[c])
        return m

    def __str__(self) -> str:
        return self.ops


@dataclass
class PauliSum:
    """Real-weighted sum of Pauli strings on a fixed register.

    Coefficients are real (the operator is Hermitian by construction);
    zero-coefficient terms are dropped eagerly.
    """

    n_qubits: int
    terms: dict[PauliString, float] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_qubits
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise PauliError(f"qubit count must be an integer >= 1, got {n!r}")
        clean: dict[PauliString, float] = {}
        for p, c in self.terms.items():
            p = PauliString(p) if isinstance(p, str) else p
            if not isinstance(p, PauliString) or p.n_qubits != n:
                raise PauliError(f"term {p!r} is not a Pauli string on {n} qubits")
            if isinstance(c, bool) or not isinstance(c, numbers.Real):
                raise PauliError(f"coefficient of {p} must be a real number, got {c!r}")
            c = float(c)
            if c != 0.0:
                clean[p] = clean.get(p, 0.0) + c
        if not np.isfinite(list(clean.values())).all():  # also a sum that overflowed
            raise PauliError(f"non-finite coefficient in {clean}")
        self.terms = {p: c for p, c in clean.items() if c != 0.0}

    def to_dense(self) -> np.ndarray:
        h = np.zeros((2**self.n_qubits,) * 2, dtype=complex)
        for p, c in self.terms.items():
            h += c * p.matrix()
        return h


def pauli_decompose(h: np.ndarray) -> PauliSum:
    """Decompose a dense Hermitian matrix into a PauliSum.

    The coefficient of string P is trace(P . h) / 2^n, computed for all 4^n
    strings at once by applying the single-qubit block transform along each
    tensor axis (O(n 4^n) instead of O(8^n) per-string traces).
    """
    try:
        h = np.asarray(h, dtype=complex)
    except (TypeError, ValueError) as e:
        raise PauliError(f"matrix is not numeric: {e}") from None
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise PauliError(f"expected a square matrix, got shape {h.shape}")
    dim = h.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise PauliError(f"dimension {dim} is not a power of two >= 2")
    n = dim.bit_length() - 1
    if n > _MAX_QUBITS:
        raise PauliError(f"{n} qubits exceeds the {_MAX_QUBITS}-qubit guard")
    if not np.isfinite(h).all():
        raise PauliError("matrix has non-finite entries")
    if np.max(np.abs(h - h.conj().T)) > _TOL:
        raise PauliError("matrix is not Hermitian within tolerance")

    # Axes (r0..r_{n-1}, c0..c_{n-1}) -> pairs (r_k, c_k) flattened to size 4.
    t = h.reshape([2] * (2 * n))
    t = t.transpose([ax for k in range(n) for ax in (k, k + n)])
    t = t.reshape([4] * n)
    for axis in range(n):
        t = np.tensordot(_BLOCK_TO_PAULI, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)

    terms: dict[PauliString, float] = {}
    for flat_idx in np.flatnonzero(np.abs(t) > _TOL):
        idx = np.unravel_index(flat_idx, t.shape)
        coeff = t[idx]
        if abs(coeff.imag) > _TOL:
            raise PauliError("Hermitian input produced a complex coefficient")
        terms[PauliString("".join(_LABELS[i] for i in idx))] = float(coeff.real)
    return PauliSum(n, terms)
