"""Pauli-string algebra.

Models hand their Hamiltonians around as dense matrices; the Pauli form
(a ``PauliSum``) is derived on demand with ``pauli_decompose``.
Qubit 0 is the leftmost label in the string and the most significant bit
of a basis index.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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
        if not self.ops or any(c not in _LABELS for c in self.ops):
            raise PauliError(f"invalid Pauli string {self.ops!r}")

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
        clean: dict[PauliString, float] = {}
        for p, c in self.terms.items():
            if isinstance(p, str):
                p = PauliString(p)
            if p.n_qubits != self.n_qubits:
                raise PauliError(
                    f"term {p} has {p.n_qubits} qubits, register has {self.n_qubits}"
                )
            c = float(c)
            if c != 0.0:
                clean[p] = clean.get(p, 0.0) + c
        if not np.isfinite(list(clean.values())).all():  # also a sum that overflowed
            raise PauliError(f"non-finite coefficient in {clean}")
        self.terms = {p: c for p, c in clean.items() if c != 0.0}

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.dim, self.dim), dtype=complex)
        for p, c in self.terms.items():
            h += c * p.matrix()
        return h

    def to_json(self) -> str:
        payload = {
            "n": self.n_qubits,
            "terms": [
                {"pauli": p.ops, "coeff": c}
                for p, c in sorted(self.terms.items(), key=lambda kv: kv[0].ops)
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PauliSum":
        payload = json.loads(text)
        terms = {PauliString(t["pauli"]): float(t["coeff"]) for t in payload["terms"]}
        return cls(int(payload["n"]), terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if other.n_qubits != self.n_qubits:
            raise PauliError("register size mismatch")
        merged = dict(self.terms)
        for p, c in other.terms.items():
            merged[p] = merged.get(p, 0.0) + c
        return PauliSum(self.n_qubits, merged)

    def __mul__(self, scale: float) -> "PauliSum":
        return PauliSum(self.n_qubits, {p: c * scale for p, c in self.terms.items()})

    __rmul__ = __mul__


def pauli_decompose(h: np.ndarray, tol: float = 1e-10, max_qubits: int = 10) -> PauliSum:
    """Decompose a dense Hermitian matrix into a PauliSum.

    The coefficient of string P is trace(P . h) / 2^n, computed for all 4^n
    strings at once by applying the single-qubit block transform along each
    tensor axis (O(n 4^n) instead of O(8^n) per-string traces).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise PauliError(f"expected a square matrix, got shape {h.shape}")
    dim = h.shape[0]
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise PauliError(f"dimension {dim} is not a power of two")
    if n > max_qubits:
        raise PauliError(f"{n} qubits exceeds the {max_qubits}-qubit guard")
    if np.max(np.abs(h - h.conj().T)) > tol:
        raise PauliError("matrix is not Hermitian within tolerance")

    # Axes (r0..r_{n-1}, c0..c_{n-1}) -> pairs (r_k, c_k) flattened to size 4.
    t = h.reshape([2] * (2 * n))
    t = t.transpose([ax for k in range(n) for ax in (k, k + n)])
    t = t.reshape([4] * n)
    for axis in range(n):
        t = np.tensordot(_BLOCK_TO_PAULI, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)

    terms: dict[PauliString, float] = {}
    for flat_idx in np.flatnonzero(np.abs(t) > tol):
        idx = np.unravel_index(flat_idx, t.shape)
        coeff = t[idx]
        if abs(coeff.imag) > tol:
            raise PauliError("Hermitian input produced a complex coefficient")
        terms[PauliString("".join(_LABELS[i] for i in idx))] = float(coeff.real)
    return PauliSum(n, terms)
