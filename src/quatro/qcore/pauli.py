"""The Pauli form of a Hermitian matrix.

Models hand their Hamiltonians around as dense matrices; the Pauli form is
derived output of ``pauli_decompose``: a plain ``{label: coefficient}`` dict.
Qubit 0 is the leftmost character of a label and the most significant bit
of a basis index.
"""
from __future__ import annotations

import numpy as np

_TOL = 1e-10  # Hermiticity slack, and the size below which a coefficient is dropped
_MAX_QUBITS = 10  # 4^n coefficients: 10 qubits is about a million

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
    """Raised on a matrix that has no Pauli form: not numeric, not square
    with a power-of-two dimension, too large, non-finite or not Hermitian."""


def pauli_decompose(h: np.ndarray) -> dict[str, float]:
    """Decompose a dense Hermitian matrix into ``{label: coefficient}``.

    A label such as ``"IXZ"`` names a Pauli string P, qubit 0 first, and its
    coefficient is the real trace(P . h) / 2^n; coefficients with magnitude
    at most 1e-10 are left out. All 4^n are computed at once by applying the
    single-qubit block transform along each tensor axis (O(n 4^n) instead of
    O(8^n) per-string traces).
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

    terms: dict[str, float] = {}
    for flat_idx in np.flatnonzero(np.abs(t) > _TOL):
        idx = np.unravel_index(flat_idx, t.shape)
        coeff = t[idx]
        if abs(coeff.imag) > _TOL:
            raise PauliError("Hermitian input produced a complex coefficient")
        terms["".join(_LABELS[i] for i in idx)] = float(coeff.real)
    return terms
