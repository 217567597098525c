"""Statevector simulation substrate: Pauli decomposition, circuits, evolution, noise."""
from .pauli import PauliError, pauli_decompose
from .sim import (
    Circuit,
    Gate,
    NoiseModel,
    PostSelect,
    SimulationError,
    StateVector,
    apply_circuit,
    draw_counts,
    evolution_operator,
    run_noisy,
    run_trajectories,
)

__all__ = [
    "PauliError",
    "pauli_decompose",
    "Circuit",
    "Gate",
    "NoiseModel",
    "PostSelect",
    "SimulationError",
    "StateVector",
    "apply_circuit",
    "draw_counts",
    "evolution_operator",
    "run_noisy",
    "run_trajectories",
]
