"""Symmetric 2M-port (Bell multiport) beam splitter unitaries.

A Bell multiport evenly splits a single-port feed over all M outputs; its
matrix is the discrete-Fourier-type unitary with entries of modulus 1/sqrt(M).
Entries are built from exact residue exponents and converted through a single
root-of-unity table, so no phase drift accumulates for larger M.
"""

from __future__ import annotations

import math

import numpy as np

from .angles import _check_int, _Record
from .closed import unit_roots

#: Largest supported port count; paradox scenarios need M = N-1 only.
MAX_PORTS = 64


class MultiportMatrix(_Record):
    """A dense M x M unitary, indexed (input port, output port), 0-based."""

    _fields = ("ports", "entries")

    def __init__(self, ports: int, entries: np.ndarray):
        if entries.shape != (ports, ports):
            raise ValueError(f"entries must be {ports}x{ports}, got {entries.shape}")
        entries.setflags(write=False)
        self.__dict__.update(ports=ports, entries=entries)


def bell_multiport(ports: int) -> MultiportMatrix:
    """The Bell multiport with entry(m, m') = gamma_M^(m*m') / sqrt(M), 0-based."""
    _check_int(ports, f"ports must be an integer in 2..{MAX_PORTS}", 2, MAX_PORTS)
    exponents = np.outer(np.arange(ports), np.arange(ports)) % ports
    entries = unit_roots(ports)[exponents] / math.sqrt(ports)
    return MultiportMatrix(ports, entries)


def verify_unitarity(matrix: MultiportMatrix, tol: float = 1e-12) -> bool:
    """True iff U U+ = I within tol per entry and every |entry| = 1/sqrt(M)."""
    entries = matrix.entries
    gram = entries @ entries.conj().T
    if np.max(np.abs(gram - np.eye(matrix.ports))) > tol:
        return False
    return bool(np.max(np.abs(np.abs(entries) - 1.0 / math.sqrt(matrix.ports))) <= tol)


def transmit(matrix: MultiportMatrix, amplitudes) -> np.ndarray:
    """Send mode amplitudes through the device: out_m' = sum_m in_m U[m, m']."""
    vector = np.asarray(amplitudes, dtype=complex)
    if vector.shape != (matrix.ports,):
        raise ValueError(
            f"input amplitudes must be a length-{matrix.ports} vector, "
            f"got shape {vector.shape}"
        )
    return vector @ matrix.entries
