import cmath
import math
import re

import numpy as np
import pytest

from ghzport.angles import root_of_unity
from ghzport.multiport import (
    MultiportMatrix,
    bell_multiport,
    transmit,
    unit_roots,
    verify_unitarity,
)


def test_two_port_matrix():
    matrix = bell_multiport(2)
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(matrix.entries - expected)) < 1e-15


def test_tritter_corner_entry():
    # 1-based entry (3,3) carries exponent (3-1)(3-1) = 4 = 1 mod 3
    alpha = cmath.exp(2j * math.pi / 3)
    entry = bell_multiport(3).entries[2, 2]
    assert abs(entry - alpha / math.sqrt(3)) < 1e-15


def test_four_port_entry():
    # 1-based entry (2,4): gamma_4^3 = -i
    entry = bell_multiport(4).entries[1, 3]
    assert abs(entry - (-0.5j)) < 1e-15


@pytest.mark.parametrize("ports", [1, 0, 65, -3])
def test_port_range_guard(ports):
    with pytest.raises(ValueError):
        bell_multiport(ports)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (9,)])
def test_matrix_of_another_shape_is_rejected(shape):
    with pytest.raises(ValueError, match=f"^entries must be 3x3, got {re.escape(str(shape))}$"):
        MultiportMatrix(3, np.zeros(shape, dtype=complex))


def test_unitarity_holds_for_construction():
    assert verify_unitarity(bell_multiport(3), tol=1e-12)
    assert verify_unitarity(bell_multiport(16), tol=1e-12)


def test_unitarity_detects_perturbation():
    matrix = bell_multiport(3)
    entries = matrix.entries.copy()
    entries[0, 0] += 1e-6
    assert not verify_unitarity(MultiportMatrix(3, entries), tol=1e-12)


def test_transmit_single_port_feed():
    out = transmit(bell_multiport(2), [1.0, 0.0])
    assert np.max(np.abs(out - np.array([1, 1]) / math.sqrt(2))) < 1e-15


def test_transmit_uniform_feed_focuses():
    # oracle: output_m' = (1/3) sum_m gamma_3^(m*m'), zero unless m' = 0
    expected = np.array(
        [sum(cmath.exp(2j * math.pi * m * mp / 3) for m in range(3)) / 3
         for mp in range(3)]
    )
    out = transmit(bell_multiport(3), np.ones(3) / math.sqrt(3))
    assert np.max(np.abs(out - expected)) < 1e-15
    assert np.max(np.abs(out - np.array([1.0, 0.0, 0.0]))) < 1e-15


def test_transmit_zero_vector():
    out = transmit(bell_multiport(5), np.zeros(5))
    assert np.max(np.abs(out)) == 0.0


def test_transmit_length_mismatch():
    with pytest.raises(ValueError):
        transmit(bell_multiport(3), [1.0, 0.0])


def test_norm_preservation_random_inputs():
    rng = np.random.default_rng(42)
    for ports in (2, 3, 5, 8, 16):
        matrix = bell_multiport(ports)
        for _ in range(20):
            vec = rng.normal(size=ports) + 1j * rng.normal(size=ports)
            out = transmit(matrix, vec)
            assert abs(np.vdot(out, out).real - np.vdot(vec, vec).real) < 1e-12


def test_column_orthogonality():
    for ports in range(2, 17):
        entries = bell_multiport(ports).entries
        gram = entries.conj().T @ entries
        off_diagonal = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diagonal)) < 1e-12


def test_even_splitting():
    for ports in range(2, 17):
        matrix = bell_multiport(ports)
        for port in range(ports):
            feed = np.zeros(ports, dtype=complex)
            feed[port] = 1.0
            out = transmit(matrix, feed)
            assert np.max(np.abs(np.abs(out) ** 2 - 1.0 / ports)) < 1e-12


@pytest.mark.parametrize("modulus", [1, 2, 3, 5, 7, 9, 10, 16, 64, 1000, 1009, 4096, 4099,
                                     20000, 65537, 100003])
def test_unit_roots_are_root_of_unity_bit_for_bit(modulus):
    expected = np.array([root_of_unity(j, modulus) for j in range(modulus)])
    roots = unit_roots(modulus)
    assert roots.dtype == expected.dtype
    assert roots.tobytes() == expected.tobytes()  # every bit, signed zeros included
