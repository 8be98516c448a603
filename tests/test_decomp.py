"""Coefficient tensors of the per-outcome target projectors.

The oracle here is fully independent of the package internals: dense Pauli
words built with numpy.kron and explicit trace formulas.
"""

from itertools import product

import numpy as np
import pytest

from gatecert import decomp
from gatecert.decomp import delta_set, f_tensor
from gatecert.primitives import gate, ghz_bits, ghz_state
from gatecert.tensor import Operator

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
SINGLES = (Z, X, Y, np.eye(2, dtype=complex))


def dense_word(idx):
    out = np.array([[1.0 + 0j]])
    for i in idx:
        out = np.kron(out, SINGLES[i])
    return out


def oracle_coeffs(vec, n):
    rho = np.outer(vec, vec.conj())
    out = np.zeros((4,) * n)
    for idx in product(range(4), repeat=n):
        out[idx] = np.real(np.trace(dense_word(idx) @ rho)) / 2**n
    return out


def test_delta_set_is_adjoint_gate_on_basis():
    u = gate("cnot", 2)
    deltas = delta_set(u)
    assert len(deltas) == 4
    for l, d in enumerate(deltas):
        want = u.entries.conj().T @ ghz_state(ghz_bits(l, 2)).amplitudes
        assert np.allclose(d.amplitudes, want)
        assert np.isclose(d.norm(), 1.0)


def test_f_coeffs_against_trace_oracle_cz():
    u = gate("cz", 2)
    for d, got in zip(delta_set(u), f_tensor(u)):
        assert got.shape == (4, 4)
        assert np.allclose(got, oracle_coeffs(d.amplitudes, 2), atol=1e-13)


def test_f_coeffs_against_trace_oracle_random_gates():
    for seed in range(3):
        u = gate("random", 2, seed=seed)
        for d, got in zip(delta_set(u), f_tensor(u)):
            assert np.allclose(got, oracle_coeffs(d.amplitudes, 2), atol=1e-13)


def test_f_coeffs_three_qubits_spot_check():
    u = gate("toffoli", 3)
    d = delta_set(u)[5]
    got = f_tensor(u)[5]
    assert got.shape == (4, 4, 4)
    want = oracle_coeffs(d.amplitudes, 3)
    assert np.allclose(got, want, atol=1e-13)


def test_sum_of_squares_is_two_to_minus_n():
    """Purity of a rank-one projector in the normalized Pauli frame."""
    for n, spec, seed in ((2, "random", 4), (2, "swap", None), (3, "toffoli", None)):
        u = gate(spec, n, seed=seed)
        for coeffs in f_tensor(u):
            assert np.isclose(np.sum(coeffs**2), 2.0**-n, atol=1e-12)


def test_identity_gate_coefficients_explicit():
    # phi_00 = (|00> + |11>)/sqrt2: projector (II + XX - YY + ZZ)/4
    got = f_tensor(gate("identity", 2))[0]
    want = np.zeros((4, 4))
    want[3, 3] = 0.25
    want[1, 1] = 0.25
    want[2, 2] = -0.25
    want[0, 0] = 0.25
    assert np.allclose(got, want, atol=1e-14)


def test_reconstruct_roundtrip():
    """Summing the dense Pauli words with the coefficients gives back the projector."""
    u = gate("random", 2, seed=7)
    d = delta_set(u)[2]
    coeffs = f_tensor(u)[2]
    rho = sum(coeffs[idx] * dense_word(idx) for idx in product(range(4), repeat=2))
    assert np.allclose(rho, np.outer(d.amplitudes, d.amplitudes.conj()), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_f_tensor_is_the_stack_of_f_coeffs_bit_for_bit(n):
    """One stacked contraction over l gives the bits each state's
    coefficients have when it is contracted alone, as a stack of one."""
    for u in [gate("identity", n)] + [gate("random", n, seed=seed) for seed in range(6)]:
        got = f_tensor(u)
        want = np.stack([decomp._pauli_coefficients(d.amplitudes[None], n)[0] for d in delta_set(u)])
        assert got.shape == (2**n,) + (4,) * n
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_f_coeffs_requires_qubits():
    with pytest.raises(ValueError, match="qubits"):
        f_tensor(Operator(np.eye(3), (3,)))
    with pytest.raises(ValueError, match="qubits"):
        delta_set(Operator(np.eye(3), (3,)))


def test_complex_states_have_real_coefficients():
    u = gate("random", 2, seed=31)
    deltas = delta_set(u)
    assert all(np.abs(d.amplitudes.imag).max() > 0.1 for d in deltas)
    coeffs = f_tensor(u)
    assert coeffs.dtype == np.float64
    for d, got in zip(deltas, coeffs):
        assert np.allclose(got, oracle_coeffs(d.amplitudes, 2), atol=1e-13)
