import re

import numpy as np
import pytest

from gatecert.primitives import (
    EXPANSION,
    SettingSymbol,
    gate,
    gate_from_record,
    ghz_basis,
    ghz_bits,
    ghz_state,
    haar_unitary,
    pauli,
    phi_plus,
    ref_b_observable,
    ref_observable,
)

SQ2 = np.sqrt(2.0)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_pauli_legend_and_algebra():
    # legend: 0=Z, 1=X, 2=Y, 3=identity
    assert np.allclose(pauli(0).entries, Z)
    assert np.allclose(pauli(1).entries, X)
    assert np.allclose(pauli(2).entries, Y)
    assert np.allclose(pauli(3).entries, I2)
    assert np.allclose(X @ Y, 1j * Z)
    for i in range(3):
        p = pauli(i).entries
        assert np.allclose(p @ p, I2)
        assert np.isclose(np.trace(p), 0.0)


def test_ghz_bits_int_roundtrip():
    """``ghz_state(ghz_bits(l, n))`` carries +1/sqrt2 at index l: the bits
    read back big-endian to the integer they came from."""
    for n in (2, 3):
        for l in range(2**n):
            bits = ghz_bits(l, n)
            assert len(bits) == n
            amps = ghz_state(bits).amplitudes
            assert np.isclose(amps[l], 1 / SQ2) and np.isclose(abs(amps[l ^ (2**n - 1)]), 1 / SQ2)
    assert ghz_bits(5, 3) == (1, 0, 1)


@pytest.mark.parametrize("bits", [(0, 2), (1, -1), (3,)])
def test_ghz_state_rejects_bits_outside_zero_one(bits):
    with pytest.raises(ValueError, match=f"GHZ bits must be 0/1, got {re.escape(str(bits))}"):
        ghz_state(bits)


def test_ghz_states_two_qubits_explicit():
    # amplitude +1 sits at the index of the bits themselves; the sign
    # (-1)^(first bit) rides on the complementary branch
    s2 = 1 / np.sqrt(2)
    want = {
        (0, 0): [s2, 0, 0, s2],
        (0, 1): [0, s2, s2, 0],
        (1, 0): [0, -s2, s2, 0],
        (1, 1): [-s2, 0, 0, s2],
    }
    for bits, vec in want.items():
        assert np.allclose(ghz_state(bits).amplitudes, vec)


def test_ghz_sign_rides_on_first_bit():
    """The relative sign between the two branches is (-1)^(first bit)."""
    v = ghz_state((1, 0, 1)).amplitudes
    idx = int("101", 2)
    flip = int("010", 2)
    assert np.isclose(v[idx], 1 / np.sqrt(2))
    assert np.isclose(v[flip], -1 / np.sqrt(2))
    assert np.isclose(np.sum(np.abs(v) > 1e-12), 2)


def test_ghz_basis_is_built_once_and_read_only():
    basis = ghz_basis(3)
    assert ghz_basis(3) is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0


def test_ghz_basis_is_orthonormal():
    for n in (2, 3):
        b = ghz_basis(n)
        assert b.shape == (2**n, 2**n)
        assert np.allclose(b.conj().T @ b, np.eye(2**n), atol=1e-14)
        # column l is the state with bits ghz_bits(l, n)
        for l in range(2**n):
            assert np.allclose(b[:, l], ghz_state(ghz_bits(l, n)).amplitudes)


def test_phi_plus_is_ghz_00():
    assert np.allclose(phi_plus().amplitudes, ghz_state((0, 0)).amplitudes)


def test_ref_observables_party1():
    assert np.allclose(ref_observable(1, 0).entries, (X + Z) / SQ2)
    assert np.allclose(ref_observable(1, 1).entries, (X - Z) / SQ2)
    assert np.allclose(ref_observable(1, 2).entries, Y)
    assert np.allclose(ref_observable(1, 2, branch=-1).entries, -Y)


def test_ref_observables_other_parties():
    for party in (2, 3):
        assert np.allclose(ref_observable(party, 0).entries, Z)
        assert np.allclose(ref_observable(party, 1).entries, X)
        assert np.allclose(ref_observable(party, 2).entries, Y)


def combine(observable, index, sym):
    """A setting symbol's operator from the base observables, via EXPANSION."""
    return sum(c * observable(index, k).entries for c, k in EXPANSION[sym])


def test_tilde_combinations_are_z_and_x():
    assert np.allclose(combine(ref_observable, 1, SettingSymbol.T0), Z)
    assert np.allclose(combine(ref_observable, 1, SettingSymbol.T1), X)
    assert np.allclose(combine(ref_observable, 1, SettingSymbol.T2), Y)
    with pytest.raises(ValueError):
        ref_observable(1, SettingSymbol.T0)


def test_expansion_covers_every_measured_symbol():
    assert set(EXPANSION) == set(SettingSymbol) - {SettingSymbol.ID}
    for sym in (SettingSymbol.S0, SettingSymbol.S1, SettingSymbol.S2):
        assert EXPANSION[sym] == ((1.0, int(sym.value[1])),)
    assert EXPANSION[SettingSymbol.T2] == EXPANSION[SettingSymbol.S2]


def test_every_reference_observable_is_an_involution():
    for party in (1, 2, 3):
        for setting in (0, 1, 2):
            for branch in (+1, -1):
                m = ref_observable(party, setting, branch).entries
                assert np.allclose(m, m.conj().T)
                assert np.allclose(m @ m, I2)


def test_box_observables():
    assert np.allclose(ref_b_observable(1, 0).entries, Z)
    assert np.allclose(ref_b_observable(1, 1).entries, X)
    assert np.allclose(ref_b_observable(2, 0).entries, (X + Z) / SQ2)
    assert np.allclose(ref_b_observable(2, 1).entries, (X - Z) / SQ2)
    assert np.allclose(combine(ref_b_observable, 2, SettingSymbol.T0), Z)
    assert np.allclose(combine(ref_b_observable, 2, SettingSymbol.T1), X)
    with pytest.raises(ValueError):
        ref_b_observable(2, 2)
    with pytest.raises(ValueError):
        ref_b_observable(2, SettingSymbol.T0)


def test_haar_unitary_deterministic_and_unitary():
    u1 = haar_unitary(4, 12)
    u2 = haar_unitary(4, 12)
    u3 = haar_unitary(4, 13)
    assert np.array_equal(u1, u2)
    assert not np.allclose(u1, u3)
    assert np.allclose(u1.conj().T @ u1, np.eye(4), atol=1e-12)


def test_haar_unitary_accepts_generator():
    rng = np.random.default_rng(12)
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    assert not np.allclose(a, b)


def test_named_gates():
    assert np.allclose(gate("identity", 2).entries, np.eye(4))
    assert np.allclose(gate("cz", 2).entries, np.diag([1, 1, 1, -1]))
    cnot = gate("cnot", 2).entries
    assert np.allclose(cnot @ cnot, np.eye(4))
    swap = gate("swap", 2).entries
    v = np.kron([1, 2], [3, 4]).astype(complex)
    assert np.allclose(swap @ v, np.kron([3, 4], [1, 2]))
    tof = gate("toffoli", 3).entries
    assert np.allclose(tof, np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]])


def test_gate_errors():
    with pytest.raises(ValueError):
        gate("cnot", 3)
    with pytest.raises(ValueError):
        gate("random", 2)  # no seed
    with pytest.raises(ValueError):
        gate(np.eye(3), 2)
    with pytest.raises(ValueError):
        gate(np.diag([1.0, 2.0, 1.0, 1.0]), 2)  # not unitary
    with pytest.raises(ValueError):
        gate("no_such_gate", 2)


def test_gate_from_record_variants():
    by_name = gate_from_record({"name": "cz"}, 2)
    assert np.allclose(by_name.entries, np.diag([1, 1, 1, -1]))
    h = [[[1 / SQ2, 0.0], [1 / SQ2, 0.0]], [[1 / SQ2, 0.0], [-1 / SQ2, 0.0]]]
    by_matrix = gate_from_record({"matrix": h}, 1)
    assert np.allclose(by_matrix.entries, (X + Z) / SQ2)
    by_seed = gate_from_record({"random": True, "seed": 3}, 2)
    assert np.allclose(by_seed.entries, haar_unitary(4, 3))
    with pytest.raises(ValueError):
        gate_from_record({"matrix": [["oops"]]}, 1)
    with pytest.raises(ValueError):
        gate_from_record({}, 2)
