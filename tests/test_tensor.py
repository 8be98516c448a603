import tracemalloc

import numpy as np
import pytest
from dense_oracle import apply_raw

from gatecert import tensor
from gatecert.tensor import (
    Operator,
    StateVector,
    apply_raw_batch,
    polar_factor,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def rand_state(dims, seed):
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    v = rng.normal(size=total) + 1j * rng.normal(size=total)
    return StateVector(v / np.linalg.norm(v), dims)


def test_state_vector_basics():
    v = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    assert v.n_sites == 2
    assert v.dim == 4
    assert np.isclose(v.norm(), 1.0)
    w = StateVector(np.array([1.0, 1.0]), (2,))
    assert np.isclose(w.norm(), np.sqrt(2.0))
    with pytest.raises(ValueError):
        StateVector(np.zeros(4), (2, 3))


def test_operator_flags():
    h = Operator((X + Z) / np.sqrt(2), (2,))
    assert h.is_hermitian()
    assert h.is_unitary()
    assert not Operator(np.array([[1, 0], [0, 0]], dtype=complex), (2,)).is_unitary()
    assert not Operator(np.array([[0, 1], [0, 0]], dtype=complex), (2,)).is_hermitian()


def test_entries_are_read_only():
    op = Operator(np.eye(2), (2,))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_basis_ordering_site0_most_significant():
    # |1>|0> must sit at index 2 of a two-qubit vector
    one, zero = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    v = StateVector(np.kron(one, zero), (2, 2))
    assert np.argmax(np.abs(v.amplitudes)) == 2
    flipped = apply_raw_batch(v.amplitudes[None, :], v.dims, X[None], [0])  # X on site 0 flips the leading digit
    assert np.argmax(np.abs(flipped[0])) == 0


def test_apply_raw_single_site_vs_dense():
    v = rand_state((2, 2, 2), seed=1)
    got = apply_raw(v.amplitudes, v.dims, Y, [1])
    dense = np.kron(np.kron(np.eye(2), Y), np.eye(2))
    assert np.allclose(got, dense @ v.amplitudes)


def test_apply_raw_two_sites_ordering():
    """A matrix on sites (2, 0) must act with site 2 as its first leg."""
    v = rand_state((2, 2, 2), seed=2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    got = apply_raw(v.amplitudes, v.dims, cnot, [2, 0])
    # dense reference: permute the sites to (2, 0, 1), apply cnot x eye, permute back
    perm = v.amplitudes.reshape(2, 2, 2).transpose(2, 0, 1).reshape(-1)
    dense = np.kron(cnot, np.eye(2)) @ perm
    back = dense.reshape(2, 2, 2).transpose(1, 2, 0).reshape(-1)
    assert np.allclose(got, back)


def test_apply_raw_batch_matches_loop():
    """Row k*rows + b of the output is operator k applied to row b."""
    rng = np.random.default_rng(9)
    v = rand_state((2, 2), seed=4)
    block = np.stack([v.amplitudes, np.roll(v.amplitudes, 1)])
    mats = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    out = apply_raw_batch(block, (2, 2), mats, [1])
    assert out.shape == (6, 4)
    for k in range(3):
        for b in range(2):
            assert np.allclose(out[k * 2 + b], apply_raw(block[b], (2, 2), mats[k], [1]))


def test_polar_unitary_recovers_rotation():
    rng = np.random.default_rng(21)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    w = np.linalg.eigh(h)[1]  # unitary
    stretched = w @ np.diag([1.0, 2.0, 0.5, 3.0])
    u = polar_factor(stretched @ w.conj().T)
    assert Operator(u, (4,)).is_unitary()
    # polar factor of (w d w^dag) with positive d is the identity
    assert np.allclose(u, np.eye(4), atol=1e-10)
    v = polar_factor(stretched)
    assert np.allclose(v, w, atol=1e-10)


def test_polar_unitary_fills_null_directions():
    # Hermitian input with a null eigendirection still yields a full unitary
    u = polar_factor(np.diag([1.0, 0.0, -2.0]).astype(complex))
    assert np.allclose(u, np.diag([1.0, 1.0, -1.0]))


def test_polar_factor_of_a_stack_is_per_matrix_bit_for_bit():
    """A stack of Hermitian matrices, the null-direction case among them,
    and a stack of general matrices each give every matrix's own factor;
    an empty stack gives an empty one."""
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    hermitian = np.concatenate([(g + np.swapaxes(g, -1, -2).conj()) / 2, [np.diag([1.0, 0.0, -2.0]).astype(complex)]])
    for stack in (hermitian, g, hermitian.reshape(5, 1, 3, 3)):
        got = polar_factor(stack)
        assert got.shape == stack.shape
        for index in np.ndindex(stack.shape[:-2]):
            assert got[index].tobytes() == polar_factor(stack[index]).tobytes()
    assert np.allclose(polar_factor(hermitian)[-1], np.diag([1.0, 1.0, -1.0]))
    assert polar_factor(np.zeros((0, 2, 2), dtype=complex)).shape == (0, 2, 2)


def test_polar_factor_resolves_each_matrix_of_a_mixed_stack_alone():
    """A stack mixing Hermitian and general matrices sends each through the
    decomposition it would take alone: the null direction of a Hermitian
    matrix still goes to +1."""
    rng = np.random.default_rng(6)
    g = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    null = np.diag([1.0, 0.0, -2.0]).astype(complex)
    stack = np.stack([g[0], (g[1] + g[1].conj().T) / 2, null, g[2]])
    got = polar_factor(stack)
    for k in range(4):
        assert got[k].tobytes() == polar_factor(stack[k]).tobytes()
    assert np.allclose(got[2], np.diag([1.0, 1.0, -1.0]))


def test_dims_must_multiply_out():
    with pytest.raises(ValueError):
        Operator(np.eye(6), (2, 2))
    with pytest.raises(ValueError):
        StateVector(np.zeros(5), (2, 2))


def test_apply_raw_batch_refuses_an_oversized_output_before_allocating(monkeypatch):
    """An output of more than ``MAX_AMPLITUDES`` entries raises ValueError
    naming its size before the product is formed, so the traced peak stays
    far below the refused array; an output at the cap is built."""
    monkeypatch.setattr(tensor, "MAX_AMPLITUDES", 2**12)
    block, mats = np.ones((1, 2**10), dtype=complex), np.ones((2**8, 2, 2), dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"a layer's output would hold 262144 amplitudes .*MAX_AMPLITUDES = 4096$"):
            apply_raw_batch(block, (2,) * 10, mats, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 262144 * 16 // 16
    assert apply_raw_batch(block, (2,) * 10, mats[:4], [0]).shape == (4, 2**10)
