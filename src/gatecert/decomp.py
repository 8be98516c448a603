"""Pauli expansion of the target-state family attached to an N-qubit gate.

A gate U determines the vectors ``delta_l = U^dag |phi_l>`` over the GHZ-like
basis.  Each rank-one projector ``|delta_l><delta_l|`` expands in the
tensor-Pauli basis with real coefficients

    f[l, i] = Tr[ (S_{i_1} x ... x S_{i_N}) |delta_l><delta_l| ] / 2^N,

where the single-site legend is 0=Z, 1=X, 2=Y, 3=identity.  The coefficients
of a normalized vector satisfy sum_i f^2 = 2^(-N).  ``f_tensor`` computes
the whole f tensor of a gate, all 2^N states at once, as one chain of
contractions over a leading l axis; ``f_tensor(u)[l]`` holds the
coefficients of state l.  The deltas stay one matrix-vector product each, with the
columns of ``primitives.ghz_basis``, as one product with the whole basis
would round differently.  The f tensor is the weights the check matrix of
:mod:`gatecert.certify` puts on the tomographic (f-sum) rows, contracted
with each party's setting matrix.
"""

from __future__ import annotations

import numpy as np

from .primitives import ghz_basis, pauli
from .tensor import Operator, StateVector

IMAG_TOL = 1e-12
# q[i, (a b)] = S_i[a, b]: the Pauli matrices in legend order, each flattened
_PAULI_Q = np.stack([pauli(i).entries for i in range(4)]).reshape(4, 4)


def _deltas(u: Operator) -> list[np.ndarray]:
    """The amplitudes of U^dag |phi_l>, one matrix-vector product per l."""
    n = u.n_sites
    if u.dims != (2,) * n:
        raise ValueError(f"gate must act on qubits, got site dims {u.dims}")
    udag = u.entries.conj().T
    return [udag @ phi for phi in ghz_basis(n).T]


def delta_set(u: Operator) -> list[StateVector]:
    """The vectors U^dag |phi_l| for l = 0 .. 2^N - 1, in index order."""
    return [StateVector(delta, u.dims) for delta in _deltas(u)]


def f_tensor(u: Operator) -> np.ndarray:
    """``f[l, i_1..i_N]`` of every state of ``delta_set(u)``, shape
    (2^N,) + (4,)*N, in one stacked contraction."""
    return _pauli_coefficients(np.stack(_deltas(u)), u.n_sites)


def _pauli_coefficients(amps: np.ndarray, n: int) -> np.ndarray:
    """The read-only real coefficients of each row of ``amps`` (k, 2^N).

    With ``rho[l, (a_1 b_1), ..., (a_N b_N)] = conj(amps[l, a]) amps[l, b]``,
    every site's pair axis is contracted with ``_PAULI_Q``, then divided by
    2^N.  An imaginary part above ``IMAG_TOL`` raises ValueError naming the
    first such coefficient, its state index first."""
    rho = (amps.conj()[:, :, None] * amps[:, None, :]).reshape((len(amps),) + (2,) * (2 * n))
    vals = rho.transpose([0] + [1 + p for k in range(n) for p in (k, n + k)]).reshape((len(amps),) + (4,) * n)
    for k in range(1, n + 1):
        vals = np.moveaxis(np.tensordot(_PAULI_Q, vals, axes=([1], [k])), 0, k)
    vals = vals / 2**n
    bad = np.abs(vals.imag) > IMAG_TOL
    if bad.any():
        idx = tuple(int(v) for v in np.argwhere(bad)[0])
        raise ValueError(f"coefficient at {idx} has imaginary part {vals.imag[idx]:.3e}")
    out = np.ascontiguousarray(vals.real)
    out.setflags(write=False)
    return out
