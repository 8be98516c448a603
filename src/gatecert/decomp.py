"""Pauli expansion of the target-state family attached to an N-qubit gate.

A gate U determines the vectors ``delta_l = U^dag |phi_l>`` over the GHZ-like
basis.  Each rank-one projector ``|delta_l><delta_l|`` expands in the
tensor-Pauli basis with real coefficients

    f[l, i] = Tr[ (S_{i_1} x ... x S_{i_N}) |delta_l><delta_l| ] / 2^N,

where the single-site legend is 0=Z, 1=X, 2=Y, 3=identity.  The coefficients
of a normalized vector satisfy sum_i f^2 = 2^(-N).  ``f_coeffs`` computes a
state's whole tensor in one contraction; stacked over l, the tensors are
the weights the check matrix of :mod:`gatecert.certify` puts on the
tomographic (f-sum) rows, contracted with each party's setting matrix.
"""

from __future__ import annotations

import numpy as np

from .primitives import ghz_bits, ghz_state, pauli
from .tensor import Operator, StateVector

IMAG_TOL = 1e-12


def delta_set(u: Operator) -> list[StateVector]:
    """The vectors U^dag |phi_l| for l = 0 .. 2^N - 1, in index order."""
    n = u.n_sites
    if u.dims != (2,) * n:
        raise ValueError(f"gate must act on qubits, got site dims {u.dims}")
    udag = u.entries.conj().T
    return [StateVector(udag @ ghz_state(ghz_bits(l, n)).amplitudes, u.dims) for l in range(2**n)]


def f_coeffs(delta: StateVector) -> np.ndarray:
    """Pauli coefficients of |delta><delta|, shape (4,)*N.

    One contraction per state: with ``rho[(a_1 b_1), ..., (a_N b_N)] =
    conj(delta[a]) delta[b]``, every site's pair axis is contracted with
    ``q[i, (a b)] = S_i[a, b]``, then divided by 2^N."""
    n = delta.n_sites
    if delta.dims != (2,) * n:
        raise ValueError(f"state must live on qubits, got site dims {delta.dims}")
    amps = delta.amplitudes
    q = np.stack([pauli(i).entries for i in range(4)]).reshape(4, 4)
    rho = np.outer(amps.conj(), amps).reshape((2,) * (2 * n))
    vals = rho.transpose([p for k in range(n) for p in (k, n + k)]).reshape((4,) * n)
    for k in range(n):
        vals = np.moveaxis(np.tensordot(q, vals, axes=([1], [k])), 0, k)
    vals = vals / 2**n
    bad = np.abs(vals.imag) > IMAG_TOL
    if bad.any():
        idx = tuple(int(v) for v in np.argwhere(bad)[0])
        raise ValueError(f"coefficient at {idx} has imaginary part {vals.imag[idx]:.3e}")
    out = np.ascontiguousarray(vals.real)
    out.setflags(write=False)
    return out
