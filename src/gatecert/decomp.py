"""Pauli expansion of the target-state family attached to an N-qubit gate.

A gate U determines the vectors ``delta_l = U^dag |phi_l>`` over the GHZ-like
basis.  Each rank-one projector ``|delta_l><delta_l|`` expands in the
tensor-Pauli basis with real coefficients

    f[l, i] = Tr[ (S_{i_1} x ... x S_{i_N}) |delta_l><delta_l| ] / 2^N,

where the single-site legend is 0=Z, 1=X, 2=Y, 3=identity.  The coefficients
of a normalized vector satisfy sum_i f^2 = 2^(-N).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .primitives import ghz_bits, ghz_state, pauli
from .tensor import Operator, StateVector, apply_raw

IMAG_TOL = 1e-12


def delta_set(u: Operator) -> list[StateVector]:
    """The vectors U^dag |phi_l| for l = 0 .. 2^N - 1, in index order."""
    n = u.n_sites
    if u.dims != (2,) * n:
        raise ValueError(f"gate must act on qubits, got site dims {u.dims}")
    udag = u.entries.conj().T
    return [StateVector(udag @ ghz_state(ghz_bits(l, n)).amplitudes, u.dims) for l in range(2**n)]


def f_coeffs(delta: StateVector) -> np.ndarray:
    """Pauli coefficients of |delta><delta|, shape (4,)*N."""
    n = delta.n_sites
    if delta.dims != (2,) * n:
        raise ValueError(f"state must live on qubits, got site dims {delta.dims}")
    amps = delta.amplitudes
    out = np.zeros((4,) * n)
    singles = [pauli(i).entries for i in range(4)]
    for idx in product(range(4), repeat=n):
        vec = amps
        for site, i in enumerate(idx):
            if i != 3:
                vec = apply_raw(vec, delta.dims, singles[i], [site])
        val = np.vdot(amps, vec) / 2**n
        if abs(val.imag) > IMAG_TOL:
            raise ValueError(f"coefficient at {idx} has imaginary part {val.imag:.3e}")
        out[idx] = val.real
    out.setflags(write=False)
    return out
