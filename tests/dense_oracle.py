"""Dense Born kernel, kept as a test oracle for ``gatecert.network.born_table``.

Every probability is the overlap ``<E_l psi| E_a E_r psi>`` of full-size
vectors: the repeater and party projectors are applied to the whole state
once per setting x, and the L-layer bras are contracted against that block.
This is the kernel the package shipped before it moved to square-root
factors; it is slow (seconds for di n=3) but shares no code with the
factored kernel beyond state assembly and ``apply_raw``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from gatecert.network import DI, PERP, ProbabilityTable, Realization, _state_with_eve, validate_realization
from gatecert.tensor import apply_raw


def _apply_batch(block: np.ndarray, dims, mats: np.ndarray, sites) -> np.ndarray:
    """Stack of k square operators on every row; new outcome digit most significant."""
    dims = tuple(dims)
    sites = list(sites)
    rows = block.shape[0]
    t = block.reshape((rows,) + dims)
    t = np.moveaxis(t, [s + 1 for s in sites], range(1, 1 + len(sites)))
    d = int(np.prod([dims[s] for s in sites]))
    rest = t.shape[1 + len(sites):]
    t = t.reshape(rows, d, -1)
    out = np.einsum("kde,bef->kbdf", mats.reshape(len(mats), d, d), t)
    out = out.reshape((len(mats) * rows,) + tuple(dims[s] for s in sites) + rest)
    out = np.moveaxis(out, range(1, 1 + len(sites)), [s + 1 for s in sites])
    return out.reshape(len(mats) * rows, -1)


def _binary_elements(obs) -> np.ndarray:
    eye = np.eye(obs.dim)
    return np.stack([(eye + obs.entries) / 2, (eye - obs.entries) / 2])


def dense_born_table(real: Realization) -> ProbabilityTable:
    validate_realization(real)
    lay = real.layout()
    dims = lay.dims
    n = real.n
    scen = real.scenario()
    a_stacks = [[_binary_elements(real.a_obs[i - 1][x]) for x in range(3)] for i in range(1, n + 1)]
    entries: dict = {}
    for e in (0, 1):
        base = _state_with_eve(real, e)
        joint_bras = np.stack([apply_raw(base, dims, m.entries, lay.l_sites()) for m in real.l_meas])
        if real.scheme == DI:
            rep_stacks = [np.stack([el.entries for el in real.repeaters[i - 1]]) for i in range(1, n + 1)]
            box_bras: dict[tuple, np.ndarray] = {}
            for y in product(range(2), repeat=n):
                vecs = [base]
                for i in range(1, n + 1):
                    els = _binary_elements(real.b_obs[i - 1][y[i - 1]])
                    vecs = [apply_raw(v, dims, els[bit], [lay.l_site(i)]) for v in vecs for bit in (0, 1)]
                box_bras[y] = np.stack(vecs)
        for x in scen.x_settings():
            block = base[None, :]
            if real.scheme == DI:
                for i in range(n, 0, -1):
                    block = _apply_batch(block, dims, rep_stacks[i - 1], [lay.r1_site(i), lay.r2_site(i)])
            for i in range(n, 0, -1):
                block = _apply_batch(block, dims, a_stacks[i - 1][x[i - 1]], [lay.a_site(i)])
            if real.scheme == DI:
                for y in scen.y_settings():
                    bras = joint_bras if y == PERP else box_bras[y]
                    entries[(x, e, y)] = _finish(block, bras, scen)
            else:
                entries[(x, e)] = _finish(block, joint_bras, scen)
    return ProbabilityTable(real.scheme, n, entries)


def _finish(block: np.ndarray, bras: np.ndarray, scen) -> np.ndarray:
    raw = block @ bras.conj().T  # (branches, 2^N)
    assert float(np.max(np.abs(raw.imag))) <= 1e-12
    return raw.real.reshape(scen.outcome_shape())
