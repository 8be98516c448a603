"""Operator-side oracles for the table path of ``gatecert``.

``dense_born_table`` is the dense Born kernel, kept as the oracle of
``gatecert.network.born_table``.  Every probability is the overlap
``<E_l psi| E_a E_r psi>`` of full-size vectors: the repeater and party
projectors are applied to the whole state once per setting x, and the
L-layer bras are contracted against that block.
This is the kernel the package shipped before it moved to square-root
factors; it is slow (seconds for di n=3) but shares no code with the
factored kernel beyond state assembly and ``apply_raw``.

``realization_value`` evaluates a Bell functional as <psi|O E|psi> on the
network state, with E the conditioning element and O the product of the
parties' observables, and ``steered_state`` is the normalized state left
on the unmeasured sites by a conditioning.  Both read the realization's
operators directly and write out the rotated combinations themselves, so
they share nothing with ``expectation`` or ``primitives.EXPANSION``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from gatecert.network import DI, PERP, ProbabilityTable, Realization, _state_with_eve, validate_realization
from gatecert.primitives import SettingSymbol
from gatecert.tensor import apply_raw

S = SettingSymbol
# setting symbol -> ((weight, base setting), ...), with T0 = (S0 - S1)/sqrt2
# and T1 = (S0 + S1)/sqrt2
_WEIGHTS = {
    S.S0: ((1.0, 0),), S.S1: ((1.0, 1),), S.S2: ((1.0, 2),), S.T2: ((1.0, 2),),
    S.T0: ((2**-0.5, 0), (-(2**-0.5), 1)), S.T1: ((2**-0.5, 0), (2**-0.5, 1)),
}


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


def _conditioned(real: Realization, e: int, r, l):
    """The state psi, E psi for the conditioning element E, the site
    dimensions and the sites E measured."""
    lay = real.layout()
    psi = _state_with_eve(real, e)
    chi, measured = psi, []
    for subnet, k in sorted((r or {}).items()):
        sites = [lay.r1_site(subnet), lay.r2_site(subnet)]
        chi = apply_raw(chi, lay.dims, real.repeaters[subnet - 1][int(k)].entries, sites)
        measured += sites
    if l is not None:
        chi = apply_raw(chi, lay.dims, real.l_meas[int(l)].entries, lay.l_sites())
        measured += lay.l_sites()
    return psi, chi, lay.dims, measured


def realization_value(functional, real: Realization, *, e=0, l=None, r=None, renormalize=True) -> float:
    """Bell functional value from the realization's operators."""
    validate_realization(real)
    lay = real.layout()
    psi, cond, dims, _ = _conditioned(real, e, r, l)
    total = 0.0
    for term in functional.terms:
        vec = cond
        for label, sym in sorted(term.assignment.items()):
            if sym is S.ID:
                continue
            num = int(label[1:])
            site, bank = (lay.a_site(num), real.a_obs) if label[0] == "A" else (lay.l_site(num), real.b_obs)
            op = sum(w * bank[num - 1][k].entries for w, k in _WEIGHTS[sym])
            vec = apply_raw(vec, dims, op, [site])
        total += term.coeff * float(np.real(np.vdot(psi, vec)))
    weight = float(np.real(np.vdot(psi, cond)))
    return total / weight if renormalize else total


def steered_state(real: Realization, *, e=0, r=None, l=None) -> np.ndarray:
    """Density matrix Tr_measured[E |psi><psi|] / p on the unmeasured sites, in site order."""
    validate_realization(real)
    psi, chi, dims, measured = _conditioned(real, e, r, l)
    keep = [s for s in range(len(dims)) if s not in measured]
    kdim = int(np.prod([dims[s] for s in keep]))
    chi_m = np.moveaxis(chi.reshape(dims), keep, range(len(keep))).reshape(kdim, -1)
    psi_m = np.moveaxis(psi.reshape(dims), keep, range(len(keep))).reshape(kdim, -1)
    return chi_m @ psi_m.conj().T / float(np.real(np.vdot(psi, chi)))
