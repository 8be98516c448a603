"""Operator-side oracles for the table path of ``gatecert``.

``dense_born_table`` is the dense Born kernel, kept as the oracle of
``gatecert.network.born_table``.  Every probability is the overlap
``<E_l psi| E_a E_r psi>`` of full-size vectors: the repeater and party
projectors are applied to the whole state once per setting x, and the
L-layer bras are contracted against that block.
This is the kernel the package shipped before it moved to square-root
factors; it is slow (seconds for di n=3) but shares no code with the
factored kernel: it assembles the joint state of every source with
``listed_assemble_state``.  ``apply_raw`` and
``_state_with_eve`` are the package's former single-operator applier and
Eve's layer, kept as the dense reference of ``tensor.apply_raw_batch``, so
that no oracle here runs the applier it checks.

``dumps_write_table`` is the table writer, kept as the oracle of
``gatecert.network.write_table``: the package's former body, which builds
each record as a dict and writes ``json.dumps(record, sort_keys=True)``,
formatting every float of every row on its own, in the order of the
former ``_sorted_keys``.

``realization_value`` evaluates a Bell functional as <psi|O E|psi> on the
network state, with E the conditioning element and O the product of the
parties' observables, and ``steered_state`` is the normalized state left
on the unmeasured sites by a conditioning.  Both read the realization's
operators directly and write out the rotated combinations themselves, so
they share nothing with ``expectation`` or ``primitives.EXPANSION``.

``loop_table_rows`` is the loop certifier, kept as the oracle of the check
matrix in ``gatecert.certify``: every table-level check row computed the way
the package did before the check matrix, one table pass per Pauli word and
per expanded setting.  Its helpers ``loop_signed_sum``,
``loop_expectation``, ``loop_evaluate`` and ``loop_f_coeffs`` are the
package's former ``ProbabilityTable.signed_sum``, ``expectation``,
``evaluate`` and one state's ``f_tensor`` row, with
``primitives.EXPANSION`` replaced by the weights written out below.

``termwise_functional_weights`` and ``termwise_correlator_weights`` are the
oracles of ``gatecert.network.row_weights``: the package's former
``bell.functional_weights``, which adds up its terms' correlator weights,
and ``network.correlator_weights``, which takes a product over each party's
spread settings, with ``_parse_assignment``, the label checks they (and
``loop_expectation``) run.  ``einsum_fsum_weights`` is the former body of
``certify._fsum_checks``, one einsum of the gate's f tensor with
``party_matrix`` written out operand by operand, the oracle of its
``network.contract``.

``kron_extract_rows`` is the lifted extractor, kept as the oracle of the
operator-level rows of ``gatecert.extract.Extraction``: the effective
measurement distances, the unitary certificate, the GHZ block deviation and
the fidelity computed the way the package did before it contracted the
grouped isometry W, by forming ``np.kron(projector, 1_dj)`` of size
(2^N dj)^2 and multiplying it by W on both sides, and by materialising every
GHZ block of W Vbar^dagger W^dagger.  It forms the support rule densely:
P = (x)_j P_j as one matrix, P X P around every compared operator, Vbar =
P V P and the junk floor from (x)_j K_{j,0} P_j K_{j,0}^dagger.  It reads
the frames, their site supports and the targets from the ``Extraction``,
and builds W itself with ``grouped_isometry``, the package's former chain
of ``np.kron`` calls, so it shares no W with the package; it forms each
effective box element V^dagger E_l V itself, one matrix at a time.

``listed_assemble_state`` is the package's former assembly of the joint
state of every source, and ``listed_dilate``, ``listed_conjugate`` and
``listed_depolarize_sources`` are the oracles of the adversaries in
``gatecert.adversary``: the package's former bodies, which write out per
scheme which site each source wing and each operator sits on instead of
reading ``SiteLayout.source_sites`` and ``Realization.map_operators``.  Their ``_embed_junk``, ``_embed_first_junk``
and ``_rotate_op`` are the former lifts onto junk.

``termwise_classical_bound`` and ``termwise_seesaw_max`` are the oracles of
``classical_bound`` and ``seesaw_max`` in ``gatecert.bell``: the package's
former bodies, which walk a functional term by term.  The classical bound
multiplies each term's symbol values per assignment, and the see-saw builds
its Bell operator (``termwise_bell_operator``) as a sum of Kronecker products
and each effective operator (``termwise_effective_operators``) by applying
the other parties' observables of one term at a time, instead of contracting
the functional's coefficient tensor.
"""

from __future__ import annotations

import io
import json
import re
from functools import reduce
from itertools import product
from typing import Any, Mapping, Sequence

import numpy as np

from gatecert.bell import (
    SEESAW_MAX_ITERS,
    SEESAW_SITE_DIM,
    SEESAW_STALL_TOL,
    BellFunctional,
    SeesawResult,
    functional_I,
    functional_K,
    k_sign_bits,
)
from gatecert.certify import F_ZERO, CheckRow
from gatecert.decomp import delta_set, f_tensor
from gatecert.extract import teleported_elements
from gatecert.network import (
    ALMOST_DI,
    DI,
    PERP,
    ZERO_WEIGHT_TOL,
    ProbabilityTable,
    Realization,
    ScenarioSpec,
    ZeroProbabilityEvent,
    event_label,
    party_matrix,
    validate_realization,
)
from gatecert.primitives import EXPANSION, SettingSymbol, ghz_basis, ghz_bits, haar_unitary, pauli
from gatecert.tensor import Operator, StateVector, apply_raw_batch, polar_factor

S = SettingSymbol
# setting symbol -> ((weight, base setting), ...), with T0 = (S0 - S1)/sqrt2
# and T1 = (S0 + S1)/sqrt2
_WEIGHTS = {
    S.S0: ((1.0, 0),), S.S1: ((1.0, 1),), S.S2: ((1.0, 2),), S.T2: ((1.0, 2),),
    S.T0: ((2**-0.5, 0), (-(2**-0.5), 1)), S.T1: ((2**-0.5, 0), (2**-0.5, 1)),
}


def apply_raw(vec: np.ndarray, dims: Sequence[int], mat: np.ndarray, sites: Sequence[int]) -> np.ndarray:
    """Apply ``mat`` to the listed sites (in the listed order) of a flat vector."""
    dims = tuple(dims)
    sites = list(sites)
    t = vec.reshape(dims)
    t = np.moveaxis(t, sites, range(len(sites)))
    d = int(np.prod([dims[s] for s in sites]))
    rest = t.shape[len(sites):]
    t = mat @ t.reshape(d, -1)
    t = t.reshape(tuple(dims[s] for s in sites) + rest)
    t = np.moveaxis(t, range(len(sites)), sites)
    return t.reshape(-1)


def _state_with_eve(real: Realization, e: int) -> np.ndarray:
    psi = listed_assemble_state(real)
    if e == 0:
        return psi.amplitudes
    lay = real.layout()
    return apply_raw(psi.amplitudes, psi.dims, real.eve.entries, lay.v_sites())


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


# --- the loop certifier ------------------------------------------------------


def loop_f_coeffs(delta) -> np.ndarray:
    """Pauli coefficients of |delta><delta|, one Pauli word at a time."""
    n = delta.n_sites
    amps = delta.amplitudes
    out = np.zeros((4,) * n)
    singles = [pauli(i).entries for i in range(4)]
    for idx in product(range(4), repeat=n):
        vec = amps
        for site, i in enumerate(idx):
            if i != 3:
                vec = apply_raw(vec, delta.dims, singles[i], [site])
        val = np.vdot(amps, vec) / 2**n
        assert abs(val.imag) <= 1e-12
        out[idx] = val.real
    return out


def loop_signed_sum(table, key, a_signs=(), b_signs=(), l=None, r=None) -> float:
    arr = table.array(key)
    n = table.n
    w = arr
    for party in a_signs:
        shape = [1] * arr.ndim
        shape[party - 1] = 2
        w = w * np.array([1.0, -1.0]).reshape(shape)
    if r:
        for subnet, k in r.items():
            sel = np.zeros(4)
            sel[int(k)] = 1.0
            shape = [1] * arr.ndim
            shape[n + subnet - 1] = 4
            w = w * sel.reshape(shape)
    lvec = np.ones(2**n)
    if l is not None:
        lvec = np.zeros(2**n)
        lvec[int(l)] = 1.0
    else:
        for subnet in b_signs:
            bits = np.array([ghz_bits(v, n)[subnet - 1] for v in range(2**n)])
            lvec = lvec * (-1.0) ** bits
    shape = [1] * arr.ndim
    shape[-1] = 2**n
    w = w * lvec.reshape(shape)
    return float(w.sum())


def loop_expectation(table, assignment, *, e, l=None, r=None, renormalize=True) -> float:
    a_syms, b_syms = _parse_assignment(assignment, table.n, table.scheme)
    combos: list[tuple[float, dict[int, int], dict[int, int]]] = [(1.0, {}, {})]
    for party, sym in sorted(a_syms.items()):
        if sym is SettingSymbol.ID:
            continue
        combos = [
            (c * w, {**xs, party: setting}, ys)
            for (c, xs, ys) in combos
            for (w, setting) in _WEIGHTS[sym]
        ]
    for subnet, sym in sorted(b_syms.items()):
        if sym is SettingSymbol.ID:
            continue
        combos = [
            (c * w, xs, {**ys, subnet: setting})
            for (c, xs, ys) in combos
            for (w, setting) in _WEIGHTS[sym]
        ]
    a_signed = [p for p, s in a_syms.items() if s is not SettingSymbol.ID]
    b_signed = [p for p, s in b_syms.items() if s is not SettingSymbol.ID]
    total = 0.0
    for coeff, xs, ys in combos:
        x = tuple(xs.get(i, 0) for i in range(1, table.n + 1))
        if table.scheme == ALMOST_DI:
            key: tuple = (x, e)
        else:
            if b_signed or ys:
                y: tuple | str = tuple(ys.get(i, 0) for i in range(1, table.n + 1))
            else:
                y = PERP
            key = (x, e, y)
        value = loop_signed_sum(table, key, a_signed, b_signed, l=l, r=r)
        if renormalize:
            weight = loop_signed_sum(table, key, (), (), l=l, r=r)
            if weight <= ZERO_WEIGHT_TOL:
                raise ZeroProbabilityEvent(event_label(table.n, l=l, r=r), weight)
            value /= weight
        total += coeff * value
    return total


def loop_evaluate(functional, table, *, e=0, l=None, r=None, renormalize=True) -> float:
    return sum(
        t.coeff * loop_expectation(table, t.assignment, e=e, l=l, r=r, renormalize=renormalize)
        for t in functional.terms
    )


_PARTY_RE = re.compile(r"^([AB])([0-9]+)$")


def _parse_assignment(assignment: Mapping[str, SettingSymbol], n: int, scheme: str):
    a_syms: dict[int, SettingSymbol] = {}
    b_syms: dict[int, SettingSymbol] = {}
    for label, sym in assignment.items():
        m = _PARTY_RE.match(label)
        if not m:
            raise ValueError(f"unknown party label {label!r}")
        kind, num = m.group(1), int(m.group(2))
        if not 1 <= num <= n:
            raise ValueError(f"party {label!r} out of range for n={n}")
        if not isinstance(sym, SettingSymbol):
            raise ValueError(f"setting for {label!r} must be a SettingSymbol")
        if kind == "A":
            if sym in (SettingSymbol.T0, SettingSymbol.T1) and num != 1:
                raise ValueError("rotated combinations are defined for party A1 only")
            a_syms[num] = sym
        else:
            if scheme != DI:
                raise ValueError("box parties exist only in the di scheme")
            if sym is SettingSymbol.S2 or sym is SettingSymbol.T2:
                raise ValueError("boxes have two settings; S2/T2 are not available")
            b_syms[num] = sym
    return a_syms, b_syms


def _outer(vecs) -> np.ndarray:
    return reduce(np.multiply.outer, vecs, np.array(1.0))


def _row_weight(scheme: str, n: int, a_vecs, b_vecs, *, l=None, r=None) -> np.ndarray:
    """Weight of a product correlator over the outcomes ``event_index``
    selects: the outer product of one vector per party over its outcome,
    ones on every free repeater axis, and, unless ``l`` is fixed, the outer
    product of one vector per box over its bit of ``l``."""
    vecs = list(a_vecs)
    if scheme == DI:
        vecs += [np.ones(4)] * (n - len(r or {}))
    if l is None:
        vecs.append(_outer(b_vecs).ravel())
    return _outer(vecs)


def termwise_correlator_weights(
    scheme: str,
    n: int,
    assignment: Mapping[str, SettingSymbol],
    *,
    e: int,
    l: int | None = None,
    r: Mapping[int, int] | None = None,
) -> dict[tuple, np.ndarray]:
    """Weight array of a product correlator on each settings row it reads,
    over the outcomes ``event_index(scheme, n, l=l, r=r)`` selects.

    ``assignment`` maps party labels ("A1".."AN", and "B1".."BN" for di)
    to setting symbols; omitted parties act as identity.  A row's weight is
    the outer product of the parties' rows of ``party_matrix``; rows are
    listed with the first party's setting varying slowest.
    """
    a_syms, b_syms = _parse_assignment(assignment, n, scheme)
    if l is not None and b_syms:
        raise ValueError("cannot combine box observables with a joint-outcome condition")
    ident = SettingSymbol.ID

    def spread(sym, settings):
        m = party_matrix((sym,))[0, :settings]
        return [(x, m[x]) for x in range(settings) if m[x].any()]

    scen = ScenarioSpec(scheme, n)
    parties = [spread(a_syms.get(i, ident), 3) for i in range(1, n + 1)]
    boxed = any(sym is not ident for sym in b_syms.values())
    # without box symbols every box reads the perp row with no sign
    boxes = [spread(b_syms.get(i, ident), 2) for i in range(1, n + 1)] if boxed else [[(None, np.ones(2))]] * n
    out: dict[tuple, np.ndarray] = {}
    for combo in product(*parties, *boxes):
        x = tuple(s for s, _ in combo[:n])
        key = scen.row(x, e, tuple(s for s, _ in combo[n:]) if boxed else PERP)
        out[key] = _row_weight(scheme, n, [v for _, v in combo[:n]], [v for _, v in combo[n:]], l=l, r=r)
    return out


def termwise_functional_weights(
    functional: BellFunctional,
    scheme: str,
    n: int,
    *,
    e: int,
    l: int | None = None,
    r: Mapping[int, int] | None = None,
) -> dict[tuple, np.ndarray]:
    """Weight array of a Bell functional on each settings row it reads: the
    coefficient-weighted sum of its terms' ``correlator_weights``, rows in
    the order the terms first read them."""
    out: dict[tuple, np.ndarray] = {}
    for term in functional.terms:
        for key, w in termwise_correlator_weights(scheme, n, term.assignment, e=e, l=l, r=r).items():
            out[key] = out[key] + term.coeff * w if key in out else term.coeff * w
    return out


def einsum_fsum_weights(u: Operator, n: int) -> np.ndarray:
    """``w[l, x_1..x_N, a_1..a_N]``: the f tensor of the gate contracted
    with each party's ``party_matrix`` in Pauli order.  The f tensor is
    ``decomp.f_tensor``'s, so that the weights can be compared bit for bit;
    ``loop_f_coeffs`` checks it, and rounds differently in the last bit."""
    f = f_tensor(u)
    f = np.where(np.abs(f) < F_ZERO, 0.0, f)
    operands: list = [f, list(range(n + 1))]
    # subscripts: l = 0, symbol i_k = 1 + k, setting x_k = 1 + n + k, outcome a_k = 1 + 2n + k
    for k in range(n):
        operands += [party_matrix(_A1_SYMBOLS if k == 0 else _AI_SYMBOLS), [1 + k, 1 + n + k, 1 + 2 * n + k]]
    return np.einsum(*operands, [0, *range(1 + n, 1 + 3 * n)], optimize=True)


def _bits_label(bits) -> str:
    return "".join(str(b) for b in bits)


_A1_SYMBOLS = (SettingSymbol.T0, SettingSymbol.T1, SettingSymbol.T2, SettingSymbol.ID)
_AI_SYMBOLS = (SettingSymbol.S0, SettingSymbol.S1, SettingSymbol.S2, SettingSymbol.ID)


def _f_weighted_joint(table, u, l, *, e, r=None) -> float:
    """Sum over Pauli words of f times the joint (unnormalized) correlator
    restricted to the given box outcome."""
    n = table.n
    coeffs = loop_f_coeffs(delta_set(u)[l])
    total = 0.0
    for idx in np.ndindex(coeffs.shape):
        c = float(coeffs[idx])
        if abs(c) < 1e-15:
            continue
        assignment = {"A1": _A1_SYMBOLS[idx[0]]}
        for i in range(2, n + 1):
            assignment[f"A{i}"] = _AI_SYMBOLS[idx[i - 1]]
        total += c * _joint(table, assignment, e=e, l=l, r=r)
    return total


def _joint(table, assignment, *, e, l, r=None):
    return loop_expectation(table, assignment, e=e, l=l, r=r, renormalize=False)


def _conditional_row(row_id: str, value, rhs: float, tol: float) -> CheckRow:
    """Row for a conditional value, computed by ``value()``; a conditioning
    event of probability zero gives a failing row that names the event."""
    try:
        return CheckRow(row_id, value(), rhs, tol)
    except ZeroProbabilityEvent as err:
        return CheckRow(row_id, 1.0, 0.0, 0.0, detail=f"{err.event} has probability {err.probability:.3g}")


def _rows_step1_almost(table, tol):
    n = table.n
    rows = []
    x0 = (0,) * n
    for l in range(2**n):
        bits = ghz_bits(l, n)
        joint = loop_evaluate(functional_I(bits), table, e=0, l=l, renormalize=False)
        rows.append(
            CheckRow(f"step1.joint[{_bits_label(bits)}]", joint, 3 * (n - 1) / 2**n, tol)
        )
        rate = loop_signed_sum(table, (x0, 0), l=l)
        rows.append(CheckRow(f"step1.rate[{_bits_label(bits)}]", rate, 1 / 2**n, tol))
    return rows


def _rows_step2_almost(table, u, tol):
    n = table.n
    rows = []
    for l in range(2**n):
        bits = ghz_bits(l, n)
        value = _f_weighted_joint(table, u, l, e=1)
        rows.append(CheckRow(f"step2.fsum[{_bits_label(bits)}]", value, 1 / 2**n, tol))
    return rows


def _rows_step1_di(table, tol):
    n = table.n
    rows = []
    x0 = (0,) * n
    for i in range(1, n + 1):
        for k in range(4):
            func = functional_K(i, k_sign_bits(k), n)
            rows.append(
                _conditional_row(
                    f"step1.k[{i};{k}]", lambda: loop_evaluate(func, table, e=0, r={i: k}, renormalize=True), 2.0, tol
                )
            )
            rate = loop_signed_sum(table, (x0, 0, PERP), r={i: k})
            rows.append(CheckRow(f"step1.rate[{i};{k}]", rate, 0.25, tol))
    return rows


def _rows_step2_di(table, tol):
    n = table.n
    rows = []
    x0 = (0,) * n
    r0 = {i: 0 for i in range(1, n + 1)}
    for l in range(2**n):
        bits = ghz_bits(l, n)
        joint = loop_evaluate(functional_I(bits), table, e=0, l=l, r=r0, renormalize=False)
        rows.append(
            CheckRow(
                f"step2.joint[{_bits_label(bits)}]",
                joint,
                3 * (n - 1) / (2**n * 4**n),
                tol,
            )
        )
        rate = loop_signed_sum(table, (x0, 0, PERP), l=l, r=r0)
        rows.append(CheckRow(f"step2.rate[{_bits_label(bits)}]", rate, 1 / (2**n * 4**n), tol))
    return rows


def _rows_step3_di(table, u, tol):
    n = table.n
    r0 = {i: 0 for i in range(1, n + 1)}
    rows = []
    for l in range(2**n):
        bits = ghz_bits(l, n)
        value = _f_weighted_joint(table, u, l, e=1, r=r0)
        rows.append(CheckRow(f"step3.fsum[{_bits_label(bits)}]", value, 1 / 2**(3 * n), tol))
    return rows


def _rows_branch(table, tol):
    n = table.n
    r0 = {i: 0 for i in range(1, n + 1)} if table.scheme == DI else None
    rows = []
    mixed = False
    for i in range(2, n + 1):
        assignment = {"A1": SettingSymbol.S2, f"A{i}": SettingSymbol.S2}
        for j in range(2, n + 1):
            if j != i:
                assignment[f"A{j}"] = SettingSymbol.S1
        row = _conditional_row(
            f"branch.pair[1,{i}]", lambda: -loop_expectation(table, assignment, e=0, l=0, r=r0, renormalize=True), 1.0, tol
        )
        rows.append(row)
        if row.lhs < 0:
            mixed = True
    return rows, ("mixed" if mixed else "undetermined")


def loop_table_rows(table, u, tol) -> tuple[list[CheckRow], str]:
    """Every table-level check row, sorted by id, and the table's branch."""
    rows = []
    if table.scheme == ALMOST_DI:
        rows += _rows_step1_almost(table, tol)
        rows += _rows_step2_almost(table, u, tol)
    else:
        rows += _rows_step1_di(table, tol)
        rows += _rows_step2_di(table, tol)
        rows += _rows_step3_di(table, u, tol)
    branch_rows, branch = _rows_branch(table, tol)
    rows += branch_rows
    rows.sort(key=lambda r: r.id)
    return rows, branch


# --- the lifted extractor ----------------------------------------------------


def grouped_isometry(ks: list[np.ndarray]) -> np.ndarray:
    """Tensor product of per-site swap isometries with outputs regrouped as
    (qubit_1..qubit_n, junk_1..junk_n)."""
    n = len(ks)
    dims = [k.shape[1] for k in ks]
    full = ks[0]
    for k in ks[1:]:
        full = np.kron(full, k)
    # rows of `full` are indexed by interleaved (q_1, j_1, q_2, j_2, ...)
    shape = []
    for d in dims:
        shape += [2, d]
    order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    full = full.reshape(shape + [int(np.prod(dims))])
    full = np.transpose(full, order + [2 * n])
    return full.reshape(2**n * int(np.prod(dims)), int(np.prod(dims)))


def _kron_w(ext):
    """The grouped isometry W of the frames of Eve's collective, (2^N dj, D), and dj."""
    w = grouped_isometry([f.isometry() for f in ext.sites])
    return w, w.shape[0] // 2**ext.real.n


def _kron_support(ext) -> np.ndarray:
    """The support projector P = (x)_j P_j of Eve's collective as one dense
    matrix; the identity on full support."""
    return np.eye(ext.real.eve.dim) if ext.support is None else reduce(np.kron, ext.support)


def _kron_junk_floor(ext) -> np.ndarray:
    """(x)_j K_{j,0} P_j K_{j,0}^dagger, every factor formed densely."""
    p = [np.eye(len(f.z)) for f in ext.sites] if ext.support is None else ext.support
    k0s = [(np.eye(len(f.z)) + f.z) / 2 for f in ext.sites]
    return reduce(np.kron, [k0 @ pj @ k0.conj().T for k0, pj in zip(k0s, p)])


def kron_measurement_distances(ext) -> np.ndarray:
    targets, (w, dj), p = ext.targets, _kron_w(ext), _kron_support(ext)
    dists = []
    real, v = ext.real, ext.real.eve.entries
    raw = [m.entries for m in real.l_meas] if real.scheme == ALMOST_DI else teleported_elements(real)
    for l, el in enumerate(raw):
        el = v.conj().T @ el @ v
        t = targets[l]
        proj = np.outer(t, t.conj())
        pull = w.conj().T @ np.kron(proj, np.eye(dj)) @ w
        dists.append(float(np.max(np.abs(p @ el @ p - p @ pull @ p))))
    return np.array(dists)


def kron_unitary_certificate(ext) -> float:
    targets, (w, dj), p = ext.targets, _kron_w(ext), _kron_support(ext)
    vbar = p @ ext.real.eve.entries @ p
    basis = ghz_basis(ext.real.n)
    worst = 0.0
    for l in range(2**ext.real.n):
        phi = basis[:, l]
        f_op = w.conj().T @ np.kron(np.outer(phi, phi.conj()), np.eye(dj)) @ w
        t = targets[l]
        g_op = w.conj().T @ np.kron(np.outer(t, t.conj()), np.eye(dj)) @ w
        lhs = vbar.conj().T @ f_op @ vbar
        worst = max(worst, float(np.max(np.abs(lhs - p @ g_op @ p))))
    return worst


def _ghz_blocks(lifted: np.ndarray, basis: np.ndarray, dj: int) -> np.ndarray:
    """Rotate the qubit factor of a (qubits (x) junk) operator into the
    ideal basis and expose the junk-sized blocks."""
    d = basis.shape[0]
    rot = np.kron(basis, np.eye(dj))
    rotated = rot.conj().T @ lifted @ rot
    return rotated.reshape(d, dj, d, dj)


def kron_blocks(ext) -> np.ndarray:
    (w, dj), p = _kron_w(ext), _kron_support(ext)
    lifted = w @ (p @ ext.real.eve.entries @ p).conj().T @ w.conj().T
    return _ghz_blocks(lifted, ghz_basis(ext.real.n), dj)


def kron_block_deviation(ext, blocks) -> float:
    targets, q = ext.targets, _kron_junk_floor(ext)
    basis = ghz_basis(ext.real.n)
    worst = 0.0
    for i in range(2**ext.real.n):
        phi = basis[:, i]
        for l in range(2**ext.real.n):
            coeff = complex(np.vdot(phi, targets[l]))
            dev = float(np.max(np.abs(blocks[i, :, l, :] - coeff * q)))
            worst = max(worst, dev)
    return worst


def kron_gate(ext, blocks) -> np.ndarray:
    branch = ext.branch
    n = ext.real.n
    q = _kron_junk_floor(ext)
    basis = ghz_basis(n)
    qn = float(np.real(np.trace(q)))
    m = np.einsum("ikjk->ij", blocks) / qn
    images = basis @ m
    gate_adj = images @ basis.conj().T
    if branch == "plus":
        gate = gate_adj.T
    elif branch == "minus":
        gate = gate_adj.conj().T
    else:
        raise ValueError("realization mixes branch signs across parties")
    return polar_factor(gate)


def kron_extract_rows(ext) -> dict[str, float]:
    """Every operator-level row value of ``ext``, by row id."""
    n = ext.real.n
    rows = {
        f"extract.meas[{_bits_label(ghz_bits(l, n))}]": float(d)
        for l, d in enumerate(kron_measurement_distances(ext))
    }
    rows["extract.unitary"] = kron_unitary_certificate(ext)
    blocks = kron_blocks(ext)
    rows["extract.blocks"] = kron_block_deviation(ext, blocks)
    g = kron_gate(ext, blocks)
    rows["extract.fidelity"] = float(abs(np.trace(g.conj().T @ ext.u.entries) / 2**n) ** 2)
    return rows


# --- the listed site maps ----------------------------------------------------


def listed_assemble_state(real: Realization) -> StateVector:
    """Tensor product of all sources, permuted into the canonical site order."""
    joint = StateVector(reduce(np.kron, [s.amplitudes for s in real.sources]), sum((s.dims for s in real.sources), ()))
    n = real.n
    if real.scheme == ALMOST_DI:
        # source order A1 L1 A2 L2 ... -> A1..AN L1..LN
        order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    else:
        # source order A1 R11 A2 R21 ... R12 L1 R22 L2 ... -> canonical
        order = (
            [2 * i for i in range(n)]
            + [2 * i + 1 for i in range(n)]
            + [2 * n + 2 * i for i in range(n)]
            + [2 * n + 2 * i + 1 for i in range(n)]
        )
    amps = joint.amplitudes.reshape(joint.dims).transpose(order)
    return StateVector(amps.reshape(-1), tuple(joint.dims[i] for i in order))


def _embed_junk(entries: np.ndarray, dims: tuple[int, ...], j: int) -> np.ndarray:
    """O -> O (x) identity on per-site junk, with sites interleaved as
    (d_1, j), (d_2, j), ..."""
    if j == 1:
        return entries.copy()
    k = len(dims)
    big = np.kron(entries, np.eye(j**k))
    full = big.reshape(tuple(dims) + (j,) * k + tuple(dims) + (j,) * k)
    perm = []
    for i in range(k):
        perm += [i, k + i]
    perm = perm + [2 * k + p for p in perm]
    d = int(np.prod(dims)) * j**k
    return full.transpose(perm).reshape(d, d)


def _rotate_op(entries: np.ndarray, ws: list[np.ndarray]) -> np.ndarray:
    w = ws[0]
    for m in ws[1:]:
        w = np.kron(w, m)
    return w @ entries @ w.conj().T


def listed_dilate(real: Realization, junk_dim: int, seed: int = 0, rotate: bool = True) -> Realization:
    """Equivalent realization with junk tensored on and sites scrambled.

    Every source gains a Haar-random pure junk state shared between its two
    wings; every operator is extended by the identity on junk.  With
    ``rotate`` each site is additionally conjugated by its own Haar-random
    unitary.  ``junk_dim=1`` with ``rotate=False`` returns the realization
    unchanged."""
    if junk_dim < 1:
        raise ValueError(f"junk dimension must be >= 1, got {junk_dim}")
    rng = np.random.default_rng(seed)
    n = real.n
    j = junk_dim

    def junk_state() -> np.ndarray:
        if j == 1:
            return np.ones(1, dtype=complex)
        v = rng.normal(size=j * j) + 1j * rng.normal(size=j * j)
        return v / np.linalg.norm(v)

    sources = []
    for src in real.sources:
        d0, d1 = src.dims
        xi = junk_state()
        amp = np.tensordot(src.amplitudes.reshape(d0, d1), xi.reshape(j, j), axes=0)
        amp = amp.transpose(0, 2, 1, 3).reshape(d0 * j * d1 * j)
        sources.append(StateVector(amp, (d0 * j, d1 * j)))
    lay = real.layout()
    n_sites = len(lay.dims)
    if rotate:
        ws = [haar_unitary(lay.dims[s] * j, rng) for s in range(n_sites)]
    else:
        ws = [np.eye(lay.dims[s] * j) for s in range(n_sites)]
    # rotate source wings
    rotated_sources = []
    for idx, src in enumerate(sources):
        if real.scheme == ALMOST_DI:
            s0, s1 = lay.a_site(idx + 1), lay.l_site(idx + 1)
        elif idx < n:
            s0, s1 = lay.a_site(idx + 1), lay.r1_site(idx + 1)
        else:
            s0, s1 = lay.r2_site(idx - n + 1), lay.l_site(idx - n + 1)
        amp = np.kron(ws[s0], ws[s1]) @ src.amplitudes
        rotated_sources.append(StateVector(amp, src.dims))
    a_obs = tuple(
        tuple(
            Operator(
                _rotate_op(_embed_junk(ob.entries, ob.dims, j), [ws[lay.a_site(i)]]),
                (real.a_dims()[i - 1] * j,),
            )
            for ob in real.a_obs[i - 1]
        )
        for i in range(1, n + 1)
    )
    l_sites = lay.l_sites()
    l_dims = real.l_dims()
    new_l_dims = tuple(d * j for d in l_dims)
    l_meas = tuple(
        Operator(_rotate_op(_embed_junk(m.entries, l_dims, j), [ws[s] for s in l_sites]), new_l_dims)
        for m in real.l_meas
    )
    v_sites = lay.v_sites()
    v_dims = real.l_dims() if real.scheme == ALMOST_DI else real.r1_dims()
    new_v_dims = tuple(d * j for d in v_dims)
    eve = Operator(
        _rotate_op(_embed_junk(real.eve.entries, v_dims, j), [ws[s] for s in v_sites]), new_v_dims
    )
    if real.scheme == ALMOST_DI:
        return Realization(
            ALMOST_DI, n, tuple(rotated_sources), a_obs, l_meas, eve, real.branch
        )
    b_obs = tuple(
        tuple(
            Operator(
                _rotate_op(_embed_junk(ob.entries, ob.dims, j), [ws[lay.l_site(i)]]),
                (l_dims[i - 1] * j,),
            )
            for ob in real.b_obs[i - 1]
        )
        for i in range(1, n + 1)
    )
    r1_dims, r2_dims = real.r1_dims(), real.r2_dims()
    repeaters = tuple(
        tuple(
            Operator(
                _rotate_op(
                    _embed_junk(el.entries, (r1_dims[i - 1], r2_dims[i - 1]), j),
                    [ws[lay.r1_site(i)], ws[lay.r2_site(i)]],
                ),
                (r1_dims[i - 1] * j, r2_dims[i - 1] * j),
            )
            for el in real.repeaters[i - 1]
        )
        for i in range(1, n + 1)
    )
    return Realization(
        DI, n, tuple(rotated_sources), a_obs, l_meas, eve, real.branch, b_obs, repeaters
    )


def listed_conjugate(real: Realization) -> Realization:
    """Complex-conjugate every state and operator.  All probabilities are
    unchanged, but the realized gate branch flips sign."""

    def c_op(op: Operator) -> Operator:
        return Operator(op.entries.conj(), op.dims)

    sources = tuple(StateVector(s.amplitudes.conj(), s.dims) for s in real.sources)
    a_obs = tuple(tuple(c_op(ob) for ob in triple) for triple in real.a_obs)
    l_meas = tuple(c_op(m) for m in real.l_meas)
    eve = c_op(real.eve)
    b_obs = None if real.b_obs is None else tuple(tuple(c_op(ob) for ob in pair) for pair in real.b_obs)
    repeaters = (
        None
        if real.repeaters is None
        else tuple(tuple(c_op(el) for el in quad) for quad in real.repeaters)
    )
    return Realization(
        real.scheme, real.n, sources, a_obs, l_meas, eve, -real.branch, b_obs, repeaters
    )


def listed_depolarize_sources(real: Realization, eta: float) -> Realization:
    """Send the second wing of each source through a depolarizing channel
    of strength eta, realized exactly by purifying into a dimension-4
    environment attached to that wing's site."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {eta}")
    weights = np.sqrt([1 - 3 * eta / 4, eta / 4, eta / 4, eta / 4])
    kraus = [w * pauli(idx).entries for w, idx in zip(weights, (3, 1, 2, 0))]
    sources = []
    for src in real.sources:
        d0, d1 = src.dims
        if d1 != 2:
            raise ValueError("depolarization is implemented for qubit wings only")
        amp = np.zeros((d0, d1, 4), dtype=complex)
        m = src.amplitudes.reshape(d0, d1)
        for k, op in enumerate(kraus):
            amp[:, :, k] = m @ op.T
        sources.append(StateVector(amp.reshape(d0 * d1 * 4), (d0, d1 * 4)))
    n = real.n

    def widen(op: Operator) -> Operator:
        return Operator(_embed_junk(op.entries, op.dims, 4), tuple(d * 4 for d in op.dims))

    a_obs = real.a_obs
    if real.scheme == ALMOST_DI:
        l_meas = tuple(widen(m) for m in real.l_meas)
        eve = widen(real.eve)
        return Realization(ALMOST_DI, n, tuple(sources), a_obs, l_meas, eve, real.branch)
    # di: the widened wings are R_{i,1} (sources 1..n) and L_i (sources n+1..2n)
    l_meas = tuple(widen(m) for m in real.l_meas)
    eve = widen(real.eve)
    b_obs = tuple(tuple(widen(ob) for ob in pair) for pair in real.b_obs)
    repeaters = tuple(
        tuple(
            Operator(
                _embed_first_junk(el.entries, el.dims, 4), (el.dims[0] * 4, el.dims[1])
            )
            for el in quad
        )
        for quad in real.repeaters
    )
    return Realization(DI, n, tuple(sources), a_obs, l_meas, eve, real.branch, b_obs, repeaters)


def _embed_first_junk(entries: np.ndarray, dims: tuple[int, ...], j: int) -> np.ndarray:
    """O -> O (x) junk identity on the first site only of a two-site operator."""
    d0, d1 = dims
    full = np.kron(entries, np.eye(j)).reshape(d0, d1, j, d0, d1, j)
    full = full.transpose(0, 2, 1, 3, 5, 4)
    return full.reshape(d0 * j * d1, d0 * j * d1)


def _y_sort_key(y) -> tuple:
    return (1,) if y == PERP else (0,) + tuple(y)


def _sorted_keys(table: ProbabilityTable) -> list[tuple]:
    if table.scheme == ALMOST_DI:
        return sorted(table.entries, key=lambda k: (k[0], k[1]))
    return sorted(table.entries, key=lambda k: (k[0], k[1], _y_sort_key(k[2])))


def dumps_write_table(table: ProbabilityTable, stream: io.TextIOBase) -> None:
    """A header line, then one record per settings row in sorted order."""
    header = {"kind": "probability_table", "scheme": table.scheme, "n": table.n}
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    for key in _sorted_keys(table):
        rec: dict = {"x": list(key[0]), "e": key[1], "p": table.entries[key].ravel().tolist()}
        if table.scheme == DI:
            rec["y"] = PERP if key[2] == PERP else list(key[2])
        stream.write(json.dumps(rec, sort_keys=True) + "\n")


# --- term-wise Bell optimizers ----------------------------------------------

def _symbols(functional: BellFunctional) -> dict[str, list[SettingSymbol]]:
    """Setting symbols each party's terms measure, parties in label order."""
    used: dict[str, set[SettingSymbol]] = {}
    for term in functional.terms:
        for label, sym in term.assignment.items():
            if sym is not SettingSymbol.ID:
                used.setdefault(label, set()).add(sym)
    return {label: sorted(used[label], key=lambda s: s.name) for label in sorted(used)}


def _base_settings(symbols: Mapping[str, list[SettingSymbol]]) -> dict[str, list[int]]:
    """Base settings each party's symbols expand into."""
    return {label: sorted({k for sym in syms for _, k in EXPANSION[sym]}) for label, syms in symbols.items()}


def _combine(values: Mapping[tuple[str, int], Any], label: str, sym: SettingSymbol) -> Any:
    """Value of a party's setting symbol from the values of its base settings."""
    return sum(c * values[(label, k)] for c, k in EXPANSION[sym])


def termwise_classical_bound(functional: BellFunctional) -> float:
    """Maximum over deterministic +-1 assignments of the base settings.

    Rotated combinations (T0, T1) are computed from the assigned values of
    the two base settings, so they range over {0, +-sqrt(2)}, not {+-1}.
    All assignments are evaluated at once, one array entry each.
    """
    slots = [(label, k) for label, settings in _base_settings(_symbols(functional)).items() for k in settings]
    grid = np.array(list(product((1.0, -1.0), repeat=len(slots)))).reshape(2 ** len(slots), len(slots))
    values = {slot: grid[:, j] for j, slot in enumerate(slots)}
    total = np.zeros(len(grid))
    for term in functional.terms:
        prod_val = np.full(len(grid), term.coeff)
        for label, sym in term.assignment.items():
            if sym is not SettingSymbol.ID:
                prod_val = prod_val * _combine(values, label, sym)
        total = total + prod_val
    return float(total.max())


def termwise_bell_operator(
    functional: BellFunctional,
    measured: Mapping[tuple[str, SettingSymbol], np.ndarray],
    labels: list[str],
    site_dim: int,
) -> np.ndarray:
    dim = site_dim ** len(labels)
    op = np.zeros((dim, dim), dtype=complex)
    pos = {label: k for k, label in enumerate(labels)}
    for term in functional.terms:
        factors = [np.eye(site_dim, dtype=complex) for _ in labels]
        for label, sym in term.assignment.items():
            if sym is not SettingSymbol.ID:
                factors[pos[label]] = measured[(label, sym)]
        mat = factors[0]
        for f in factors[1:]:
            mat = np.kron(mat, f)
        op = op + term.coeff * mat
    return op


def termwise_seesaw_max(functional: BellFunctional, restarts: int = 8, seed: int = 0) -> SeesawResult:
    """Alternating maximization of a Bell functional over one qubit per party.

    State step: top eigenvector of the Bell operator.  Observable step: each
    binary observable is replaced by the polar unitary part of its Hermitian
    effective operator, the exact maximizer at fixed state.  The iteration
    is monotone; several random restarts guard against poor local optima,
    and the first restart within ``SEESAW_STALL_TOL`` of the best is
    returned.
    """
    site_dim = SEESAW_SITE_DIM
    symbols = _symbols(functional)
    base = _base_settings(symbols)
    labels = list(base)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(max(1, restarts)):
        obs: dict[tuple[str, int], np.ndarray] = {}
        for label in labels:
            for code in base[label]:
                h = rng.normal(size=(site_dim, site_dim)) + 1j * rng.normal(size=(site_dim, site_dim))
                h = h + h.conj().T
                vecs = np.linalg.eigh(h)[1]
                # balanced +-1 spectrum in a random basis; an observable
                # proportional to the identity would freeze the iteration
                # at a deterministic point
                signs = np.array([1.0, -1.0] * ((site_dim + 1) // 2))[:site_dim]
                obs[(label, code)] = (vecs * rng.permutation(signs)) @ vecs.conj().T
        # each symbol's operator, refreshed whenever one of its base observables changes
        measured = {(label, sym): _combine(obs, label, sym) for label in labels for sym in symbols[label]}
        history: list[float] = []
        value = -np.inf
        converged = False
        it = 0
        for it in range(1, SEESAW_MAX_ITERS + 1):
            bell = termwise_bell_operator(functional, measured, labels, site_dim)
            vals, vecs = np.linalg.eigh(bell)
            state = vecs[:, -1]
            value = float(vals[-1])
            history.append(value)
            for label in labels:
                # a party's effective operators involve only the other parties
                effective = termwise_effective_operators(
                    functional, measured, labels, site_dim, state, label, base[label]
                )
                for code, g in effective.items():
                    obs[(label, code)] = polar_factor((g + g.conj().T) / 2)
                measured.update({(label, sym): _combine(obs, label, sym) for sym in symbols[label]})
            if len(history) >= 2 and abs(history[-1] - history[-2]) < SEESAW_STALL_TOL:
                converged = True
                break
        results.append(SeesawResult(value, converged, it, tuple(history)))
    top = max(res.value for res in results)
    return next(res for res in results if res.value >= top - SEESAW_STALL_TOL)


def termwise_effective_operators(
    functional: BellFunctional,
    measured: Mapping[tuple[str, SettingSymbol], np.ndarray],
    labels: list[str],
    site_dim: int,
    state: np.ndarray,
    label: str,
    codes: list[int],
) -> dict[int, np.ndarray]:
    """For each base setting ``code`` of party ``label``, the matrix G such
    that the functional value equals Tr[A_{label,code} G] plus terms not
    involving that base observable."""
    k = labels.index(label)
    dims = (site_dim,) * len(labels)
    psi_m = np.moveaxis(state.reshape(dims), k, 0).reshape(site_dim, -1)
    g = {code: np.zeros((site_dim, site_dim), dtype=complex) for code in codes}
    for term in functional.terms:
        sym = term.assignment.get(label)
        if sym is None or sym is SettingSymbol.ID:
            continue
        vec = state[None]
        for olabel, osym in term.assignment.items():
            if olabel == label or osym is SettingSymbol.ID:
                continue
            vec = apply_raw_batch(vec, dims, measured[(olabel, osym)][None], [labels.index(olabel)])
        chi_m = np.moveaxis(vec.reshape(dims), k, 0).reshape(site_dim, -1)
        contribution = chi_m @ psi_m.conj().T
        for c, code in EXPANSION[sym]:
            g[code] = g[code] + term.coeff * c * contribution
    return g
