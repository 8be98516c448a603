"""Bell functionals used by the certification protocol.

Two families:

* ``functional_I(l_bits)``: an N-party functional tailored to the GHZ-like
  state indexed by ``l_bits``.  Its algebraic maximum 3(N-1) is attained by
  the reference observables on that state; over deterministic strategies it
  is bounded by (sqrt(2)+1)(N-1).
* ``functional_K(i, signs)``: a CHSH-type functional between party A_i and
  box B_i, used to certify the repeater's Bell measurement in the di
  scheme.  Deterministic bound sqrt(2), quantum maximum 2.

``functional_weights`` gives a functional's weight array on each table row
it reads, and ``evaluate`` reads those weights against a probability table
as dot products.  ``seesaw_max`` searches for the quantum maximum over
qubit strategies by alternating optimization.  Every tool reads a setting
symbol through its expansion into base settings, ``primitives.EXPANSION``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Mapping, Sequence

import numpy as np

from .network import ProbabilityTable, correlator_weights, event_index, event_label, weighted_sum
from .primitives import EXPANSION, SettingSymbol
from .tensor import Operator, apply_raw_batch, polar_unitary


@dataclass(frozen=True)
class BellTerm:
    coeff: float
    assignment: Mapping[str, SettingSymbol]


@dataclass(frozen=True)
class BellFunctional:
    n: int
    label: str
    terms: tuple[BellTerm, ...]


def functional_I(l_bits: Sequence[int]) -> BellFunctional:
    """Functional whose quantum maximum 3(N-1) picks out the GHZ-like state
    with index bits ``l_bits``."""
    bits = tuple(int(b) for b in l_bits)
    n = len(bits)
    if n < 2 or any(b not in (0, 1) for b in bits):
        raise ValueError(f"invalid index bits {l_bits!r}")
    s = bits[0]
    terms = []
    first = {"A1": SettingSymbol.T1}
    first.update({f"A{j}": SettingSymbol.S1 for j in range(2, n + 1)})
    terms.append(BellTerm((-1.0) ** s * (n - 1), first))
    for i in range(2, n + 1):
        terms.append(
            BellTerm(
                (-1.0) ** (s + bits[i - 1]),
                {"A1": SettingSymbol.T0, f"A{i}": SettingSymbol.S0},
            )
        )
    for i in range(2, n + 1):
        asg = {"A1": SettingSymbol.S2, f"A{i}": SettingSymbol.S2}
        asg.update({f"A{j}": SettingSymbol.S1 for j in range(2, n + 1) if j != i})
        terms.append(BellTerm(-((-1.0) ** bits[i - 1]), asg))
    label = "I[" + "".join(str(b) for b in bits) + "]"
    return BellFunctional(n, label, tuple(terms))


def k_sign_bits(k: int) -> tuple[int, int]:
    """Map a repeater outcome k in 0..3 to the sign bits (s1, s2) of the
    functional that its post-measurement branch maximizes."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"repeater outcome must be 0..3, got {k}")
    b1, b2 = (k >> 1) & 1, k & 1
    return (b1, b1 ^ b2)


def functional_K(i: int, signs: tuple[int, int], n: int) -> BellFunctional:
    """CHSH-type functional between A_i and B_i with sign bits ``signs``.

    K = (-1)^{s1} <XX-like> + (-1)^{s2} <ZZ-like>: the rotated pair of
    settings sits on the A side for subnet 1 and on the B side otherwise.
    """
    s1, s2 = signs
    if s1 not in (0, 1) or s2 not in (0, 1):
        raise ValueError(f"sign bits must be 0 or 1, got {signs!r}")
    if i < 1:
        raise ValueError(f"subnet index must be >= 1, got {i}")
    if i > n:
        raise ValueError(f"subnet {i} out of range for n={n}")
    if i == 1:
        xx = {"A1": SettingSymbol.T1, "B1": SettingSymbol.S1}
        zz = {"A1": SettingSymbol.T0, "B1": SettingSymbol.S0}
    else:
        xx = {f"A{i}": SettingSymbol.S1, f"B{i}": SettingSymbol.T1}
        zz = {f"A{i}": SettingSymbol.S0, f"B{i}": SettingSymbol.T0}
    terms = (
        BellTerm((-1.0) ** s1, xx),
        BellTerm((-1.0) ** s2, zz),
    )
    return BellFunctional(n, f"K[{i};{s1}{s2}]", terms)


def functional_weights(
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
        for key, w in correlator_weights(scheme, n, term.assignment, e=e, l=l, r=r).items():
            out[key] = out[key] + term.coeff * w if key in out else term.coeff * w
    return out


def evaluate(
    functional: BellFunctional,
    table: ProbabilityTable,
    *,
    e: int = 0,
    l: int | None = None,
    r: Mapping[int, int] | None = None,
    renormalize: bool = True,
) -> float:
    """Value of a Bell functional on a probability table.

    Conditions (``l``, ``r``) restrict outcomes as in
    :func:`gatecert.network.expectation`, and with ``renormalize`` each
    settings row is conditioned on them.  A realization is evaluated
    through its table, ``evaluate(functional, born_table(real), ...)``.
    """
    if not isinstance(table, ProbabilityTable):
        raise TypeError(f"cannot evaluate on {type(table).__name__}; pass a ProbabilityTable")
    weights = functional_weights(functional, table.scheme, table.n, e=e, l=l, r=r)
    rows = {key: table.array(key) for key in weights}
    event = event_label(table.n, l=l, r=r) if renormalize else None
    return weighted_sum(rows, event_index(table.scheme, table.n, l=l, r=r), weights, event)


# --- deterministic (classical) bound ---------------------------------------


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


def classical_bound(functional: BellFunctional) -> float:
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


# --- see-saw search for the quantum maximum --------------------------------

SEESAW_SITE_DIM = 2  # one qubit per party
SEESAW_MAX_ITERS = 500
SEESAW_STALL_TOL = 1e-10


@dataclass(frozen=True)
class SeesawResult:
    value: float
    converged: bool
    iterations: int
    history: tuple[float, ...]


def _bell_operator(
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


def seesaw_max(functional: BellFunctional, restarts: int = 8, seed: int = 0) -> SeesawResult:
    """Alternating maximization of a Bell functional over one qubit per party.

    State step: top eigenvector of the Bell operator.  Observable step: each
    binary observable is replaced by the polar unitary part of its Hermitian
    effective operator, the exact maximizer at fixed state.  The iteration
    is monotone; several random restarts guard against poor local optima.
    """
    site_dim = SEESAW_SITE_DIM
    symbols = _symbols(functional)
    base = _base_settings(symbols)
    labels = list(base)
    rng = np.random.default_rng(seed)
    best = SeesawResult(-np.inf, False, 0, ())
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
            bell = _bell_operator(functional, measured, labels, site_dim)
            vals, vecs = np.linalg.eigh(bell)
            state = vecs[:, -1]
            value = float(vals[-1])
            history.append(value)
            for label in labels:
                # a party's effective operators involve only the other parties
                effective = _effective_operators(functional, measured, labels, site_dim, state, label, base[label])
                for code, g in effective.items():
                    obs[(label, code)] = polar_unitary(
                        Operator((g + g.conj().T) / 2, (site_dim,))
                    ).entries
                measured.update({(label, sym): _combine(obs, label, sym) for sym in symbols[label]})
            if len(history) >= 2 and abs(history[-1] - history[-2]) < SEESAW_STALL_TOL:
                converged = True
                break
        if value > best.value:
            best = SeesawResult(value, converged, it, tuple(history))
    return best


def _effective_operators(
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
