"""Bell functionals used by the certification protocol.

Two families:

* ``functional_I(l_bits)``: an N-party functional tailored to the GHZ-like
  state indexed by ``l_bits``.  Its algebraic maximum 3(N-1) is attained by
  the reference observables on that state; over deterministic strategies it
  is bounded by (sqrt(2)+1)(N-1).
* ``functional_K(i, signs)``: a CHSH-type functional between party A_i and
  box B_i, used to certify the repeater's Bell measurement in the di
  scheme.  Deterministic bound sqrt(2), quantum maximum 2.

``evaluate`` computes a functional either from a probability table (pure
table arithmetic) or directly from a realization (operator arithmetic,
useful when the full table would be large).  ``seesaw_max`` searches for
the quantum maximum over qubit strategies by alternating optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .network import DI, ProbabilityTable, Realization, expectation
from .primitives import SettingSymbol
from .tensor import Operator, apply_raw, polar_unitary

SQ2 = np.sqrt(2.0)


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


def functional_K(i: int, signs: tuple[int, int], n: int | None = None) -> BellFunctional:
    """CHSH-type functional between A_i and B_i with sign bits ``signs``.

    K = (-1)^{s1} <XX-like> + (-1)^{s2} <ZZ-like>: the rotated pair of
    settings sits on the A side for subnet 1 and on the B side otherwise.
    """
    s1, s2 = signs
    if s1 not in (0, 1) or s2 not in (0, 1):
        raise ValueError(f"sign bits must be 0 or 1, got {signs!r}")
    if i < 1:
        raise ValueError(f"subnet index must be >= 1, got {i}")
    n = max(i, 2) if n is None else n
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


def evaluate(
    functional: BellFunctional,
    source: ProbabilityTable | Realization,
    *,
    e: int = 0,
    l: int | None = None,
    r: Mapping[int, int] | None = None,
    renormalize: bool = True,
) -> float:
    """Value of a Bell functional on a table or a realization.

    Conditions (``l``, ``r``) restrict outcomes as in
    :func:`gatecert.network.expectation`.
    """
    if isinstance(source, ProbabilityTable):
        return sum(
            t.coeff * expectation(source, t.assignment, e=e, l=l, r=r, renormalize=renormalize)
            for t in functional.terms
        )
    if isinstance(source, Realization):
        return _evaluate_realization(functional, source, e=e, l=l, r=r, renormalize=renormalize)
    raise TypeError(f"cannot evaluate on {type(source).__name__}")


_TILDE_COEFFS = {
    SettingSymbol.T0: ((1 / SQ2, 0), (-1 / SQ2, 1)),
    SettingSymbol.T1: ((1 / SQ2, 0), (1 / SQ2, 1)),
}


def _site_operator(real: Realization, label: str, sym: SettingSymbol) -> tuple[int, np.ndarray]:
    lay = real.layout()
    kind, num = label[0], int(label[1:])
    if kind == "A":
        site = lay.a_site(num)
        bank = real.a_obs[num - 1]
        if sym in _TILDE_COEFFS:
            if num != 1:
                raise ValueError("rotated combinations are defined for party A1 only")
            op = sum(c * bank[x].entries for c, x in _TILDE_COEFFS[sym])
        elif sym is SettingSymbol.T2:
            op = bank[2].entries
        else:
            op = bank[{SettingSymbol.S0: 0, SettingSymbol.S1: 1, SettingSymbol.S2: 2}[sym]].entries
        return site, np.asarray(op)
    if kind == "B":
        if real.scheme != DI:
            raise ValueError("box parties exist only in the di scheme")
        site = lay.l_site(num)
        bank = real.b_obs[num - 1]
        if sym in _TILDE_COEFFS:
            op = sum(c * bank[y].entries for c, y in _TILDE_COEFFS[sym])
        elif sym in (SettingSymbol.S0, SettingSymbol.S1):
            op = bank[{SettingSymbol.S0: 0, SettingSymbol.S1: 1}[sym]].entries
        else:
            raise ValueError("boxes have two settings; S2/T2 are not available")
        return site, np.asarray(op)
    raise ValueError(f"unknown party label {label!r}")


def _evaluate_realization(
    functional: BellFunctional,
    real: Realization,
    *,
    e: int,
    l: int | None,
    r: Mapping[int, int] | None,
    renormalize: bool,
) -> float:
    from .network import (
        ZERO_WEIGHT_TOL,
        ZeroProbabilityEvent,
        _event_label,
        _state_with_eve,
        validate_realization,
    )

    validate_realization(real)
    lay = real.layout()
    dims = lay.dims
    psi = _state_with_eve(real, e)
    cond = psi
    if r:
        for subnet, k in sorted(r.items()):
            cond = apply_raw(
                cond,
                dims,
                real.repeaters[subnet - 1][int(k)].entries,
                [lay.r1_site(subnet), lay.r2_site(subnet)],
            )
    if l is not None:
        cond = apply_raw(cond, dims, real.l_meas[int(l)].entries, lay.l_sites())
    weight = float(np.real(np.vdot(psi, cond)))
    total = 0.0
    for term in functional.terms:
        vec = cond
        for label, sym in sorted(term.assignment.items()):
            if sym is SettingSymbol.ID:
                continue
            site, op = _site_operator(real, label, sym)
            vec = apply_raw(vec, dims, op, [site])
        val = float(np.real(np.vdot(psi, vec)))
        total += term.coeff * val
    if renormalize:
        if weight <= ZERO_WEIGHT_TOL:
            raise ZeroProbabilityEvent(_event_label(real.n, l=l, r=r), weight)
        total /= weight
    return total


# --- deterministic (classical) bound ---------------------------------------


def _term_parties(functional: BellFunctional) -> list[tuple[str, list[SettingSymbol]]]:
    used: dict[str, set[SettingSymbol]] = {}
    for term in functional.terms:
        for label, sym in term.assignment.items():
            if sym is SettingSymbol.ID:
                continue
            used.setdefault(label, set()).add(sym)
    return [(label, sorted(syms, key=lambda s: s.name)) for label, syms in sorted(used.items())]


_BASE_SETTINGS = {
    SettingSymbol.S0: ("0", None),
    SettingSymbol.S1: ("1", None),
    SettingSymbol.S2: ("2", None),
    SettingSymbol.T2: ("2", None),
    SettingSymbol.T0: (None, (1 / SQ2, -1 / SQ2)),
    SettingSymbol.T1: (None, (1 / SQ2, 1 / SQ2)),
}


def classical_bound(functional: BellFunctional) -> float:
    """Maximum over deterministic +-1 assignments of the base settings.

    Rotated combinations (T0, T1) are computed from the assigned values of
    the two base settings, so they range over {0, +-sqrt(2)}, not {+-1}.
    """
    parties = _term_parties(functional)
    base: dict[str, set[str]] = {}
    for label, syms in parties:
        needed = set()
        for sym in syms:
            code, combo = _BASE_SETTINGS[sym]
            if code is not None:
                needed.add(code)
            else:
                needed.update(("0", "1"))
        base[label] = needed
    slots = [(label, code) for label in sorted(base) for code in sorted(base[label])]
    best = -np.inf
    for values in product((1.0, -1.0), repeat=len(slots)):
        table = dict(zip(slots, values))
        total = 0.0
        for term in functional.terms:
            prod_val = term.coeff
            for label, sym in term.assignment.items():
                if sym is SettingSymbol.ID:
                    continue
                code, combo = _BASE_SETTINGS[sym]
                if code is not None:
                    prod_val *= table[(label, code)]
                else:
                    c0, c1 = combo
                    prod_val *= c0 * table[(label, "0")] + c1 * table[(label, "1")]
            total += prod_val
        best = max(best, total)
    return float(best)


# --- see-saw search for the quantum maximum --------------------------------


@dataclass(frozen=True)
class SeesawResult:
    value: float
    converged: bool
    iterations: int
    history: tuple[float, ...]


def _bell_operator(
    functional: BellFunctional,
    observables: Mapping[tuple[str, str], np.ndarray],
    labels: list[str],
    site_dim: int,
) -> np.ndarray:
    dim = site_dim ** len(labels)
    op = np.zeros((dim, dim), dtype=complex)
    pos = {label: k for k, label in enumerate(labels)}
    for term in functional.terms:
        factors = [np.eye(site_dim, dtype=complex) for _ in labels]
        for label, sym in term.assignment.items():
            if sym is SettingSymbol.ID:
                continue
            code, combo = _BASE_SETTINGS[sym]
            if code is not None:
                factors[pos[label]] = observables[(label, code)]
            else:
                c0, c1 = combo
                factors[pos[label]] = c0 * observables[(label, "0")] + c1 * observables[(label, "1")]
        mat = factors[0]
        for f in factors[1:]:
            mat = np.kron(mat, f)
        op = op + term.coeff * mat
    return op


def seesaw_max(
    functional: BellFunctional,
    site_dim: int = 2,
    restarts: int = 8,
    seed: int = 0,
    max_iters: int = 500,
    stall_tol: float = 1e-10,
) -> SeesawResult:
    """Alternating maximization of a Bell functional over one qudit per party.

    State step: top eigenvector of the Bell operator.  Observable step: each
    binary observable is replaced by the polar unitary part of its Hermitian
    effective operator, the exact maximizer at fixed state.  The iteration
    is monotone; several random restarts guard against poor local optima.
    """
    parties = _term_parties(functional)
    labels = [label for label, _ in parties]
    base: dict[str, list[str]] = {}
    for label, syms in parties:
        needed: set[str] = set()
        for sym in syms:
            code, _ = _BASE_SETTINGS[sym]
            needed.update(("0", "1") if code is None else (code,))
        base[label] = sorted(needed)
    rng = np.random.default_rng(seed)
    best = SeesawResult(-np.inf, False, 0, ())
    for _ in range(max(1, restarts)):
        obs: dict[tuple[str, str], np.ndarray] = {}
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
        history: list[float] = []
        value = -np.inf
        converged = False
        it = 0
        for it in range(1, max_iters + 1):
            bell = _bell_operator(functional, obs, labels, site_dim)
            vals, vecs = np.linalg.eigh(bell)
            state = vecs[:, -1]
            value = float(vals[-1])
            history.append(value)
            for label in labels:
                for code in base[label]:
                    g = _effective_site(functional, obs, labels, site_dim, state, label, code)
                    obs[(label, code)] = polar_unitary(
                        Operator((g + g.conj().T) / 2, (site_dim,))
                    ).entries
            if len(history) >= 2 and abs(history[-1] - history[-2]) < stall_tol:
                converged = True
                break
        if value > best.value:
            best = SeesawResult(value, converged, it, tuple(history))
    return best


def _effective_site(
    functional: BellFunctional,
    obs: Mapping[tuple[str, str], np.ndarray],
    labels: list[str],
    site_dim: int,
    state: np.ndarray,
    label: str,
    code: str,
) -> np.ndarray:
    """Matrix G such that the functional value equals Tr[A_{label,code} G]
    plus terms not involving that base observable."""
    k = labels.index(label)
    dims = (site_dim,) * len(labels)
    psi_m = np.moveaxis(state.reshape(dims), k, 0).reshape(site_dim, -1)
    g = np.zeros((site_dim, site_dim), dtype=complex)
    for term in functional.terms:
        sym = term.assignment.get(label)
        if sym is None or sym is SettingSymbol.ID:
            continue
        tcode, combo = _BASE_SETTINGS[sym]
        if tcode is not None:
            if tcode != code:
                continue
            weight = term.coeff
        else:
            if code not in ("0", "1"):
                continue
            weight = term.coeff * (combo[0] if code == "0" else combo[1])
        vec = state
        for olabel, osym in term.assignment.items():
            if olabel == label or osym is SettingSymbol.ID:
                continue
            ocode, ocombo = _BASE_SETTINGS[osym]
            if ocode is not None:
                mat = obs[(olabel, ocode)]
            else:
                mat = ocombo[0] * obs[(olabel, "0")] + ocombo[1] * obs[(olabel, "1")]
            vec = apply_raw(vec, dims, mat, [labels.index(olabel)])
        chi_m = np.moveaxis(vec.reshape(dims), k, 0).reshape(site_dim, -1)
        g = g + weight * (chi_m @ psi_m.conj().T)
    return g
