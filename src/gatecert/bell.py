"""Bell functionals used by the certification protocol.

Two families:

* ``functional_I(l_bits)``: an N-party functional tailored to the GHZ-like
  state indexed by ``l_bits``.  Its algebraic maximum 3(N-1) is attained by
  the reference observables on that state; over deterministic strategies it
  is bounded by (sqrt(2)+1)(N-1).
* ``functional_K(i, signs)``: a CHSH-type functional between party A_i and
  box B_i, used to certify the repeater's Bell measurement in the di
  scheme.  Deterministic bound sqrt(2), quantum maximum 2.

Every tool reads a functional as one coefficient tensor ``W``
(``network.coefficients``), an axis per party over base settings 0..2 and
the identity: ``evaluate`` reads it against a probability table as weights
on table rows (``network.row_weights``).  ``classical_bound`` and
``seesaw_max`` (alternating optimization over qubit strategies) read the
functional's own copy, ``BellFunctional.tensor``, built once, and contract
it one party at a time, for the bound, the Bell operator and the effective
operators.  The see-saw runs all its restarts as one batch: each
contraction step is one batched matrix product (``_fold``), and each
observable step takes the sign of a 2x2 Hermitian matrix in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .network import ProbabilityTable, coefficients, terms_value
from .primitives import SettingSymbol
from .tensor import DEFAULT_ZERO_TOL, check_size


class BellTerm(NamedTuple):
    """``coeff`` times the product correlator ``assignment``, label -> symbol."""

    coeff: float
    assignment: Mapping[str, SettingSymbol]


@dataclass(frozen=True)
class BellFunctional:
    n: int
    label: str
    terms: tuple[BellTerm, ...]

    @cached_property
    def tensor(self) -> np.ndarray:
        """The coefficient tensor ``W``, ``coefficients(terms, None)[1]``, read-only, built once."""
        _, w = coefficients(self.terms, None)
        w.setflags(write=False)
        return w


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
    return terms_value(table, functional.terms, e=e, l=l, r=r, renormalize=renormalize)


# --- the coefficient tensor -------------------------------------------------


def _reached(w: np.ndarray) -> list[np.ndarray]:
    """Base settings each party's axis of ``w`` reaches, ascending."""
    axes = range(w.ndim)
    return [np.flatnonzero(np.any(w != 0, axis=tuple(q for q in axes if q != p))[:3]) for p in axes]


def classical_bound(functional: BellFunctional) -> float:
    """Maximum over deterministic +-1 assignments of the base settings.

    Rotated combinations (T0, T1) are computed from the assigned values of
    the two base settings, so they range over {0, +-sqrt(2)}, not {+-1}.
    All 2^S assignments of the S reached base settings at once: each axis of
    ``W`` is contracted with its own party's +-1 values, 1 at the identity,
    which leaves the assignments in order, the first party's slowest.
    """
    t = functional.tensor
    for settings in _reached(t):
        grid = np.array(list(product((1.0, -1.0), repeat=len(settings)))).reshape(2 ** len(settings), len(settings))
        values = np.ones((len(grid), 4))
        values[:, settings] = grid
        # the leading axis is the next party's: its assignments go last
        t = np.tensordot(t, values, axes=(0, 1))
    return float(t.max())


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


def _fold(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """``sum_i W[..., i] (x)_q stacks[:, q, i_q]`` over W's trailing
    ``stacks.shape[1]`` slots: ``(R, D, D, L)``, L the entries of W's
    leading slots.  One party at a time from the last: each step is one
    batched matrix product of W's last slot against the party's
    ``(R, 4, d*d)`` stack, and the party's sites go before the operator's."""
    r, m, _, d, _ = stacks.shape
    # t: (restart, bra, ket, leading slots and the slots still to fold)
    t = w.reshape(1, 1, 1, -1)
    for q in reversed(range(m)):
        _, x, y, rest = t.shape
        t = (t.reshape(len(t), -1, 4) @ stacks[:, q].reshape(r, 4, d * d)).reshape(r, x, y, rest // 4, d, d)
        t = t.transpose(0, 4, 1, 5, 2, 3).reshape(r, d * x, d * y, rest // 4)
    return t


def _bell_operators(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """Bell operators sum_i W[i] (x)_p stacks[:, p, i_p] of a batch of
    restarts, ``(R, D, D)``."""
    return _fold(w, stacks)[..., 0]


def _effective_stacks(w: np.ndarray, stacks: np.ndarray, states: np.ndarray, p: int) -> np.ndarray:
    """Party p's effective operators G[:, k], k = 0..3, of each restart: the
    value at ``states`` is sum_k Tr[stacks[:, p, k] G[:, k]], G free of
    party p.  With B'_k the other parties' Bell operator at party p's slot k
    and Psi the state with party p's qubit first, G = Psi B'^T Psi^dagger."""
    r, m, _, d, _ = stacks.shape
    others = [q for q in range(m) if q != p]
    bt = _fold(w.transpose(p, *others), stacks[:, others]).transpose(0, 3, 2, 1)
    psi = states.reshape((r,) + (d,) * m).transpose(0, 1 + p, *(1 + q for q in others)).reshape(r, 1, d, -1)
    return psi @ bt @ psi.conj().transpose(0, 1, 3, 2)


def _qubit_sign(g: np.ndarray) -> np.ndarray:
    """sign(G) of the Hermitian part of each 2x2 matrix of ``g``, as
    ``tensor.polar_factor`` gives it, in closed form: with G = g0 I + g.sigma
    the eigenvalues are g0 +- |g|, and one above -``DEFAULT_ZERO_TOL`` goes
    to +1, so one of magnitude below the tolerance does too."""
    g0 = (g[..., 0, 0].real + g[..., 1, 1].real) / 2
    gz = (g[..., 0, 0].real - g[..., 1, 1].real) / 2
    off = (g[..., 0, 1] + g[..., 1, 0].conj()) / 2  # gx - i gy
    norm = np.sqrt(gz**2 + off.real**2 + off.imag**2)
    plus, minus = (np.where(lam > -DEFAULT_ZERO_TOL, 1.0, -1.0) for lam in (g0 + norm, g0 - norm))
    # sign(G) = (s+ + s-)/2 I + (s+ - s-)/2 g.sigma/|g|; the signs differ only where |g| > 0
    a, c = (plus + minus) / 2, np.divide(1.0, norm, out=np.zeros_like(norm), where=plus != minus)
    out = np.empty(g.shape, dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = a + c * gz, a - c * gz
    out[..., 0, 1] = c * off
    out[..., 1, 0] = out[..., 0, 1].conj()
    return out


def seesaw_max(functional: BellFunctional, restarts: int = 8, seed: int = 0) -> SeesawResult:
    """Alternating maximization of a Bell functional over one qubit per party.

    State step: top eigenvector of the Bell operator.  Observable step: each
    party in turn replaces every binary observable by the sign (the polar
    unitary part) of its Hermitian effective operator, the exact maximizer
    at fixed state.  The iteration is monotone; several random restarts
    guard against poor local optima, and the first restart within
    ``SEESAW_STALL_TOL`` of the best is returned, so restarts tied up to
    rounding do not decide it.

    Every restart's initial observables are drawn up front, and the
    restarts iterate as one batch: each step builds all their Bell
    operators, takes one stacked ``eigh`` and one stacked sign step per
    party.  A restart leaves the batch when its own history stalls.  The
    Bell operator and the effective operators contract the coefficient
    tensor ``W`` one party at a time.  A batch that would hold more than
    ``tensor.MAX_AMPLITUDES`` entries raises ValueError before anything
    is drawn.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    site_dim = SEESAW_SITE_DIM
    w = functional.tensor
    # the largest batch: each restart's Bell operator (and every fold step), or its stacks, which outgrow its draws
    check_size(restarts * max(site_dim ** (2 * w.ndim), w.ndim * 4 * site_dim**2), f"a see-saw of {restarts} restarts")
    reached = _reached(w)
    rng = np.random.default_rng(seed)
    # every restart's draws, in the order of restart, party and base setting
    slots = [(p, k) for p, settings in enumerate(reached) for k in settings]
    signs = np.array([1.0, -1.0] * ((site_dim + 1) // 2))[:site_dim]
    z = np.empty((restarts, len(slots), 2, site_dim, site_dim))  # real and imaginary parts, drawn as one
    perm = np.empty((restarts, len(slots), site_dim))
    for j in np.ndindex(restarts, len(slots)):
        z[j], perm[j] = rng.normal(size=(2, site_dim, site_dim)), rng.permutation(signs)
    h = z[:, :, 0] + 1j * z[:, :, 1]
    vecs = np.linalg.eigh(h + np.swapaxes(h, -1, -2).conj())[1]
    stacks = np.zeros((restarts, w.ndim, 4, site_dim, site_dim), dtype=complex)
    stacks[:, :, 3] = np.eye(site_dim)
    # balanced +-1 spectrum in a random basis; an observable proportional
    # to the identity would freeze the iteration at a deterministic point
    obs = (vecs * perm[..., None, :]) @ np.swapaxes(vecs, -1, -2).conj()
    stacks[:, [p for p, _ in slots], [k for _, k in slots]] = obs
    histories: list[list[float]] = [[] for _ in range(restarts)]
    done: dict[int, SeesawResult] = {}
    live = np.arange(restarts)  # the restarts still iterating, in the order of ``stacks``
    for it in range(1, SEESAW_MAX_ITERS + 1):
        vals, vecs = np.linalg.eigh(_bell_operators(w, stacks))
        for r, value in zip(live, vals[:, -1].tolist()):
            histories[r].append(value)
            if it >= 2 and abs(value - histories[r][-2]) < SEESAW_STALL_TOL:
                done[r] = SeesawResult(value, True, it, tuple(histories[r]))
        going = np.array([r not in done for r in live], dtype=bool)
        live, stacks, states = live[going], stacks[going], vecs[going, :, -1]
        if not live.size:
            break
        for p, settings in enumerate(reached):
            g = _effective_stacks(w, stacks, states, p)[:, settings]
            stacks[:, p, settings] = _qubit_sign(g)
    for r in live:
        done[r] = SeesawResult(histories[r][-1], False, SEESAW_MAX_ITERS, tuple(histories[r]))
    results = [done[r] for r in range(restarts)]
    top = max(res.value for res in results)
    return next(res for res in results if res.value >= top - SEESAW_STALL_TOL)
