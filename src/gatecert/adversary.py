"""Adversarial transformations of realizations.

Each transformation rewrites a realization into another valid one.  The
first three preserve every probability the protocol consumes and therefore
must leave certification verdicts unchanged; the last two damage the
correlations and must be caught:

* ``dilate``: tensor junk degrees of freedom onto every site and scramble
  each site with a Haar-random unitary.
* ``conjugate``: complex-conjugate all states and operators, flipping the
  branch of the realized gate.
* ``gauge_phase``: multiply Eve's operation by a phase per joint-box
  outcome (di: per teleported-box outcome), a stabilizer of the box.
* ``perturb``: replace V by V exp(i eps H) for a random Hermitian H of
  unit spectral norm.
* ``depolarize``: pass one wing of each source through a depolarizing
  channel of strength eta, simulated exactly through a purification.

Each kind is declared once, in ``_KINDS``: its transformation and the spec
fields it takes by keyword.  The table drives ``AdversarySpec.to_record``
(``thetas`` as a list, empty when unset), the fields ``from_record`` accepts
(finite JSON numbers only for the numeric ones; a perturb record must give
``epsilon`` and a depolarize record ``eta``) and the call ``apply_adversary``
makes, e.g. ``dilate(real, junk_dim=..., seed=..., rotate=...)``.  Spec files
go through the file layer of ``primitives``.  A spec's seed is non-negative.

Each kind is new sources plus one ``Realization.map_operators`` walk, in
which every operator is lifted onto the junk of its sites (``dilate``,
``depolarize``) or conjugated, or is ``dataclasses.replace`` of Eve's
operation (``gauge_phase``, ``perturb``).  ``dilate`` and
``depolarize_sources`` refuse, before they allocate anything, a lift whose
largest matrix would exceed ``tensor.MAX_AMPLITUDES`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .extract import teleported_elements
from .network import ALMOST_DI, Realization
from .primitives import haar_unitary, json_bool, json_float, json_int, json_object, pauli, read_json, write_json
from .tensor import Operator, StateVector, check_size


@dataclass(frozen=True)
class AdversarySpec:
    kind: str
    junk_dim: int = 2
    seed: int = 0
    rotate: bool = True
    thetas: tuple[float, ...] | None = None
    epsilon: float = 0.0
    eta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"adversary seed must be non-negative, got {self.seed}")

    def to_record(self) -> dict:
        rec = {name: getattr(self, name) for name in ("kind", *_KINDS[self.kind][1])}
        if "thetas" in rec:
            rec["thetas"] = list(self.thetas or ())
        return rec

    @staticmethod
    def from_record(rec: dict) -> "AdversarySpec":
        if not isinstance(rec, dict):
            raise ValueError("adversary record must be a mapping")
        kind = rec.get("kind")
        if kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {kind!r}")
        values = {}
        for name in json_object(rec, ("kind", *_KINDS[kind][1]), f"{kind} adversary record"):
            try:
                values[name] = _FIELD_READERS[name](rec[name])
            except (OverflowError, TypeError, ValueError):
                raise ValueError(f"adversary field {name!r} has malformed value {rec[name]!r}") from None
        missing = [name for name in _REQUIRED.get(kind, ()) if name not in rec]
        if missing:
            raise ValueError(f"{kind} adversary record is missing field(s) {', '.join(map(repr, missing))}")
        return AdversarySpec(**values)


# JSON reader of each record field; the kind is checked before the others are read.
_FIELD_READERS = {"kind": str, "junk_dim": json_int, "seed": json_int, "rotate": json_bool, "epsilon": json_float,
                  "eta": json_float, "thetas": lambda ts: tuple(map(json_float, ts))}


def load_adversary(path: str) -> AdversarySpec:
    return read_json(path, "adversary spec", AdversarySpec.from_record)


def save_adversary(spec: AdversarySpec, path: str) -> None:
    write_json(path, spec.to_record())


def apply_adversary(real: Realization, spec: AdversarySpec) -> Realization:
    transform, fields = _KINDS[spec.kind]
    return transform(real, **{name: getattr(spec, name) for name in fields})


def _lift(op: Operator, junk_per_site, rotations) -> Operator:
    """O -> O (x) identity on junk of dimension ``junk_per_site[k]``, placed
    right after site k of the operator.  ``rotations`` is None or one
    unitary per lifted site; given, the result is conjugated by their
    tensor product."""
    dims, js = op.dims, tuple(junk_per_site)
    k, big = len(dims), [d * j for d, j in zip(dims, js)]
    entries = op.entries.copy()
    if any(j > 1 for j in js):
        full = np.kron(op.entries, np.eye(prod(js))).reshape(dims + js + dims + js)
        perm = [p for i in range(k) for p in (i, k + i)]
        entries = full.transpose(perm + [2 * k + p for p in perm]).reshape(prod(big), prod(big))
    if rotations is not None:
        w = rotations[0]
        for m in rotations[1:]:
            w = np.kron(w, m)
        entries = w @ entries @ w.conj().T
    return Operator(entries, tuple(big))


def _check_lift(real: Realization, junk_per_site, what: str) -> None:
    """``check_size`` of the largest matrix on an operator's or a source's sites lifted by ``junk_per_site``."""
    lay = real.layout()
    groups = list(lay.source_sites())
    real.map_operators(lambda op, sites: groups.append(sites) or op)
    widest = max(prod(lay.dims[s] * junk_per_site[s] for s in sites) for sites in groups)
    check_size(widest**2, what)


def dilate(real: Realization, junk_dim: int, seed: int = 0, rotate: bool = True) -> Realization:
    """Equivalent realization with junk tensored on and sites scrambled.

    Every source gains a Haar-random pure junk state shared between its two
    wings; every operator is extended by the identity on junk.  With
    ``rotate`` each site is additionally conjugated by its own Haar-random
    unitary.  ``junk_dim=1`` with ``rotate=False`` returns the realization
    unchanged."""
    if junk_dim < 1:
        raise ValueError(f"junk dimension must be >= 1, got {junk_dim}")
    j, lay = junk_dim, real.layout()
    _check_lift(real, [j] * len(lay.dims), f"a junk_dim={j} dilation's largest matrix")
    rng = np.random.default_rng(seed)

    def junk_state() -> np.ndarray:
        if j == 1:
            return np.ones(1, dtype=complex)
        v = rng.normal(size=j * j) + 1j * rng.normal(size=j * j)
        return v / np.linalg.norm(v)

    junked = []
    for src in real.sources:
        d0, d1 = src.dims
        amp = np.tensordot(src.amplitudes.reshape(d0, d1), junk_state().reshape(j, j), axes=0)
        junked.append(amp.transpose(0, 2, 1, 3).reshape(d0 * j * d1 * j))
    ws = [haar_unitary(d * j, rng) if rotate else np.eye(d * j) for d in lay.dims]
    sources = tuple(
        StateVector(np.kron(ws[s0], ws[s1]) @ amp, (src.dims[0] * j, src.dims[1] * j))
        for src, amp, (s0, s1) in zip(real.sources, junked, lay.source_sites())
    )
    return real.map_operators(lambda op, sites: _lift(op, [j] * len(sites), [ws[s] for s in sites]), sources=sources)


def conjugate(real: Realization) -> Realization:
    """Complex-conjugate every state and operator.  All probabilities are
    unchanged, but the realized gate branch flips sign."""
    sources = tuple(StateVector(s.amplitudes.conj(), s.dims) for s in real.sources)
    return real.map_operators(
        lambda op, _: Operator(op.entries.conj(), op.dims), sources=sources, branch=-real.branch
    )


def gauge_phase(real: Realization, thetas) -> Realization:
    """Multiply Eve's operation on the left by P = sum_l e^{i theta_l} E_l,
    the phase gauge of the joint box (di: of the teleported box, extended
    by the identity off its support).  Every probability row the protocol
    consumes is invariant."""
    if thetas is None:
        raise ValueError("gauge_phase adversary needs per-outcome phases")
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != 2**real.n:
        raise ValueError(f"need {2**real.n} phases, got {len(thetas)}")
    if real.scheme == ALMOST_DI:
        dl = int(np.prod(real.l_dims()))
        p = np.zeros((dl, dl), dtype=complex)
        for th, m in zip(thetas, real.l_meas):
            p += np.exp(1j * th) * m.entries
    else:
        els = teleported_elements(real)
        d1 = els[0].shape[0]
        total = np.zeros((d1, d1), dtype=complex)
        p = np.zeros((d1, d1), dtype=complex)
        for th, el in zip(thetas, els):
            p += np.exp(1j * th) * el
            total += el
        p += np.eye(d1) - total
    dev = np.max(np.abs(p @ p.conj().T - np.eye(p.shape[0])))
    if dev > 1e-8:
        raise ValueError(
            f"phase gauge is not unitary (deviation {dev:.2e}); the box elements "
            "are not an orthogonal projective family"
        )
    return replace(real, eve=Operator(p @ real.eve.entries, real.eve.dims))


def perturb(real: Realization, epsilon: float, seed: int = 0) -> Realization:
    """Replace Eve's operation by V exp(i eps H) with H a seeded random
    Hermitian of unit spectral norm."""
    rng = np.random.default_rng(seed)
    d = real.eve.dim
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    h = h / np.max(np.abs(np.linalg.eigvalsh(h)))
    vals, vecs = np.linalg.eigh(h)
    rot = (vecs * np.exp(1j * epsilon * vals)) @ vecs.conj().T
    return replace(real, eve=Operator(real.eve.entries @ rot, real.eve.dims))


def depolarize_sources(real: Realization, eta: float) -> Realization:
    """Send the second wing of each source through a depolarizing channel
    of strength eta, realized exactly by purifying into a dimension-4
    environment attached to that wing's site."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {eta}")
    lay = real.layout()
    junk = [1] * len(lay.dims)
    for _, s1 in lay.source_sites():
        junk[s1] = 4
    _check_lift(real, junk, f"an eta={eta} depolarization's largest matrix")
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
    return real.map_operators(lambda op, sites: _lift(op, [junk[s] for s in sites], None), sources=tuple(sources))


# Each kind's transformation and the spec fields it takes, in record order.
_KINDS = {
    "dilate": (dilate, ("junk_dim", "seed", "rotate")),
    "conjugate": (conjugate, ()),
    "gauge_phase": (gauge_phase, ("thetas",)),
    "perturb": (perturb, ("epsilon", "seed")),
    "depolarize": (depolarize_sources, ("eta",)),
}
ADVERSARY_KINDS = tuple(_KINDS)
# Fields a record must give: without them a gauge has no phases, and a perturbation or depolarization
# at its default strength would leave the realization unchanged.
_REQUIRED = {"gauge_phase": ("thetas",), "perturb": ("epsilon",), "depolarize": ("eta",)}
