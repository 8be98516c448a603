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
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .extract import teleported_elements
from .network import ALMOST_DI, DI, Realization
from .primitives import haar_unitary, pauli
from .tensor import Operator, StateVector

ADVERSARY_KINDS = ("dilate", "conjugate", "gauge_phase", "perturb", "depolarize")


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

    def to_record(self) -> dict:
        rec: dict = {"kind": self.kind}
        if self.kind == "dilate":
            rec.update(junk_dim=self.junk_dim, seed=self.seed, rotate=self.rotate)
        elif self.kind == "gauge_phase":
            rec["thetas"] = list(self.thetas or ())
        elif self.kind == "perturb":
            rec.update(epsilon=self.epsilon, seed=self.seed)
        elif self.kind == "depolarize":
            rec["eta"] = self.eta
        return rec

    @staticmethod
    def from_record(rec: dict) -> "AdversarySpec":
        if not isinstance(rec, dict):
            raise ValueError("adversary record must be a mapping")
        kind = rec.get("kind")
        if kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {kind!r}")

        def field(name, convert, default):
            if name not in rec:
                return default
            try:
                return convert(rec[name])
            except (TypeError, ValueError):
                raise ValueError(f"adversary field {name!r} has malformed value {rec[name]!r}") from None

        return AdversarySpec(
            kind=kind,
            junk_dim=field("junk_dim", operator.index, 2),
            seed=field("seed", operator.index, 0),
            rotate=field("rotate", _json_bool, True),
            thetas=field("thetas", lambda ts: tuple(float(t) for t in ts), None),
            epsilon=field("epsilon", float, 0.0),
            eta=field("eta", float, 0.0),
        )


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def load_adversary(path: str) -> AdversarySpec:
    with open(path) as fh:
        return AdversarySpec.from_record(json.load(fh))


def save_adversary(spec: AdversarySpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(spec.to_record(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def apply_adversary(real: Realization, spec: AdversarySpec) -> Realization:
    if spec.kind == "dilate":
        return dilate(real, spec.junk_dim, seed=spec.seed, rotate=spec.rotate)
    if spec.kind == "conjugate":
        return conjugate(real)
    if spec.kind == "gauge_phase":
        thetas = spec.thetas
        if thetas is None:
            raise ValueError("gauge_phase adversary needs per-outcome phases")
        return gauge_phase(real, thetas)
    if spec.kind == "perturb":
        return perturb(real, spec.epsilon, seed=spec.seed)
    if spec.kind == "depolarize":
        return depolarize_sources(real, spec.eta)
    raise ValueError(f"unknown adversary kind {spec.kind!r}")


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


def dilate(real: Realization, junk_dim: int, seed: int = 0, rotate: bool = True) -> Realization:
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


def conjugate(real: Realization) -> Realization:
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


def gauge_phase(real: Realization, thetas) -> Realization:
    """Multiply Eve's operation on the left by P = sum_l e^{i theta_l} E_l,
    the phase gauge of the joint box (di: of the teleported box, extended
    by the identity off its support).  Every probability row the protocol
    consumes is invariant."""
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != 2**real.n:
        raise ValueError(f"need {2**real.n} phases, got {len(thetas)}")
    if real.scheme == ALMOST_DI:
        dl = int(np.prod(real.l_dims()))
        p = np.zeros((dl, dl), dtype=complex)
        for th, m in zip(thetas, real.l_meas):
            p += np.exp(1j * th) * m.entries
        dims = real.l_dims()
    else:
        els = teleported_elements(real)
        d1 = els[0].shape[0]
        total = np.zeros((d1, d1), dtype=complex)
        p = np.zeros((d1, d1), dtype=complex)
        for th, el in zip(thetas, els):
            p += np.exp(1j * th) * el
            total += el
        p += np.eye(d1) - total
        dims = real.r1_dims()
    dev = np.max(np.abs(p @ p.conj().T - np.eye(p.shape[0])))
    if dev > 1e-8:
        raise ValueError(
            f"phase gauge is not unitary (deviation {dev:.2e}); the box elements "
            "are not an orthogonal projective family"
        )
    eve = Operator(p @ real.eve.entries, real.eve.dims)
    return Realization(
        real.scheme, real.n, real.sources, real.a_obs, real.l_meas, eve, real.branch,
        real.b_obs, real.repeaters,
    )


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
    eve = Operator(real.eve.entries @ rot, real.eve.dims)
    return Realization(
        real.scheme, real.n, real.sources, real.a_obs, real.l_meas, eve, real.branch,
        real.b_obs, real.repeaters,
    )


def depolarize_sources(real: Realization, eta: float) -> Realization:
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