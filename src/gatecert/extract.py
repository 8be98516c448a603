"""Local frames, swap isometries, and operator-level gate verification.

From a realization that satisfies the protocol's correlation constraints,
each site yields a pair of anticommuting involutions (a local frame).  The
frame defines a swap isometry K mapping the site into qubit (x) junk; the
grouped isometries turn the network's effective measurements into explicit
qubit operators that can be compared entrywise against the ideal ones.

``Extraction(real, u)`` is the entry point: it vets the frames once and
gives the branch, the measurement distances, the unitary certificate, the
block deviation, the extracted gate and its fidelity to ``u``.

The grouped isometry W = (x)_j K_j P_j of a collection is never formed:
each site's K_j P_j acts as K_j Q_j on the support's dimension, the stack
[K_{j,0} Q_j, K_{j,1} Q_j], which ``tensor.apply_layers`` applies to the
rows of a block as the Born kernel applies its measurements, and so are
the support isometries Q_j.  Every operator-level check is a contraction
on W's qubit index: for a qubit state s, B = (<s| (x) 1) W is a (dj, D)
matrix and the pull-back
W^dagger (|s><s| (x) 1) W is B^dagger B, so no operator lifted by the junk
identity, of size (2^N dj)^2, is ever formed.  The rows of the ideal basis
are built in passes of junk rows, the GHZ blocks of W Vbar^dagger
W^dagger, which hold (2^N dj)^2 entries, in passes of rows that W^dagger
is applied to, and the per-outcome pull-backs in passes of outcomes; one
entry budget, ``network.PASS_ENTRIES``, bounds the largest array of every
pass, so the stacks stay in cache and memory stays at one pass whatever N
and the site dimensions are.  Frames are built and vetted one collection
at a time, as stacks over its sites.

One support rule serves both schemes: each site's frame is vetted on the
support P_j of the site's state, and the checks compare on the tensor
product P of the supports of the sites Eve acts on (see ``Extraction``).
The checks run at the support's dimension S, not the site's D: each site
is compressed onto the isometry Q_j of the eigenvectors
``support_projector`` keeps, P_j = Q_j Q_j^dagger, and a residual matrix
is expanded back through Q, site by site, before its entrywise maximum,
so the reported numbers are those of the full sites up to rounding.

Branch convention: a realization built with V = conj(U) ("plus") steers the
joint box toward the complex-conjugated images of the rotated basis states,
so the comparison targets are conj(delta_l); with V = U ("minus") they are
delta_l themselves.  A realization mixing the two signs across sites admits
no consistent target and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator

import numpy as np

from . import network
from .decomp import delta_set
from .network import ALMOST_DI, DI, Realization, check_gate, validate_realization
from .primitives import ghz_basis
from .tensor import Operator, apply_layers, polar_factor

OP_TOL = 1e-8
SUPPORT_TOL = 1e-10
FULL_SUPPORT_TOL = 1e-12  # entrywise distance from the identity at which a site's support is the whole site


def regularize(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame pair (z-like, x-like) from the two observables of each site of
    a stack, (..., d, d): their rotated combinations (a0 -+ a1)/sqrt(2),
    made into exact involutions by taking the unitary part of the polar
    decomposition."""
    pair = polar_factor(np.stack([a0 - a1, a0 + a1]) / np.sqrt(2))
    return pair[0], pair[1]


def mirror_frame(z: np.ndarray, x: np.ndarray, psi: np.ndarray, framed_wing: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame on the opposite wing of a bipartite source, for each frame of a
    stack (..., d, d) and its source's amplitude matrix psi, (..., d0, d1).

    For a frame operator O on wing ``framed_wing``, the partner operator is
    the unitary part of Tr_framed[(O (x) 1) |psi><psi|]; on a maximally
    entangled source this is the transpose of O carried to the other wing.
    """
    ops, psi = np.stack([z, x], axis=-3), psi[..., None, :, :]
    if framed_wing == 0:
        # m[b,d] = sum_{a,a'} op[a,a'] psi[a',b] conj(psi)[a,d]
        m = np.einsum("...aA,...Ab,...ad->...bd", ops, psi, psi.conj())
    else:
        # m[a,c] = sum_{b,b'} op[b,b'] psi[a,b'] conj(psi)[c,b]
        m = np.einsum("...bB,...aB,...cb->...ac", ops, psi, psi.conj())
    # m is Hermitian because op acts on the traced wing only
    pair = polar_factor((m + np.swapaxes(m, -1, -2).conj()) / 2)
    return pair[..., 0, :, :], pair[..., 1, :, :]


def swap_isometry(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Isometry K: site -> qubit (x) site, K = |0>K_0 + |1>K_1 with
    K_0 = (1+z)/2 and K_1 = x(1-z)/2.  K is an exact isometry whenever z
    and x are Hermitian involutions."""
    d = z.shape[0]
    eye = np.eye(d)
    k0 = (eye + z) / 2
    k1 = x @ (eye - z) / 2
    k = np.zeros((2 * d, d), dtype=complex)
    k[:d] = k0
    k[d:] = k1
    return k


def support_projector(rho: np.ndarray) -> np.ndarray:
    """Projector onto the support of each density matrix of ``rho``,
    (..., d, d): the span of the eigenvectors whose eigenvalues exceed
    ``SUPPORT_TOL``.  One eigendecomposition of the stack; the projectors
    are formed rank by rank from the leading eigenvectors, so each equals
    the one its matrix gives alone."""
    vals, vecs = np.linalg.eigh(rho)
    ranks = np.count_nonzero(vals > SUPPORT_TOL, axis=-1)
    out = np.empty_like(vecs)
    for rank in set(ranks.ravel().tolist()):
        # eigh sorts the eigenvalues in ascending order: the kept ones come last
        keep = vecs[ranks == rank][..., vecs.shape[-1] - rank :]
        out[ranks == rank] = keep @ np.swapaxes(keep, -1, -2).conj()
    return out


@dataclass(frozen=True)
class SiteFrame:
    label: str
    z: np.ndarray
    x: np.ndarray
    support: np.ndarray

    def isometry(self) -> np.ndarray:
        return swap_isometry(self.z, self.x)


@dataclass(frozen=True)
class LocalFrames:
    scheme: str
    n: int
    a: tuple[SiteFrame, ...]
    l: tuple[SiteFrame, ...]
    r1: tuple[SiteFrame, ...] | None = None
    r2: tuple[SiteFrame, ...] | None = None


def _site_states(real: Realization) -> dict[int, np.ndarray]:
    """Reduced density matrix of each site, from its source, by site."""
    out: dict[int, np.ndarray] = {}
    for src, (s0, s1) in zip(real.sources, real.layout().source_sites()):
        m = src.amplitudes.reshape(src.dims)
        out[s0], out[s1] = m @ m.conj().T, m.T @ m.conj()
    return out


def extract_all(real: Realization, op_tol: float = OP_TOL) -> LocalFrames:
    """Build and vet local frames for every site of the realization.

    Party 1 and, in the di scheme, the boxes of subnets >= 2 use rotated
    combinations; all partner wings are mirrored through their sources.
    Each collection (A, L, R1, R2, in this order) is built and vetted as
    stacks.  Raises ValueError for the first site, in site order, whose
    frame fails the Hermitian, involution or anticommutation conditions on
    its local support, naming the first failing condition in that order.
    """
    validate_realization(real)
    n, lay, states = real.n, real.layout(), _site_states(real)
    subnets = range(1, n + 1)

    def vetted(name: str, site, pairs: list[tuple]) -> tuple[SiteFrame, ...]:
        return _vetted([name.format(i) for i in subnets], pairs, [states[site(i)] for i in subnets], op_tol)

    def own(name: str, site, observables, rotated: set[int]) -> tuple[SiteFrame, ...]:
        pairs = [(obs[0].entries, obs[1].entries) for obs in observables]
        turned = [i - 1 for i in subnets if i in rotated]
        a0s, a1s = [pairs[k][0] for k in turned], [pairs[k][1] for k in turned]
        for k, pair in zip(turned, _stacked(regularize, a0s, a1s)):
            pairs[k] = pair
        return vetted(name, site, pairs)

    def mirrored(name: str, site, partners: tuple[SiteFrame, ...], sources, framed_wing: int) -> tuple[SiteFrame, ...]:
        psis = [src.amplitudes.reshape(src.dims) for src in sources]
        zs, xs = [f.z for f in partners], [f.x for f in partners]
        pairs = _stacked(partial(mirror_frame, framed_wing=framed_wing), zs, xs, psis)
        return vetted(name, site, pairs)

    # sources 1..N pair A_i with L_i (almost_di) or R_{i,1} (di); sources N+1..2N pair R_{i,2} with L_i
    first, second = real.sources[:n], real.sources[n:]
    a = own("A{}", lay.a_site, real.a_obs, {1})
    if real.scheme == ALMOST_DI:
        return LocalFrames(ALMOST_DI, n, a, mirrored("L{}", lay.l_site, a, first, 0))
    l = own("L{}", lay.l_site, real.b_obs, set(subnets) - {1})
    r1 = mirrored("R{},1", lay.r1_site, a, first, 0)
    r2 = mirrored("R{},2", lay.r2_site, l, second, 1)
    return LocalFrames(DI, n, a, l, r1, r2)


def _stacked(fn, *per_site: list) -> list[tuple]:
    """``fn`` on the per-site arrays of ``per_site`` (lists in site order)
    stacked, one call per combination of shapes, so one call when the sites
    share their dimensions; returns fn's outputs per site, in site order."""
    groups: dict[tuple, list[int]] = {}
    for k, arrays in enumerate(zip(*per_site)):
        groups.setdefault(tuple(a.shape for a in arrays), []).append(k)
    out: list = [None] * len(per_site[0])
    for idx in groups.values():
        stacks = fn(*(np.stack([arrays[k] for k in idx]) for arrays in per_site))
        for j, k in enumerate(idx):
            out[k] = tuple(stack[j] for stack in stacks)
    return out


def _vetted(labels: list[str], pairs: list[tuple], states: list[np.ndarray], op_tol: float) -> tuple[SiteFrame, ...]:
    """The frames of one collection, vetted as stacks: raises for the first
    site, in order, that fails a condition, naming the first it fails of z
    Hermitian, z an involution, x Hermitian, x an involution, and z and x
    anticommuting on the site's support."""
    checked = _stacked(_frame_deviations, [z for z, _ in pairs], [x for _, x in pairs], states)
    for label, (*_, devs) in zip(labels, checked):
        fault = next((c for c, dev in enumerate(devs.tolist()) if dev > op_tol), None)
        if fault == 4:
            raise ValueError(
                f"site {label}: frame operators do not anticommute on the local support "
                f"(deviation {devs[4]:.2e}); the realization does not meet the extraction conditions"
            )
        if fault is not None:
            name, condition = "zx"[fault // 2], ("Hermitian", "an involution")[fault % 2]
            raise ValueError(f"site {label}: {name} frame operator is not {condition}")
    return tuple(SiteFrame(label, z, x, support) for label, (z, x, support, _) in zip(labels, checked))


def _frame_deviations(z: np.ndarray, x: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """For a stack of frames and site states: the frames, the supports and
    each site's worst entrywise deviations from the conditions in
    ``_vetted``'s order."""
    support, eye = support_projector(rho), np.eye(z.shape[-1])

    def worst(m: np.ndarray) -> np.ndarray:
        return np.max(np.abs(m), axis=(-2, -1), initial=0.0)

    devs = []
    for op in (z, x):
        devs += [worst(op - np.swapaxes(op, -1, -2).conj()), worst(op @ op - eye)]
    devs.append(worst(support @ (z @ x + x @ z) @ support))
    return z, x, support, np.stack(devs, axis=-1)


def branch_of(real: Realization, frames: LocalFrames) -> str:
    """The branch: "plus" or "minus" when every party's third observable
    has that sign s_i = sign Re Tr[(Y (x) 1) K A_{i,2} K^dagger] relative to
    the frame's y-direction, "mixed" otherwise."""
    signs = set()
    y = np.array([[0, -1j], [1j, 0]])
    for i in range(1, real.n + 1):
        k = frames.a[i - 1].isometry()
        d = frames.a[i - 1].z.shape[0]
        lifted = (k @ real.a_obs[i - 1][2].entries @ k.conj().T).reshape(2, d, 2, d)
        val = float(np.real(np.einsum("ab,bjaj->", y, lifted)))
        if abs(val) < 1e-10:
            raise ValueError(f"party {i}: third observable has no overlap with the frame's y-direction")
        signs.add("plus" if val > 0 else "minus")
    return signs.pop() if len(signs) == 1 else "mixed"


def _targets(u: Operator, branch: str) -> list[np.ndarray]:
    """Comparison states: conj(delta_l) for the plus branch, delta_l for minus."""
    deltas = delta_set(u)
    if branch == "plus":
        return [d.amplitudes.conj() for d in deltas]
    if branch == "minus":
        return [d.amplitudes.copy() for d in deltas]
    raise ValueError(f"no consistent comparison target for branch {branch!r}")


def _box_elements(real: Realization, v: np.ndarray) -> Iterator[np.ndarray]:
    """The effective box elements v^dagger E_l v for Eve's operation v, (D,
    S), on the support's S dimensions, in order of the outcome l, one stack
    of as many D x D elements as ``network.PASS_ENTRIES`` allows per pass,
    formed as the pass is read."""
    raw = [m.entries for m in real.l_meas] if real.scheme == ALMOST_DI else teleported_elements(real)
    step = max(1, network.PASS_ENTRIES // len(v) ** 2)
    for start in range(0, len(raw), step):
        yield v.conj().T @ np.stack(raw[start : start + step]) @ v


def teleported_elements(real: Realization) -> np.ndarray:
    """Joint-box elements carried onto the R_{*,1} collective (before Eve's
    operation) by projecting every repeater on outcome 0, rescaled by the
    largest eigenvalue across outcomes: the stack (2^N, d, d) of the
    partial sandwiches E_l = <chi| ((x)_i R_{i,0}) (x) M_l |chi> over the
    L-side sources chi, every outcome l in one contraction, which leaves
    both R1 legs open."""
    if real.scheme != DI:
        raise ValueError("teleported elements exist only in the di scheme")
    n, r1_dims, r2_dims, l_dims = real.n, real.r1_dims(), real.r2_dims(), real.l_dims()
    # subscripts of leg i: R1 out i and in n + i (a), R2 2n + i and 3n + i (b), L 4n + i and 5n + i (c); 6n is l
    a_out, a_in, b_out, b_in, c_out, c_in = (list(range(k * n, (k + 1) * n)) for k in range(6))
    operands: list = []
    for i in range(n):
        el = real.repeaters[i][0].entries.reshape(r1_dims[i], r2_dims[i], r1_dims[i], r2_dims[i])
        chi = real.sources[n + i].amplitudes.reshape(r2_dims[i], l_dims[i])
        operands += [el, [a_out[i], b_out[i], a_in[i], b_in[i]]]
        operands += [chi.conj(), [b_out[i], c_out[i]], chi, [b_in[i], c_in[i]]]
    meas = np.stack([m.entries for m in real.l_meas]).reshape((2**n,) + tuple(l_dims) * 2)
    operands += [meas, [6 * n] + c_out + c_in, [6 * n] + a_out + a_in]
    d1 = int(np.prod(r1_dims))
    elements = np.einsum(*operands, optimize=network.einsum_path(operands)).reshape(2**n, d1, d1)
    scale = float(np.max(np.linalg.eigvalsh(elements)[:, -1]))
    if scale <= SUPPORT_TOL:
        raise ValueError("teleported box elements vanish; repeater outcome 0 has no weight")
    return elements / scale


class Extraction:
    """The operator-level checks of one realization against a target gate.

    One support rule serves both schemes: every check compares operators on
    the support of the state of Eve's collective (the L sites in almost_di,
    the R_{*,1} sites in di), the tensor product P of the site supports
    P_j that ``extract_all`` vetted the frames on.  Each site's swap
    isometry acts as K_j P_j, Eve's operation as P V P, the box elements as
    P V^dagger E_l V P, and the junk floor is (x)_j K_{j,0} P_j
    K_{j,0}^dagger.  They are computed on the support, P = Q Q^dagger with
    Q the product of the ``bases`` Q_j: each frame as K_j Q_j, Eve as
    Q^dagger V Q, the box elements as Q^dagger V^dagger E_l V Q, and each
    residual matrix of ``_residuals`` expanded back as Q X Q^dagger before
    its entrywise maximum (``_expanded``, D^2 work per outcome); the GHZ
    blocks of ``block_deviation`` have junk indices only, which Q leaves
    whole.  So a local isometry of the reference certifies with junk in
    any state, product states included.  On full support P is the
    identity and none of this does any arithmetic.  A phase gauge of the
    box changes Eve's operation itself but not the statistics: the
    measurement distances and the unitary certificate pass, while the
    block deviation and the fidelity fail.

    The checks contract W on its qubit index (see the module docstring).
    What they share is computed once, on first use: the local frames, the
    branch, the comparison targets and their coefficients in the ideal
    basis, the support, W's layers, Vbar = Q^dagger V Q, the rows C_i =
    (<phi_i| (x) 1) W Q of the ideal basis, C_i Vbar^dagger and the junk
    floor.  W is
    not formed: a target's row (<target_l| (x) 1) W is a combination of the
    C_i.  Target
    pull-backs and GHZ blocks are formed as stacks in passes of at most
    about ``network.PASS_ENTRIES`` entries and not kept.  ``u`` may be None when
    only the extracted gate is wanted; then every check that compares with
    the target raises ValueError.
    """

    def __init__(self, real: Realization, u: Operator | None, op_tol: float = OP_TOL):
        if u is not None:
            check_gate(u, real.n)
        self.real = real
        self.u = u
        self.frames = extract_all(real, op_tol)
        self.sites = getattr(self.frames, "l" if real.scheme == ALMOST_DI else "r1")
        self.dims = tuple(len(f.z) for f in self.sites)
        # the dimensions the checks run at: each site's support's
        self.cdims = self.dims if self.bases is None else tuple(q.shape[1] for q in self.bases)

    @cached_property
    def branch(self) -> str:
        return branch_of(self.real, self.frames)

    @cached_property
    def targets(self) -> list[np.ndarray]:
        return _targets(self._target(), self.branch)

    def _target(self) -> Operator:
        if self.u is None:
            raise ValueError("this extraction has no target gate (u is None)")
        return self.u

    @cached_property
    def support(self) -> tuple[np.ndarray, ...] | None:
        """The support projectors P_j of the sites of Eve's collective, or
        None when every site has full support."""
        if all(np.max(np.abs(f.support - np.eye(len(f.z)))) < FULL_SUPPORT_TOL for f in self.sites):
            return None
        return tuple(f.support for f in self.sites)

    @cached_property
    def bases(self) -> tuple[np.ndarray, ...] | None:
        """Isometries Q_j with P_j = Q_j Q_j^dagger, (d_j, rank_j): the
        eigenvectors of each support projector of eigenvalue one, or None
        when every site has full support."""
        if self.support is None:
            return None
        return tuple(vecs[:, vals > 0.5] for vals, vecs in map(np.linalg.eigh, self.support))

    @cached_property
    def layers(self) -> list[tuple[np.ndarray, list[int]]]:
        """W as layers of ``tensor.apply_layers``: the swap isometry of each
        site of Eve's collective on its support, K_j Q_j, as the stack
        [K_{j,0} Q_j, K_{j,1} Q_j], last site first.  Applied to the rows of
        a block on the support's sites (``cdims``) they give W Q times each
        row, with rows (q_1..q_N, row) on the whole sites."""
        ks = [f.isometry() for f in self.sites]
        if self.bases is not None:
            ks = [k @ q for k, q in zip(ks, self.bases)]
        return [(ks[j].reshape(2, d, -1), [j]) for j, d in reversed(list(enumerate(self.dims)))]

    @cached_property
    def vbar(self) -> np.ndarray:
        """Eve's operation on the support, Q^dagger V Q: flattened to one
        row, V Q has its row digits on sites 0..N-1, where the Q_j^dagger
        act."""
        eve = self.real.eve.entries
        if self.bases is None:
            return eve
        layers = [(q.conj().T[None], [j]) for j, q in enumerate(self.bases)]
        s = math.prod(self.cdims)
        return apply_layers(self._on_support(eve).reshape(1, -1), self.dims + self.cdims, layers)[0].reshape(s, s)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """coeffs[i, l] = <phi_i|target_l>: the targets in the ideal basis."""
        return ghz_basis(self.real.n).conj().T @ np.array(self.targets).T

    @cached_property
    def basis_rows(self) -> np.ndarray:
        """C_i = (<phi_i| (x) 1) W Q for the ideal basis states, (2^N, dj,
        S), S the support's dimension.  Row j of every (<q| (x) 1) W Q is
        (W Q)^T applied to the unit row e_j, so the layers' transposed
        stacks applied to rows of the identity give W Q's rows (q, j), in
        passes of junk rows."""
        n, d, basis = self.real.n, self.real.eve.dim, ghz_basis(self.real.n).conj()
        s = math.prod(self.cdims)
        transposed = [(stack.swapaxes(1, 2), sites) for stack, sites in self.layers]
        out = np.empty((2**n, d, s), dtype=complex)
        step = max(1, network.PASS_ENTRIES // (2**n * s))
        for start in range(0, d, step):
            w, _ = apply_layers(np.eye(min(step, d - start), d, start), self.dims, transposed)
            out[:, start : start + step] = np.tensordot(basis, w.reshape(2**n, -1, s), axes=(0, 0))
        return out

    @cached_property
    def adjoint_rows(self) -> np.ndarray:
        """C_i Vbar^dagger, the row-blocks of W Vbar^dagger W^dagger before
        the columns are rotated into the ideal basis."""
        return self.basis_rows @ self.vbar.conj().T

    @cached_property
    def _residuals(self) -> tuple[np.ndarray, float]:
        """The measurement distances and the unitary certificate, in passes
        over the outcomes l, as many per pass as ``network.PASS_ENTRIES`` allows.
        A pass stacks the pull-backs W^dagger (|target_l><target_l| (x) 1) W
        as B_l^dagger B_l, with B_l = (<target_l| (x) 1) W = sum_i
        conj(coeffs[i, l]) C_i, uses them and ``_box_elements``'s stack of
        the pass for both residuals and drops them.  Every matrix is on
        the support; each residual is expanded back through Q before its
        entrywise maximum (``_expanded``)."""
        rows = self.basis_rows
        flat = rows.reshape(len(rows), -1)
        dists, worst, start = [], 0.0, 0
        for elements in _box_elements(self.real, self._on_support(self.real.eve.entries)):
            ls = slice(start, start + len(elements))
            start = ls.stop
            # one vector-matrix product per outcome, as each B_l is formed alone
            b = (self.coeffs[:, ls].T.conj()[:, None, :] @ flat).reshape((-1,) + rows.shape[1:])
            g = _adjoint(b) @ b
            dists += np.max(np.abs(self._expanded(elements - g)), axis=1).tolist()
            cv = rows[ls] @ self.vbar
            worst = max(worst, float(np.max(np.abs(self._expanded(_adjoint(cv) @ cv - g)))))
        return np.array(dists), worst

    @cached_property
    def junk_floor(self) -> np.ndarray:
        """The positive junk operator (x)_j K_{j,0} P_j K_{j,0}^dagger, each
        factor (K_{j,0} Q_j)(K_{j,0} Q_j)^dagger."""
        out = np.array([[1.0 + 0j]])
        for stack, _ in reversed(self.layers):
            out = np.kron(out, stack[0] @ stack[0].conj().T)
        return out

    def _on_support(self, op: np.ndarray) -> np.ndarray:
        """op Q for op of shape (m, D), (m, S): a row of op Q is Q^T applied
        to that row of op, as one-element stacks of Q_j^T on the sites, so
        no D x S isometry is formed."""
        if self.bases is None:
            return op
        return apply_layers(op, self.dims, [(q.T[None], [j]) for j, q in enumerate(self.bases)])[0]

    def _expanded(self, ops: np.ndarray) -> np.ndarray:
        """Q X Q^dagger of each matrix X of the stack ``ops``, (k, S, S),
        flattened to (k, D^2): with X flattened to a row, Q_j acts on its
        row digits and conj(Q_j) on its column digits, site by site.  On
        full support, ``ops`` flattened."""
        if self.bases is None:
            return ops.reshape(len(ops), -1)
        n = len(self.bases)
        layers = [(q[None], [j]) for j, q in enumerate(self.bases)]
        layers += [(q.conj()[None], [n + j]) for j, q in enumerate(self.bases)]
        return apply_layers(ops.reshape(len(ops), -1), self.cdims * 2, layers)[0]

    def measurement_distances(self) -> np.ndarray:
        """Entrywise distances between the realized effective box elements
        and the frame pull-backs of the ideal rotated projectors, one per
        outcome l."""
        return self._residuals[0].copy()

    def unitary_certificate(self) -> float:
        """Entrywise distance certifying Eve's operation itself.

        With F_l and G_l the frame pull-backs of the ideal basis projectors
        and of the rotated target projectors, a faithful realization
        satisfies Vbar^dagger F_l Vbar = G_l for every l; the certificate is
        the worst entrywise deviation.  F_l = C_l^dagger C_l, so
        Vbar^dagger F_l Vbar is the Gram matrix of C_l Vbar."""
        return self._residuals[1]

    def block_deviation(self) -> float:
        """Deviation of W Vbar^dagger W^dagger from its ideal block form.

        Grouping the lifted adjoint of Eve's operation into 2^N x 2^N
        junk-sized blocks indexed by ideal basis states, block (i, l) of a
        faithful realization equals <phi_i|target_l> times the junk floor."""
        n, basis, q, coeffs = self.real.n, ghz_basis(self.real.n), self.junk_floor, self.coeffs
        dj, rows = q.shape[0], self.adjoint_rows.reshape(-1, self.adjoint_rows.shape[-1])
        step = max(1, network.PASS_ENTRIES // (2**n * dj))  # rows per pass, each a 2^N x dj slice of blocks
        # on the support a row has S entries, and one product with the C_l^dagger side by side,
        # (S, 2^N dj), gives its blocks
        adjoints = None if self.bases is None else self.basis_rows.conj().transpose(2, 0, 1).reshape(-1, 2**n * dj)

        # one call per pass, so that a pass's blocks are freed before the next pass applies W
        def deviation(start: int) -> float:
            # row (i, a) is row a of C_i Vbar^dagger; r W^dagger = conj(W conj(r)) has rows (q, row), so
            # blocks[l] = those rows of C_i Vbar^dagger C_l^dagger
            r = rows[start : start + step]
            i, a = np.divmod(np.arange(start, start + len(r)), dj)
            if adjoints is None:
                blocks = basis.T @ apply_layers(r.conj(), self.dims, self.layers)[0].conj().reshape(2**n, -1)
                blocks = blocks.reshape(2**n, len(r), dj)
            else:
                blocks = (r @ adjoints).reshape(len(r), 2**n, dj).swapaxes(0, 1)
            blocks -= coeffs[i].T[:, :, None] * q[a]
            return float(np.max(np.abs(blocks)))

        return max(map(deviation, range(0, rows.shape[0], step)))

    def gate(self) -> np.ndarray:
        """Gate read out of the realization through the local frames.

        The junk traces of the blocks of W Vbar^dagger W^dagger give the
        matrix of the adjoint target in the ideal basis; undoing the basis
        change and the branch conjugation yields the gate on qubits,
        unitarized through the polar decomposition."""
        branch = self.branch
        basis = ghz_basis(self.real.n)
        qn = float(np.real(np.trace(self.junk_floor)))
        m = np.tensordot(self.adjoint_rows, self.basis_rows.conj(), axes=([1, 2], [1, 2])) / qn
        # m[i, l] = <phi_i| target_l>: columns are the rotated basis images
        images = basis @ m  # column l = target_l in the computational basis
        # target_l = W_branch(U)^dagger phi_l with W_plus = conj, W_minus = id
        gate_adj = images @ basis.conj().T
        if branch == "plus":
            gate = gate_adj.T
        elif branch == "minus":
            gate = gate_adj.conj().T
        else:
            raise ValueError("realization mixes branch signs across parties")
        return polar_factor(gate)

    def fidelity(self) -> float:
        """Phase-insensitive overlap |Tr(G^dagger U)/2^N|^2 between the
        extracted gate G and the target."""
        overlap = abs(np.trace(self.gate().conj().T @ self._target().entries) / 2**self.real.n) ** 2
        return float(overlap)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()
