"""Local frames, swap isometries, and operator-level gate verification.

From a realization that satisfies the protocol's correlation constraints,
each site yields a pair of anticommuting involutions (a local frame).  The
frame defines a swap isometry K mapping the site into qubit (x) junk; the
grouped isometries turn the network's effective measurements into explicit
qubit operators that can be compared entrywise against the ideal ones.

``Extraction(real, u)`` is the entry point: it vets the frames once and
gives the branch, the measurement distances, the unitary certificate, the
block deviation, the extracted gate and its fidelity to ``u``.

The grouped isometry W of a collection is held as (2^N, dj, D): qubit
index, junk index, input.  Every operator-level check is a contraction on
its first axis: for a qubit state s, B = (<s| (x) 1) W is a (dj, D) matrix
and the pull-back W^dagger (|s><s| (x) 1) W is B^dagger B, so no operator
lifted by the junk identity, of size (2^N dj)^2, is ever formed.  The GHZ
blocks of W Vbar^dagger W^dagger, which hold (2^N dj)^2 entries, are walked
a few rows at a time with W^dagger applied site by site.

Branch convention: a realization built with V = conj(U) ("plus") steers the
joint box toward the complex-conjugated images of the rotated basis states,
so the comparison targets are conj(delta_l); with V = U ("minus") they are
delta_l themselves.  A realization mixing the two signs across sites admits
no consistent target and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .decomp import delta_set
from .network import ALMOST_DI, DI, Realization, validate_realization
from .primitives import ghz_basis
from .tensor import Operator, StateVector, polar_unitary

OP_TOL = 1e-8
SUPPORT_TOL = 1e-10


def regularize(a0: Operator, a1: Operator, tilde: bool) -> tuple[np.ndarray, np.ndarray]:
    """Frame pair (z-like, x-like) from a site's two observables.

    With ``tilde`` the observables enter through their rotated combinations
    (a0 -+ a1)/sqrt(2), made into exact involutions by taking the unitary
    part of the polar decomposition; otherwise they are used as they are.
    """
    if not tilde:
        return a0.entries.copy(), a1.entries.copy()
    z = polar_unitary(Operator((a0.entries - a1.entries) / np.sqrt(2), a0.dims))
    x = polar_unitary(Operator((a0.entries + a1.entries) / np.sqrt(2), a0.dims))
    return z.entries, x.entries


def mirror_frame(z: np.ndarray, x: np.ndarray, source: StateVector, framed_wing: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame on the opposite wing of a bipartite source.

    For a frame operator O on wing ``framed_wing``, the partner operator is
    the unitary part of Tr_framed[(O (x) 1) |psi><psi|]; on a maximally
    entangled source this is the transpose of O carried to the other wing.
    """
    d0, d1 = source.dims
    psi = source.amplitudes.reshape(d0, d1)
    out = []
    for op in (z, x):
        if framed_wing == 0:
            # m[b,d] = sum_{a,a'} op[a,a'] psi[a',b] conj(psi)[a,d]
            m = np.einsum("aA,Ab,ad->bd", op, psi, psi.conj())
        else:
            # m[a,c] = sum_{b,b'} op[b,b'] psi[a,b'] conj(psi)[c,b]
            m = np.einsum("bB,aB,cb->ac", op, psi, psi.conj())
        # m is Hermitian because op acts on the traced wing only
        out.append(polar_unitary(Operator((m + m.conj().T) / 2, (m.shape[0],))).entries)
    return out[0], out[1]


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


def support_projector(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    keep = vecs[:, vals > SUPPORT_TOL]
    return keep @ keep.conj().T


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

    def grouped(self, collection: str) -> np.ndarray:
        frames = getattr(self, collection)
        if frames is None:
            raise ValueError(f"no {collection!r} frames in the {self.scheme} scheme")
        return grouped_isometry([f.isometry() for f in frames])

    def junk_floor(self, collection: str) -> np.ndarray:
        """Positive junk-side operator (x)_j K_{j,0} K_{j,0}^dagger."""
        frames = getattr(self, collection)
        out = np.array([[1.0 + 0j]])
        for f in frames:
            k0 = (np.eye(f.z.shape[0]) + f.z) / 2
            out = np.kron(out, k0 @ k0.conj().T)
        return out


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
    Raises ValueError when a frame fails the involution or anticommutation
    conditions on its local support.
    """
    validate_realization(real)
    n, lay, states = real.n, real.layout(), _site_states(real)
    subnets = range(1, n + 1)

    def frame(label: str, site: int, pair: tuple[np.ndarray, np.ndarray]) -> SiteFrame:
        (z, x), support = pair, support_projector(states[site])
        eye = np.eye(z.shape[0])
        for name, op in (("z", z), ("x", x)):
            if np.max(np.abs(op - op.conj().T)) > op_tol:
                raise ValueError(f"site {label}: {name} frame operator is not Hermitian")
            if np.max(np.abs(op @ op - eye)) > op_tol:
                raise ValueError(f"site {label}: {name} frame operator is not an involution")
        worst = float(np.max(np.abs(support @ (z @ x + x @ z) @ support)))
        if worst > op_tol:
            raise ValueError(
                f"site {label}: frame operators do not anticommute on the local support "
                f"(deviation {worst:.2e}); the realization does not meet the extraction conditions"
            )
        return SiteFrame(label, z, x, support)

    owner = {s: (k, wing) for k, pair in enumerate(lay.source_sites()) for wing, s in enumerate(pair)}

    def mirrored(label: str, site: int, partner: SiteFrame) -> SiteFrame:
        k, wing = owner[site]
        return frame(label, site, mirror_frame(partner.z, partner.x, real.sources[k], 1 - wing))

    a = tuple(frame(f"A{i}", lay.a_site(i), regularize(*real.a_obs[i - 1][:2], tilde=(i == 1))) for i in subnets)
    if real.scheme == ALMOST_DI:
        l = tuple(mirrored(f"L{i}", lay.l_site(i), a[i - 1]) for i in subnets)
        return LocalFrames(ALMOST_DI, n, a, l)
    l = tuple(frame(f"L{i}", lay.l_site(i), regularize(*real.b_obs[i - 1], tilde=(i != 1))) for i in subnets)
    r1 = tuple(mirrored(f"R{i},1", lay.r1_site(i), a[i - 1]) for i in subnets)
    r2 = tuple(mirrored(f"R{i},2", lay.r2_site(i), l[i - 1]) for i in subnets)
    return LocalFrames(DI, n, a, l, r1, r2)


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


def _box_elements(real: Realization) -> list[np.ndarray]:
    raw = [m.entries for m in real.l_meas] if real.scheme == ALMOST_DI else teleported_elements(real)
    v = real.eve.entries
    return [v.conj().T @ el @ v for el in raw]


def teleported_elements(real: Realization) -> list[np.ndarray]:
    """Joint-box elements carried onto the R_{*,1} collective (before Eve's
    operation) by projecting every repeater on outcome 0, rescaled by the
    largest eigenvalue across outcomes."""
    if real.scheme != DI:
        raise ValueError("teleported elements exist only in the di scheme")
    elements = [_teleported_element(real, l) for l in range(2**real.n)]
    scale = max(float(np.linalg.eigvalsh(el)[-1]) for el in elements)
    if scale <= SUPPORT_TOL:
        raise ValueError("teleported box elements vanish; repeater outcome 0 has no weight")
    return [el / scale for el in elements]


def _collective_state(real: Realization) -> np.ndarray:
    """Reduced state of the collective Eve acts on: the second wing of each
    of the first N sources (L sites for almost_di, R_{*,1} sites for di)."""
    states = _site_states(real)
    return reduce(np.kron, [states[s] for s in real.layout().v_sites()], np.array([[1.0 + 0j]]))


def _teleported_element(real: Realization, l: int) -> np.ndarray:
    """Partial sandwich E_l = <chi| ((x)_i R_{i,0}) (x) M_l |chi> over the
    L-side sources chi, leaving both R1 legs open (an operator on the R1
    collective, before Eve's operation)."""
    n = real.n
    r1_dims = real.r1_dims()
    r2_dims = real.r2_dims()
    l_dims = real.l_dims()
    # subscripts of leg i: R1 out i and in n + i (a), R2 2n + i and 3n + i (b), L 4n + i and 5n + i (c)
    a_out, a_in, b_out, b_in, c_out, c_in = (list(range(k * n, (k + 1) * n)) for k in range(6))
    operands: list = []
    for i in range(n):
        el = real.repeaters[i][0].entries
        operands += [el.reshape(r1_dims[i], r2_dims[i], r1_dims[i], r2_dims[i]), [a_out[i], b_out[i], a_in[i], b_in[i]]]
    operands += [real.l_meas[l].entries.reshape(tuple(l_dims) + tuple(l_dims)), c_out + c_in]
    chi_full = None
    for i in range(n):
        m = real.sources[n + i].amplitudes.reshape(r2_dims[i], l_dims[i])
        chi_full = m if chi_full is None else np.tensordot(chi_full, m, axes=0)
    # chi_full legs: (b_1, c_1, b_2, c_2, ...)
    operands += [chi_full.conj(), [k for i in range(n) for k in (b_out[i], c_out[i])]]
    operands += [chi_full, [k for i in range(n) for k in (b_in[i], c_in[i])]]
    out = np.einsum(*operands, a_out + a_in, optimize=True)
    d1 = int(np.prod(r1_dims))
    return out.reshape(d1, d1)


class Extraction:
    """The operator-level checks of one realization against a target gate.

    The checks contract W on its qubit axis (see the module docstring).
    What they share is computed once, on first use: the local frames, the
    branch, the comparison targets and their coefficients in the ideal
    basis, the support of the collective state, Eve's operation Vbar
    restricted to that support, the rows C_i = (<phi_i| (x) 1) W of the
    ideal basis, C_i Vbar^dagger and the junk floor.  W is not kept: a
    target's row (<target_l| (x) 1) W is a combination of the C_i.  Target
    pull-backs, box elements and GHZ blocks are formed one outcome, or a few
    rows, at a time and not kept.  ``u`` may be None when only the
    extracted gate is wanted.
    """

    def __init__(self, real: Realization, u: Operator | None, op_tol: float = OP_TOL):
        self.real = real
        self.u = u
        self.frames = extract_all(real, op_tol)
        self.collection = "l" if real.scheme == ALMOST_DI else "r1"

    @cached_property
    def branch(self) -> str:
        return branch_of(self.real, self.frames)

    @cached_property
    def targets(self) -> list[np.ndarray]:
        return _targets(self.u, self.branch)

    @cached_property
    def support(self) -> np.ndarray:
        return support_projector(_collective_state(self.real))

    @cached_property
    def vbar(self) -> np.ndarray:
        if self.real.scheme == ALMOST_DI:
            return self.real.eve.entries
        return _restricted_eve(self.real, self.support)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """coeffs[i, l] = <phi_i|target_l>: the targets in the ideal basis."""
        return ghz_basis(self.real.n).conj().T @ np.array(self.targets).T

    @cached_property
    def basis_rows(self) -> np.ndarray:
        """C_i = (<phi_i| (x) 1) W for the ideal basis states, (2^N, dj, D)."""
        w = self.frames.grouped(self.collection)
        return np.tensordot(ghz_basis(self.real.n).conj(), w.reshape(2**self.real.n, -1, w.shape[1]), axes=(0, 0))

    @cached_property
    def adjoint_rows(self) -> np.ndarray:
        """C_i Vbar^dagger, the row-blocks of W Vbar^dagger W^dagger before
        the columns are rotated into the ideal basis."""
        return self.basis_rows @ self.vbar.conj().T

    @cached_property
    def _residuals(self) -> tuple[np.ndarray, float]:
        """The measurement distances and the unitary certificate, in one pass
        over the outcomes l.  Each pass forms the pull-back
        W^dagger (|target_l><target_l| (x) 1) W as B_l^dagger B_l, with
        B_l = (<target_l| (x) 1) W = sum_i conj(coeffs[i, l]) C_i, uses it
        for both residuals and drops it."""
        dists, worst = [], 0.0
        for el, c, coeffs in zip(_box_elements(self.real), self.basis_rows, self.coeffs.T):
            b = np.tensordot(coeffs.conj(), self.basis_rows, axes=(0, 0))
            g = self._on_support(b.conj().T @ b)
            dists.append(float(np.max(np.abs(self._on_support(el) - g))))
            cv = c @ self.vbar
            worst = max(worst, float(np.max(np.abs(cv.conj().T @ cv - g))))
        return np.array(dists), worst

    @cached_property
    def junk_floor(self) -> np.ndarray:
        return self.frames.junk_floor(self.collection)

    def _on_support(self, op: np.ndarray) -> np.ndarray:
        return op if self.real.scheme == ALMOST_DI else self.support @ op @ self.support

    def measurement_distances(self) -> np.ndarray:
        """Entrywise distances between the realized effective box elements
        and the frame pull-backs of the ideal rotated projectors, one per
        outcome l."""
        return self._residuals[0].copy()

    def unitary_certificate(self) -> float:
        """Entrywise distance certifying Eve's operation itself.

        With F_l and G_l the frame pull-backs of the ideal basis projectors
        and of the rotated target projectors, a faithful realization
        satisfies V^dagger F_l V = G_l for every l; the certificate is the
        worst entrywise deviation (Eve restricted to the collective's
        support).  F_l = C_l^dagger C_l, so V^dagger F_l V is the Gram
        matrix of C_l V."""
        return self._residuals[1]

    def block_deviation(self) -> float:
        """Deviation of W Vbar^dagger W^dagger from its ideal block form.

        Grouping the lifted adjoint of Eve's operation into 2^N x 2^N
        junk-sized blocks indexed by ideal basis states, block (i, l) of a
        faithful realization equals <phi_i|target_l> times one fixed
        positive junk operator (x)_j K_{j,0} K_{j,0}^dagger."""
        basis, q = ghz_basis(self.real.n), self.junk_floor
        ks = [f.isometry() for f in getattr(self.frames, self.collection)]
        step = -(-q.shape[0] // 2**self.real.n)  # rows per pass: about one dj x dj block's worth of entries
        worst = 0.0
        for r, row_coeffs in zip(self.adjoint_rows, self.coeffs):
            for a in range(0, q.shape[0], step):
                # blocks[:, l] = rows a.. of C_i Vbar^dagger C_l^dagger
                blocks = basis.T @ _times_w_adjoint(r[a : a + step], ks)
                blocks -= row_coeffs[:, None] * q[a : a + step, None, :]
                worst = max(worst, float(np.max(np.abs(blocks))))
        return worst

    def gate(self) -> np.ndarray:
        """Gate read out of the realization through the local frames.

        The junk traces of the blocks of W Vbar^dagger W^dagger give the
        matrix of the adjoint target in the ideal basis; undoing the basis
        change and the branch conjugation yields the gate on qubits,
        unitarized through the polar decomposition."""
        branch = self.branch
        n = self.real.n
        basis = ghz_basis(n)
        qn = float(np.real(np.trace(self.junk_floor)))
        m = np.einsum("iad,lad->il", self.adjoint_rows, self.basis_rows.conj(), optimize=True) / qn
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
        return polar_unitary(Operator(gate, (2,) * n)).entries

    def fidelity(self) -> float:
        """Phase-insensitive overlap |Tr(G^dagger U)/2^N|^2 between the
        extracted gate G and the target."""
        overlap = abs(np.trace(self.gate().conj().T @ self.u.entries) / 2**self.real.n) ** 2
        return float(overlap)


def _times_w_adjoint(r: np.ndarray, ks: list[np.ndarray]) -> np.ndarray:
    """r W^dagger for r of shape (m, D), with W the grouped isometry of the
    per-site isometries ``ks``: each site's K^dagger acts on its own leg,
    last site first, so W^dagger is never formed.  Returns (m, 2^N, dj)."""
    m, n = r.shape[0], len(ks)
    dims = [k.shape[1] for k in ks]
    t, after = r, 1
    for k, d in zip(ks[::-1], dims[::-1]):
        t = np.matmul(k.conj(), t.reshape(-1, d, after))
        after *= 2 * d
    # legs (m, q_1, j_1, ..., q_N, j_N), regrouped as in grouped_isometry
    t = t.reshape([m] + [x for d in dims for x in (2, d)])
    t = t.transpose([0] + [1 + 2 * s for s in range(n)] + [2 + 2 * s for s in range(n)])
    return t.reshape(m, 2**n, -1)


def _restricted_eve(real: Realization, support: np.ndarray) -> np.ndarray:
    """Eve's operation compressed to the support of the collective state.
    On full support this is just V."""
    eye = np.eye(support.shape[0])
    if np.max(np.abs(support - eye)) < 1e-12:
        return real.eve.entries
    return support @ real.eve.entries @ support
