"""Dense linear algebra over multi-site tensor-product spaces.

States and operators carry an explicit tuple of per-site dimensions.  The
computational basis is row-major with site 0 as the most significant digit,
as in ``numpy.kron``: the basis index of ``|b0 b1 ... bk>`` is the
mixed-radix integer with ``b0`` leading.

Everything here is pure: inputs are never mutated and stored arrays are
marked read-only.  ``apply_raw_batch`` is the only code that applies
matrices to sites of the rows of a block; a single operator is a
one-element stack, and ``apply_layers`` applies a list of stacks in turn.
Their callers are the Born kernel (``born_table``, Eve's layer included)
and extraction (the swap isometries W and the support projectors); the
see-saw contracts a coefficient tensor instead and takes its observable
step in closed form, with ``polar_factor``'s tolerance
``DEFAULT_ZERO_TOL``.

``check_size`` is the one size rule: an array of more than
``MAX_AMPLITUDES`` complex entries is refused before it is allocated.
``apply_raw_batch`` asks it of every output, so what it builds is bounded
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_ZERO_TOL = 1e-8
IDENTITY_TOL = 1e-10  # entrywise deviation with which an operator satisfies its identity (Hermitian, unitary, POVM)
# Largest array of complex entries the package builds.  The largest layer of an admitted
# realization is the ``perp`` block of di n=2 dilated by 3, 1.7e6 amplitudes; di n=4's is 2**16.
MAX_AMPLITUDES = 2**22


def check_size(size: int, what: str) -> None:
    """Raise ValueError naming ``what`` if an array of ``size`` complex
    entries would hold more than ``MAX_AMPLITUDES``."""
    if size > MAX_AMPLITUDES:
        gib = size * 16 / 2**30 if size < 2**1000 else math.inf  # beyond, the division overflows a float
        raise ValueError(
            f"{what} would hold {size} amplitudes ({gib:.1f} GiB), "
            f"more than MAX_AMPLITUDES = {MAX_AMPLITUDES}"
        )


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _check_dims(dims: Sequence[int], total: int) -> tuple[int, ...]:
    t = tuple(int(d) for d in dims)
    if not t or any(d < 1 for d in t):
        raise ValueError(f"site dimensions must be positive, got {t}")
    if int(np.prod(t)) != total:
        raise ValueError(f"site dimensions {t} do not multiply out to {total}")
    return t


@dataclass(frozen=True)
class StateVector:
    """Pure state on an ordered list of sites."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = _freeze(np.asarray(self.amplitudes).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _check_dims(self.dims, amps.size))

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Square operator on an ordered list of sites."""

    entries: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "dims", _check_dims(self.dims, m.shape[0]))

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= IDENTITY_TOL)

    def is_unitary(self) -> bool:
        d = self.dim
        return bool(np.max(np.abs(self.entries.conj().T @ self.entries - np.eye(d))) <= IDENTITY_TOL)


def polar_factor(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition of each square matrix of
    the ``(..., d, d)`` array ``m``, each resolved as it would be alone.

    A Hermitian matrix is resolved by eigendecomposition; eigendirections
    with magnitude below ``DEFAULT_ZERO_TOL`` are sent to +1 so the result
    is total.  Any other matrix goes through the SVD.  Each kind is one
    stacked call.  An empty stack gives an empty stack.
    """
    mh = np.swapaxes(m, -1, -2).conj()
    hermitian = np.max(np.abs(m - mh), axis=(-2, -1), initial=0.0) <= IDENTITY_TOL
    if np.all(hermitian):
        vals, vecs = np.linalg.eigh((m + mh) / 2)
        signs = np.where(np.abs(vals) < DEFAULT_ZERO_TOL, 1.0, np.sign(vals))
        return (vecs * signs[..., None, :]) @ np.swapaxes(vecs, -1, -2).conj()
    if not np.any(hermitian):
        u, _, vh = np.linalg.svd(m)
        return u @ vh
    out = np.empty(m.shape, dtype=np.result_type(m, 1.0))
    out[hermitian], out[~hermitian] = polar_factor(m[hermitian]), polar_factor(m[~hermitian])
    return out


# --- raw ndarray plumbing used by the simulator ---------------------------


def apply_raw_batch(block: np.ndarray, dims: Sequence[int], mats: np.ndarray, sites: Sequence[int]) -> np.ndarray:
    """Apply a stack of k factors to the listed sites of every row of ``block``.

    ``mats`` has shape ``(k, rank, d)``, with ``d`` the joint dimension of
    ``sites``; a stack of square operators is the case ``rank == d``.  The
    listed sites collapse to one site of dimension ``rank`` at ``sites[0]``
    and the others to dimension 1, so site indices stay valid.  Returns a
    ``(k * rows, dim')`` block whose row index is ``outcome * rows + row``,
    i.e. the new outcome digit is prepended as the most significant digit.
    When the sites are contiguous and ascending, a square operator leaves
    the flat layout of each row as it was.  An output of more than
    ``MAX_AMPLITUDES`` entries raises ValueError (``check_size``) before
    anything is computed.
    """
    dims = tuple(dims)
    sites = list(sites)
    rows = block.shape[0]
    d = math.prod(dims[s] for s in sites)
    mats = np.asarray(mats).reshape(len(mats), -1, d)
    k, rank = mats.shape[:2]
    if k * rank * (block.size // d) > MAX_AMPLITUDES:
        check_size(k * rank * (block.size // d), "a layer's output")
    # one (k*rank, d) x (d, rows*rest) product with the measured sites leading
    others = [s for s in range(len(dims)) if s not in sites]
    t = block.reshape((rows,) + dims).transpose([s + 1 for s in sites] + [0] + [s + 1 for s in others])
    rest = tuple(dims[s] for s in others)
    out = (mats.reshape(k * rank, d) @ t.reshape(d, -1)).reshape((k, rank, rows) + rest)
    # the rank axis goes where sites[0] was: after the rows and the other sites before it
    before = sum(1 for s in others if s < sites[0])
    order = [0, *range(2, 2 + before + 1), 1, *range(3 + before, out.ndim)]
    return out.transpose(order).reshape(k * rows, -1)


def apply_layers(block: np.ndarray, dims: Sequence[int], layers) -> tuple[np.ndarray, tuple[int, ...]]:
    """Apply each ``(stack, sites)`` of ``layers`` in turn with
    ``apply_raw_batch``; returns the new block and its site dimensions.
    Each layer prepends its outcome digit, so the last layer's is the most
    significant digit of the row index."""
    for stack, sites in layers:
        new_dims = [1 if s in sites else d for s, d in enumerate(dims)]
        new_dims[sites[0]] = stack.shape[1]
        block, dims = apply_raw_batch(block, dims, stack, sites), tuple(new_dims)
    return block, dims
