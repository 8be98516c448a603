"""Hypothesis strategies shared by the property tests."""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from gatecert.adversary import ADVERSARY_KINDS, conjugate, depolarize_sources, dilate, gauge_phase, perturb
from gatecert.network import ALMOST_DI, DI, SCHEMES, reference_realization
from gatecert.primitives import gate, haar_unitary
from gatecert.tensor import StateVector

SEEDS = st.integers(0, 2**16)


def _transform(draw, real, kind, junk_dims):
    """``real`` under adversary ``kind``; a dilation draws its junk dimension from ``junk_dims``."""
    if kind == "dilate":
        return dilate(real, draw(junk_dims), seed=draw(SEEDS))
    if kind == "conjugate":
        return conjugate(real)
    if kind == "gauge_phase":
        return gauge_phase(real, draw(st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4)))
    if kind == "perturb":
        return perturb(real, draw(st.floats(0.0, 0.5)), seed=draw(SEEDS))
    return depolarize_sources(real, draw(st.floats(0.0, 1.0)))


@st.composite
def realizations(draw, kinds=ADVERSARY_KINDS, junk_dims=None):
    """Random n=2 gate in either scheme and branch under any adversary of
    ``kinds``.  By default depolarize is drawn for almost_di only and di
    dilations carry no junk, which keeps each example cheap for the dense
    Born oracle; ``junk_dims`` lifts both limits and gives every dilation's
    junk dimension."""
    kind = draw(st.sampled_from(kinds))
    scheme = ALMOST_DI if kind == "depolarize" and junk_dims is None else draw(st.sampled_from(SCHEMES))
    branch = draw(st.sampled_from((+1, -1)))
    real = reference_realization(2, gate("random", 2, seed=draw(SEEDS)), branch=branch, scheme=scheme)
    if junk_dims is None:
        junk_dims = st.just(1) if scheme == DI else st.integers(1, 2)
    return _transform(draw, real, kind, junk_dims)


@st.composite
def hidden_side_pairs(draw):
    """A random n=2 gate, its reference realization in either scheme and
    branch, and that realization changed on the hidden side only: dilated
    with junk dimension 2, conjugated, or re-phased in the GHZ basis."""
    scheme = draw(st.sampled_from(SCHEMES))
    branch = draw(st.sampled_from((+1, -1)))
    u = gate("random", 2, seed=draw(SEEDS))
    real = reference_realization(2, u, branch=branch, scheme=scheme)
    kind = draw(st.sampled_from(("dilate", "conjugate", "gauge_phase")))
    return u, real, _transform(draw, real, kind, st.just(2))


def with_junk(real, junk, seed=None):
    """``real`` with the junk state of amplitude matrix ``junk``, (j, j),
    shared by the two wings of every source and every operator lifted by
    the identity on it; with ``seed``, each site is then conjugated by its
    own Haar-random unitary."""
    j = len(junk)
    sources = tuple(
        StateVector(np.einsum("ab,jk->ajbk", src.amplitudes.reshape(src.dims), junk), (src.dims[0] * j, src.dims[1] * j))
        for src in real.sources
    )
    lifted = replace(dilate(real, j, rotate=False), sources=sources)
    return lifted if seed is None else dilate(lifted, 1, seed=seed)


@st.composite
def junk_of_every_rank(draw):
    """A random n=2 gate, its reference realization in either scheme and
    branch, and that realization with junk of dimension 1 to 3 and any
    Schmidt rank up to it, with site rotations or without.  The Schmidt
    bases are the computational ones (rank 1 is the product state |0>|0>)
    or Haar-random."""
    scheme, branch = draw(st.sampled_from(SCHEMES)), draw(st.sampled_from((+1, -1)))
    u = gate("random", 2, seed=draw(SEEDS))
    real = reference_realization(2, u, branch=branch, scheme=scheme)
    # (junk dimension, Schmidt rank), the ranks below full first
    j, rank = draw(st.sampled_from(((2, 1), (3, 1), (3, 2), (1, 1), (2, 2), (3, 3))))
    rng = np.random.default_rng(draw(SEEDS))
    junk = np.diag(np.r_[rng.uniform(0.1, 1.0, rank), np.zeros(j - rank)]).astype(complex)
    if draw(st.booleans()):
        junk = haar_unitary(j, rng) @ junk @ haar_unitary(j, rng).T
    return u, real, with_junk(real, junk / np.linalg.norm(junk), draw(st.one_of(st.none(), SEEDS)))
