"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from gatecert.adversary import ADVERSARY_KINDS, _lift, conjugate, depolarize_sources, dilate, gauge_phase, perturb
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
    """``real`` with the junk state of amplitude matrix ``junk``, (j0, j1),
    shared by the two wings of every source, j0 on the first and j1 on the
    second, and every operator lifted by the identity on the junk of its
    sites; with ``seed``, each site is then conjugated by its own
    Haar-random unitary."""
    j0, j1 = junk.shape
    lay = real.layout()
    lift = [1] * len(lay.dims)
    for s0, s1 in lay.source_sites():
        lift[s0], lift[s1] = j0, j1
    sources = tuple(
        StateVector(np.einsum("ab,jk->ajbk", src.amplitudes.reshape(src.dims), junk), (src.dims[0] * j0, src.dims[1] * j1))
        for src in real.sources
    )
    lifted = real.map_operators(lambda op, sites: _lift(op, [lift[s] for s in sites], None), sources=sources)
    return lifted if seed is None else dilate(lifted, 1, seed=seed)


@st.composite
def junk_of_every_rank(draw):
    """A random n=2 gate, its reference realization in either scheme and
    branch, and that realization with junk of dimensions j0 <= j1 <= 3 on
    the two wings of every source and any Schmidt rank up to j0, with site
    rotations or without.  Where j1 > j0 every second wing, and so every L
    wing, is wider than its partner.  The Schmidt bases are the
    computational ones (rank 1 is the product state |0>|0>) or
    Haar-random."""
    scheme, branch = draw(st.sampled_from(SCHEMES)), draw(st.sampled_from((+1, -1)))
    u = gate("random", 2, seed=draw(SEEDS))
    real = reference_realization(2, u, branch=branch, scheme=scheme)
    # (junk dimensions, Schmidt rank), the ranks below full first, then the wider second wings
    j0, j1, rank = draw(st.sampled_from(
        ((2, 2, 1), (3, 3, 1), (3, 3, 2), (1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 3, 2))
    ))
    rng = np.random.default_rng(draw(SEEDS))
    junk = np.zeros((j0, j1), dtype=complex)
    junk[range(rank), range(rank)] = rng.uniform(0.1, 1.0, rank)
    if draw(st.booleans()):
        junk = haar_unitary(j0, rng) @ junk @ haar_unitary(j1, rng).T
    return u, real, with_junk(real, junk / np.linalg.norm(junk), draw(st.one_of(st.none(), SEEDS)))
