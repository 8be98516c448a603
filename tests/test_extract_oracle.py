"""The operator-level rows of ``extract.Extraction`` against the lifted
extractor in ``dense_oracle.py``.

``Extraction`` contracts the grouped isometry W on its qubit axis and walks
the GHZ blocks a few rows at a time; the oracle forms ``np.kron(projector,
1_dj)`` and every block.  Property cases draw random n=2 gates in both
schemes and both branches, dilated with junk dimension 1 to 3 or depolarized
(see ``strategies.realizations``), each checked against a random gate, cnot
and the gate extracted from it, and with junk of every Schmidt rank
(``strategies.junk_of_every_rank``), whose verdicts must also equal the
reference's; fixed cases cover n=3, and junk on one source alone, at n=2
and n=3, whose collective has sites of different dimensions, with full
and with partial support.  Every row must be
within ``ROW_TOL`` of the oracle's: the two sum the same products in another
order.  A last test guards the memory of the depolarized n=3 case, which
the lifted extractor needs over 1 GB for.
"""

import tracemalloc

import numpy as np
import pytest
from dense_oracle import kron_extract_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import junk_of_every_rank, realizations

from gatecert.adversary import _lift, depolarize_sources, dilate
from gatecert.certify import _realization_rows, certify, protocol_rows
from gatecert.extract import OP_TOL, Extraction
from gatecert.network import ALMOST_DI, DI, born_table, reference_realization
from gatecert.primitives import gate
from gatecert.tensor import Operator, StateVector

ROW_TOL = 1e-13


def assert_matches_kron_oracle(real, targets):
    for u in targets:
        rows = {row.id: row.lhs for row in _realization_rows(real, u, OP_TOL)[0]}
        assert rows.pop("extract.frames") == 0.0
        want = kron_extract_rows(Extraction(real, u))
        assert rows.keys() == want.keys()
        for key, value in want.items():
            assert abs(rows[key] - value) <= ROW_TOL, key


def own_gate(real):
    return Operator(Extraction(real, None).gate(), (2,) * real.n)


@settings(max_examples=30)
@given(realizations(kinds=("dilate", "depolarize"), junk_dims=st.integers(1, 3)))
def test_extract_rows_match_kron_oracle(real):
    assert_matches_kron_oracle(real, (gate("random", 2, seed=11), gate("cnot", 2), own_gate(real)))


@settings(max_examples=20)
@given(junk_of_every_rank())
def test_junk_of_every_schmidt_rank_certifies_like_the_reference(case):
    """A local isometry of the reference whose junk has any Schmidt rank,
    the product state included, gets the reference's realization-mode
    verdict and branch and its statistics-only report, and its rows match
    the lifted extractor, which forms the support projector densely."""
    u, real, moved = case
    rows = protocol_rows(real.scheme, real.n)
    base, table = born_table(real, rows=rows), born_table(moved, rows=rows)
    want, got = certify(base, u, realization=real), certify(table, u, realization=moved)
    assert (got.verdict, got.branch) == (want.verdict, want.branch) == ("certified", "plus" if real.branch == 1 else "minus")
    want, got = certify(base, u), certify(table, u)
    assert (got.verdict, got.branch) == (want.verdict, want.branch)
    assert [c.id for c in got.checks] == [c.id for c in want.checks]
    assert max(abs(a.lhs - b.lhs) for a, b in zip(got.checks, want.checks)) <= 1e-12
    assert_matches_kron_oracle(moved, (u,))


@pytest.mark.parametrize("scheme, junk", [(ALMOST_DI, 2), (DI, None), (DI, 2)])
def test_extract_rows_match_kron_oracle_three_subnets(scheme, junk):
    u = gate("toffoli", 3)
    real = reference_realization(3, u, scheme=scheme)
    if junk is not None:
        real = dilate(real, junk_dim=junk, seed=5)
    assert_matches_kron_oracle(real, (u, gate("random", 3, seed=8)))


def junk_on_one_source(real, index, chi):
    """``real`` with the junk state of amplitude matrix ``chi`` on source
    ``index`` alone, and every operator on its two sites lifted by the
    identity on the junk there."""
    lay, sources = real.layout(), list(real.sources)
    junk = [1] * len(lay.dims)
    (s0, s1), src = lay.source_sites()[index], sources[index]
    junk[s0], junk[s1] = chi.shape
    amp = np.tensordot(src.amplitudes.reshape(src.dims), chi, axes=0).transpose(0, 2, 1, 3)
    sources[index] = StateVector(amp.reshape(-1), (src.dims[0] * chi.shape[0], src.dims[1] * chi.shape[1]))
    return real.map_operators(lambda op, sites: _lift(op, [junk[s] for s in sites], None), sources=tuple(sources))


@pytest.mark.parametrize("scheme", [ALMOST_DI, DI])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rank", [1, 2], ids=["partial-support", "full-support"])
def test_junk_on_one_source_matches_kron_oracle(scheme, n, rank):
    """Junk of dimension 2 on the source of subnet 2 alone doubles that
    site of Eve's collective, so its sites differ in dimension; junk of
    Schmidt rank 1 leaves the site partial support, rank 2 full."""
    u = gate("toffoli" if n == 3 else "cnot", n)
    chi = np.random.default_rng(7).normal(size=(2, 2, 2)) @ np.array([1.0, 1j])
    if rank == 1:
        chi = np.outer(chi[0], chi[1])
    real = junk_on_one_source(reference_realization(n, u, scheme=scheme), 1, chi / np.linalg.norm(chi))
    ext = Extraction(real, u)
    assert ext.dims == (2, 4, 2)[:n]
    assert (ext.support is None) == (rank == 2)
    assert_matches_kron_oracle(real, (u, gate("random", n, seed=8)))


def test_depolarized_three_subnets_fit_in_memory():
    u = gate("toffoli", 3)
    real = depolarize_sources(reference_realization(3, u), 0.05)
    table = born_table(real)
    tracemalloc.start()
    try:
        report = certify(table, u, realization=real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "not-certified"
    assert peak < 300 * 2**20
