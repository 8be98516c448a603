"""The factored Born kernel against the dense oracle in ``dense_oracle.py``.

Property cases draw random n=2 gates in both schemes and both branches under
every adversary.  Two combinations are not drawn because the dense oracle
needs seconds for each: di under ``dilate`` with junk (di draws
rotation-only dilations, ``junk_dim=1``) and di under ``depolarize`` (drawn
for almost_di only).  They are the cases in which ``born_table`` compresses
each row to its factor on the A sites before the A layer, so one fixed case
of each is checked against the oracle, for non-negative entries, for an
exact file round trip and for the kernel's traced peak memory.  di junk of
every Schmidt rank, where the folded swap maps are compressed most, is
checked against the dense oracle of the junk-free realization.  The
kernel's peak is also bounded on protocol rows, and the memory a returned
table holds by the bytes of its rows.
"""

import tracemalloc

import numpy as np
import pytest
from dense_oracle import dense_born_table
from hypothesis import given, settings
from strategies import junk_of_every_rank, realizations

from gatecert.adversary import AdversarySpec, apply_adversary
from gatecert.certify import protocol_rows
from gatecert.network import ALMOST_DI, DI, born_table, load_table, reference_realization, save_table
from gatecert.primitives import gate

ORACLE_TOL = 1e-15


@settings(max_examples=40)
@given(realizations())
def test_factored_kernel_matches_dense_oracle(real):
    assert born_table(real).max_difference(dense_born_table(real)) <= ORACLE_TOL


def test_matches_dense_oracle_three_subnets():
    for scheme in (ALMOST_DI, DI):
        real = reference_realization(3, gate("toffoli", 3), scheme=scheme)
        assert born_table(real).max_difference(dense_born_table(real)) <= ORACLE_TOL
    real = reference_realization(3, gate("random", 3, seed=8), branch=-1)
    assert born_table(real).max_difference(dense_born_table(real)) <= ORACLE_TOL


def test_matches_dense_oracle_zero_element_repeater(zero_element_repeater):
    """A rank-0 repeater element contributes a zero-padded factor."""
    table = born_table(zero_element_repeater)
    assert table.max_difference(dense_born_table(zero_element_repeater)) <= ORACLE_TOL
    assert all(np.all(table.array(key)[:, :, 1] == 0.0) for key in table.keys())


# di n=2 cases whose rows hold more amplitudes on the rank sites than on the
# A sites, with the kernel's traced peak bound in MiB: the kernel peaks at
# 3.28 and 3.39 MiB, around the 1 MiB block the perp rows hold before the
# joint box (3.3 MiB on both when it held the joint state of 1 MiB; without
# passes after Eve's block it peaked at 7.7 and 5.3 MiB, without the
# compression step at 23.2 and 20.3 MiB).  The bound leaves 0.6 MiB.
COMPRESSED = {
    "dilate": (AdversarySpec("dilate", junk_dim=2, seed=4), 4),
    "depolarize": (AdversarySpec("depolarize", eta=0.05), 4),
}


def _compressed(kind):
    return apply_adversary(reference_realization(2, gate("random", 2, seed=7), scheme=DI), COMPRESSED[kind][0])


@pytest.mark.parametrize("kind", sorted(COMPRESSED))
def test_compressed_rows_match_dense_oracle(kind, tmp_path):
    """The compressed rows agree with the dense oracle, stay non-negative (the
    reader refuses a negative entry) and come back identical from a file."""
    real = _compressed(kind)
    table = born_table(real)
    assert table.max_difference(dense_born_table(real)) <= ORACLE_TOL
    assert all(np.all(table.array(key) >= 0.0) for key in table.keys())
    save_table(table, str(tmp_path / "table.jsonl"))
    loaded = load_table(str(tmp_path / "table.jsonl"))
    assert loaded.keys() == table.keys()
    assert all(np.array_equal(loaded.array(key), table.array(key)) for key in table.keys())


@settings(max_examples=10)
@given(junk_of_every_rank().filter(lambda case: case[1].scheme == DI))
def test_swap_maps_on_junk_of_every_rank(case):
    """di n=2 with junk of dimension 1 to 3 and every Schmidt rank, where
    the triangular factors of the folded swap maps are smallest: the table
    is within ``ORACLE_TOL`` of the dense oracle's table of the junk-free
    realization (local junk changes no probability, and the dense oracle
    of junk of dimension 3 would hold 64 * 6^8 amplitudes per setting),
    and the protocol rows equal the full table's bit for bit."""
    _, real, lifted = case
    full = born_table(lifted)
    assert full.max_difference(dense_born_table(real)) <= ORACLE_TOL
    part = born_table(lifted, rows=protocol_rows(DI, 2))
    assert all(part.array(key).tobytes() == full.array(key).tobytes() for key in part.keys())


def _traced(real, rows=None):
    """The table ``born_table(real, rows=rows)`` and the traced memory still
    held after the call and at its peak, in bytes."""
    tracemalloc.start()
    try:
        table = born_table(real, rows=rows)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return table, held, peak


@pytest.mark.parametrize("kind", sorted(COMPRESSED))
def test_compressed_kernel_peak_memory(kind):
    assert _traced(_compressed(kind))[2] < COMPRESSED[kind][1] * 2**20


def test_protocol_rows_kernel_peak_memory():
    """di n=3 toffoli: the 43 protocol rows hold 1.3 MiB and the kernel
    peaks at 2.19 MiB (2.2 MiB with the joint state, 4.8 MiB when every
    block's probabilities were held at once); the bound leaves 0.3 MiB."""
    real = reference_realization(3, gate("toffoli", 3), scheme=DI)
    assert _traced(real, protocol_rows(DI, 3))[2] < 2.5 * 2**20


def test_returned_rows_hold_only_themselves():
    """The 101 protocol rows of di n=4 (50.5 MiB) are arrays of their own:
    the table keeps no block's probabilities alive (when each row was a
    view into its block, 93 MiB stayed held), and the kernel peaks at
    the rows plus a few MiB."""
    real = reference_realization(4, gate("random", 4, seed=5), scheme=DI)
    table, held, peak = _traced(real, protocol_rows(DI, 4))
    rows = sum(table.array(key).nbytes for key in table.keys())
    assert len(table.keys()) == 101 and held <= 1.1 * rows and peak <= rows + 8 * 2**20
