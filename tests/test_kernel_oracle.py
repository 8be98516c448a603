"""The factored Born kernel against the dense oracle in ``dense_oracle.py``.

Property cases draw random n=2 gates in both schemes and both branches under
every adversary.  Two combinations are not drawn because the dense oracle
needs seconds for each: di under ``dilate`` with junk (di draws
rotation-only dilations, ``junk_dim=1``) and di under ``depolarize`` (drawn
for almost_di only).  They are the cases in which ``born_table`` compresses
each row to its factor on the A sites before the A layer, so one fixed case
of each is checked against the oracle, for non-negative entries, for an
exact file round trip and for the kernel's traced peak memory.
"""

import tracemalloc

import numpy as np
import pytest
from dense_oracle import dense_born_table
from hypothesis import given, settings
from strategies import realizations

from gatecert.adversary import AdversarySpec, apply_adversary
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
# A sites, with the kernel's traced peak bound in MiB (the kernel without
# the compression step peaks at 23.2 and 20.3 MiB).
COMPRESSED = {
    "dilate": (AdversarySpec("dilate", junk_dim=2, seed=4), 12),
    "depolarize": (AdversarySpec("depolarize", eta=0.05), 10),
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


@pytest.mark.parametrize("kind", sorted(COMPRESSED))
def test_compressed_kernel_peak_memory(kind):
    real = _compressed(kind)
    tracemalloc.start()
    try:
        born_table(real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COMPRESSED[kind][1] * 2**20
