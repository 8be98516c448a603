"""The factored Born kernel against the dense oracle in ``dense_oracle.py``.

Property cases draw random n=2 gates in both schemes and both branches under
every adversary.  Two combinations are not drawn because the dense oracle
needs seconds for each: di under ``dilate`` with junk (di draws
rotation-only dilations, ``junk_dim=1``) and di under ``depolarize`` (drawn
for almost_di only).
"""

import numpy as np
from dense_oracle import dense_born_table
from hypothesis import given, settings
from strategies import realizations

from gatecert.network import ALMOST_DI, DI, born_table, reference_realization
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
