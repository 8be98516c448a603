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
from hypothesis import strategies as st

from gatecert.adversary import ADVERSARY_KINDS, conjugate, depolarize_sources, dilate, gauge_phase, perturb
from gatecert.network import ALMOST_DI, DI, SCHEMES, born_table, reference_realization
from gatecert.primitives import gate

ORACLE_TOL = 1e-15
SEEDS = st.integers(0, 2**16)


@st.composite
def realizations(draw):
    kind = draw(st.sampled_from(ADVERSARY_KINDS))
    scheme = ALMOST_DI if kind == "depolarize" else draw(st.sampled_from(SCHEMES))
    branch = draw(st.sampled_from((+1, -1)))
    real = reference_realization(2, gate("random", 2, seed=draw(SEEDS)), branch=branch, scheme=scheme)
    if kind == "dilate":
        junk = 1 if scheme == DI else draw(st.integers(1, 2))
        return dilate(real, junk, seed=draw(SEEDS))
    if kind == "conjugate":
        return conjugate(real)
    if kind == "gauge_phase":
        return gauge_phase(real, draw(st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4)))
    if kind == "perturb":
        return perturb(real, draw(st.floats(0.0, 0.5)), seed=draw(SEEDS))
    return depolarize_sources(real, draw(st.floats(0.0, 1.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
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
