"""The check matrix of ``certify`` against the loop certifier in ``dense_oracle.py``.

Property cases draw random n=2 gates in both schemes and both branches under
every adversary (see ``strategies.realizations``), certified against other
gates, and hidden-side changes of a realization certified against its own
gate; fixed cases cover n=3 and a zero-probability conditioning event.  Every
table-level row must carry the same id, rhs, tol, detail and verdict, with
lhs within ``LHS_TOL``: the check matrix sums the same products in another
order.
"""

from itertools import product

import numpy as np
import pytest
from dense_oracle import einsum_fsum_weights, loop_f_coeffs, loop_table_rows
from hypothesis import given, settings
from strategies import hidden_side_pairs, realizations

from gatecert.certify import certify, check_matrix
from gatecert.decomp import delta_set, f_coeffs
from gatecert.network import ALMOST_DI, DI, born_table, reference_realization
from gatecert.primitives import gate
from gatecert.tensor import StateVector

LHS_TOL = 1e-13


def assert_matches_loop_certifier(table, u, tol=1e-9):
    report = certify(table, u, tol=tol)
    rows, branch = loop_table_rows(table, u, tol)
    assert report.branch == branch
    assert [c.id for c in report.checks] == [r.id for r in rows]
    for got, want in zip(report.checks, rows):
        assert (got.rhs, got.tol, got.detail, got.passed) == (want.rhs, want.tol, want.detail, want.passed), got.id
        assert abs(got.lhs - want.lhs) <= LHS_TOL, got.id


@settings(max_examples=30)
@given(realizations())
def test_check_matrix_matches_loop_certifier(real):
    u = gate("random", 2, seed=11)
    table = born_table(real)
    for target in (u, gate("cnot", 2)):
        assert_matches_loop_certifier(table, target)


@settings(max_examples=15)
@given(hidden_side_pairs())
def test_check_matrix_matches_loop_certifier_on_the_true_gate(case):
    u, real, moved = case
    for r in (real, moved):
        assert_matches_loop_certifier(born_table(r), u)


@pytest.mark.parametrize(
    "scheme, name, branch",
    [(ALMOST_DI, "toffoli", +1), (ALMOST_DI, "random", -1), (DI, "toffoli", +1)],
)
def test_check_matrix_matches_loop_certifier_three_subnets(scheme, name, branch):
    u = gate(name, 3, seed=8)
    table = born_table(reference_realization(3, u, branch=branch, scheme=scheme))
    assert_matches_loop_certifier(table, u)
    assert_matches_loop_certifier(table, gate("random", 3, seed=2))


def test_check_matrix_matches_loop_certifier_on_zero_event(zero_element_repeater):
    assert_matches_loop_certifier(born_table(zero_element_repeater), gate("cnot", 2))


def test_check_matrix_reads_only_weighted_rows():
    """Each check weighs a handful of rows; certify reads only those."""
    u = gate("toffoli", 3)
    table = born_table(reference_realization(3, u, scheme=DI))
    checks = check_matrix(DI, 3, u)
    weighted = {key for check in checks for key in check.weights}
    assert len(weighted) < len(table.entries) // 10
    assert all(np.any(w != 0) for check in checks for w in check.weights.values())
    assert all(not w.flags.writeable for check in checks for w in check.weights.values())


@pytest.mark.parametrize("scheme", [ALMOST_DI, DI])
@pytest.mark.parametrize("n", [2, 3])
def test_fsum_weights_equal_single_einsum_bit_for_bit(scheme, n):
    """Each f-sum check reads the rows x, ascending, on which the former
    single einsum of the f tensor (``einsum_fsum_weights``) is not all zero
    at its joint outcome l, with that einsum's weights bit for bit."""
    for seed in range(3):
        u = gate("random", n, seed=seed)
        want = einsum_fsum_weights(u, n)
        fsums = [check for check in check_matrix(scheme, n, u) if ".fsum[" in check.id]
        assert len(fsums) == 2**n
        for l, check in enumerate(fsums):
            assert [key[0] for key in check.weights] == [x for x in product(range(3), repeat=n) if want[l][x].any()]
            for key, w in check.weights.items():
                assert w.tobytes() == want[l][key[0]].tobytes(), (check.id, key)


@pytest.mark.parametrize("scheme, n, first, second", [(ALMOST_DI, 3, "toffoli", "random"), (DI, 2, "cnot", "cz")])
def test_second_gate_builds_no_row_weights(monkeypatch, scheme, n, first, second):
    """After one ``certify`` of a (scheme, n), certifying another gate builds
    no row weights: the gate-independent checks, the f-sum frame and every
    correlator read come from the memos."""
    from gatecert import network

    table = born_table(reference_realization(n, gate(first, n), scheme=scheme))
    certify(table, gate(first, n))
    built = []
    build = network._build_row_weights

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(network, "_build_row_weights", counted)
    assert certify(table, gate(second, n, seed=3)).verdict == "not-certified"
    assert built == []


def test_f_tensor_is_one_stacked_call(monkeypatch):
    """``check_matrix`` computes the f tensor of all 2^n states in one
    stacked contraction."""
    from gatecert import decomp

    stacks = []
    contract_stack = decomp._pauli_coefficients

    def counted(amps, n):
        stacks.append(amps.shape)
        return contract_stack(amps, n)

    monkeypatch.setattr(decomp, "_pauli_coefficients", counted)
    for scheme, n in ((ALMOST_DI, 2), (DI, 3)):
        stacks.clear()
        check_matrix(scheme, n, gate("random", n, seed=n))
        assert stacks == [(2**n, 2**n)]


def test_f_coeffs_match_loop_oracle_three_qubits():
    rng = np.random.default_rng(5)
    for _ in range(6):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        delta = StateVector(v / np.linalg.norm(v), (2, 2, 2))
        assert np.max(np.abs(f_coeffs(delta) - loop_f_coeffs(delta))) <= 1e-15
    for delta in delta_set(gate("random", 3, seed=4)):
        assert np.max(np.abs(f_coeffs(delta) - loop_f_coeffs(delta))) <= 1e-15
