import re

import numpy as np
import pytest
from dense_oracle import (
    _base_settings,
    _combine,
    _parse_assignment,
    _symbols,
    realization_value,
    termwise_bell_operator,
    termwise_classical_bound,
    termwise_effective_operators,
    termwise_functional_weights,
    termwise_seesaw_max,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatecert.bell import (
    BellFunctional,
    BellTerm,
    _bell_operators,
    _effective_stacks,
    _qubit_sign,
    classical_bound,
    evaluate,
    functional_I,
    functional_K,
    k_sign_bits,
    seesaw_max,
)
from gatecert.network import ALMOST_DI, DI, SCHEMES, born_table, coefficients, reference_realization, row_weights
from gatecert.primitives import SettingSymbol, gate, ghz_bits
from gatecert.tensor import DEFAULT_ZERO_TOL, polar_factor

SQ2 = np.sqrt(2.0)


def test_functional_I_structure():
    f = functional_I((0, 0))
    assert f.n == 2
    assert f.label == "I[00]"
    assert len(f.terms) == 3
    f3 = functional_I((1, 0, 1))
    assert f3.n == 3
    assert len(f3.terms) == 5
    with pytest.raises(ValueError):
        functional_I((0, 2))
    with pytest.raises(ValueError):
        functional_I((0,))


def test_functional_I_coefficients_two_parties():
    """Frozen sign pattern: the first bit controls the first two groups, the
    second bit the last two."""

    def coeff_map(bits):
        out = {}
        for t in functional_I(bits).terms:
            syms = frozenset(s.value for s in t.assignment.values())
            out[syms] = t.coeff
        return out

    t1 = frozenset({"T1", "S1"})
    t0 = frozenset({"T0", "S0"})
    s2 = frozenset({"S2"})
    want = {
        (0, 0): {t1: 1.0, t0: 1.0, s2: -1.0},
        (1, 0): {t1: -1.0, t0: -1.0, s2: -1.0},
        (0, 1): {t1: 1.0, t0: -1.0, s2: 1.0},
        (1, 1): {t1: -1.0, t0: 1.0, s2: 1.0},
    }
    for bits, table in want.items():
        assert coeff_map(bits) == table


def test_k_sign_bits_frozen_map():
    assert [k_sign_bits(k) for k in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]
    with pytest.raises(ValueError):
        k_sign_bits(4)


def test_functional_K_guards():
    f = functional_K(2, (0, 1), 3)
    assert f.n == 3
    assert f.label == "K[2;01]"
    assert len(f.terms) == 2
    with pytest.raises(ValueError):
        functional_K(1, (0, 2), 2)
    with pytest.raises(ValueError):
        functional_K(4, (0, 0), 3)


def test_classical_bound_chsh_oracle():
    """A handwritten CHSH functional must enumerate to exactly 2."""
    terms = []
    for x1, x2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        sym = {0: SettingSymbol.S0, 1: SettingSymbol.S1}
        coeff = -1.0 if (x1, x2) == (1, 1) else 1.0
        terms.append(BellTerm(coeff, {"A1": sym[x1], "A2": sym[x2]}))
    chsh = BellFunctional(2, "chsh", tuple(terms))
    assert np.isclose(classical_bound(chsh), 2.0, atol=1e-12)


def test_classical_bounds_protocol_functionals():
    for l in range(4):
        bits = tuple(int(b) for b in format(l, "02b"))
        assert np.isclose(classical_bound(functional_I(bits)), 1 + SQ2, atol=1e-9)
    assert np.isclose(classical_bound(functional_I((0, 0, 0))), 2 * (1 + SQ2), atol=1e-9)
    for k in range(4):
        assert np.isclose(classical_bound(functional_K(1, k_sign_bits(k), 2)), SQ2, atol=1e-9)
        assert np.isclose(classical_bound(functional_K(2, k_sign_bits(k), 2)), SQ2, atol=1e-9)


def test_quantum_value_at_reference():
    table = born_table(reference_realization(2, gate("cnot", 2)))
    for l in range(4):
        bits = tuple(int(b) for b in format(l, "02b"))
        val = evaluate(functional_I(bits), table, e=0, l=l)
        assert np.isclose(val, 3.0, atol=1e-12)


def test_quantum_value_repeater_functionals():
    table = born_table(reference_realization(2, gate("cz", 2), scheme=DI))
    for i in (1, 2):
        for k in range(4):
            val = evaluate(functional_K(i, k_sign_bits(k), 2), table, e=0, r={i: k})
            assert np.isclose(val, 2.0, atol=1e-12)


def test_table_and_realization_paths_agree():
    """The table path matches an operator-side evaluation of the same
    realization; a realization itself is not accepted."""
    real = reference_realization(2, gate("random", 2, seed=9))
    table = born_table(real)
    for l in (None, 0, 3):
        for e in (0, 1):
            f = functional_I((0, 1))
            a = evaluate(f, table, e=e, l=l)
            b = realization_value(f, real, e=e, l=l)
            assert np.isclose(a, b, atol=1e-12)
    di = reference_realization(2, gate("cnot", 2), scheme=DI)
    dtab = born_table(di)
    f = functional_K(2, (0, 0), 2)
    assert np.isclose(
        evaluate(f, dtab, e=0, r={2: 0}), realization_value(f, di, e=0, r={2: 0}), atol=1e-12
    )
    with pytest.raises(TypeError):
        evaluate(f, di, e=0, r={2: 0})


def test_mismatched_party_count_rejected():
    table = born_table(reference_realization(2, gate("cz", 2)))
    with pytest.raises(ValueError):
        evaluate(functional_I((0, 0, 0)), table)


def test_seesaw_reaches_quantum_maximum_I():
    res = seesaw_max(functional_I((0, 0)), restarts=8, seed=0)
    assert res.value >= 3.0 - 1e-7
    assert res.value <= 3.0 + 1e-9
    assert res.converged


def test_seesaw_reaches_quantum_maximum_K():
    for k in range(4):
        res = seesaw_max(functional_K(1, k_sign_bits(k), 2), restarts=8, seed=1)
        assert res.value >= 2.0 - 1e-7
        assert res.value <= 2.0 + 1e-9


def test_seesaw_other_target_bits():
    res = seesaw_max(functional_I((1, 1)), restarts=6, seed=2)
    assert res.value >= 3.0 - 1e-7


def test_seesaw_history_is_monotone():
    res = seesaw_max(functional_I((0, 1)), restarts=3, seed=4)
    h = np.array(res.history)
    assert np.all(np.diff(h) >= -1e-9)
    assert res.iterations >= 1


@pytest.mark.parametrize("n", [4, 5])
def test_bounds_of_I_beyond_three_parties(n):
    """Both contract one party at a time, so they reach n=5: the classical
    bound (sqrt(2)+1)(n-1), equal to the term-wise enumeration, and the
    quantum maximum 3(n-1)."""
    f = functional_I((0,) * n)
    assert abs(classical_bound(f) - termwise_classical_bound(f)) <= 1e-12
    assert abs(classical_bound(f) - (SQ2 + 1) * (n - 1)) <= 1e-12
    res = seesaw_max(f, restarts=2)
    assert res.converged
    assert abs(res.value - 3 * (n - 1)) <= 1e-9


def test_one_coefficient_tensor_per_functional(monkeypatch):
    """``classical_bound`` and ``seesaw_max`` read the functional's one
    coefficient tensor: it is built once, read-only, with the bits of a
    fresh ``coefficients(terms, None)[1]``."""
    from gatecert import bell

    built = []
    build = bell.coefficients
    monkeypatch.setattr(bell, "coefficients", lambda terms, scen: built.append(scen) or build(terms, scen))
    for func in (functional_I((0, 1, 1)), functional_K(2, (1, 0), 3)):
        built.clear()
        bound = classical_bound(func)
        seesaw_max(func, restarts=2, seed=0)
        assert classical_bound(func) == bound
        assert built == [None]
        assert not func.tensor.flags.writeable
        assert func.tensor.tobytes() == coefficients(func.terms, None)[1].tobytes()


def test_seesaw_refuses_no_restarts():
    for restarts in (0, -3):
        with pytest.raises(ValueError, match=f"^restarts must be at least 1, got {restarts}$"):
            seesaw_max(functional_I((0, 0)), restarts=restarts)


_BOX_SYMBOLS = (SettingSymbol.S0, SettingSymbol.S1, SettingSymbol.T0, SettingSymbol.T1, SettingSymbol.ID)


@st.composite
def functionals(draw):
    """2 to 4 parties among A1, A2, B1, B2 and up to five terms with random
    coefficients; a party missing from a term's assignment is the identity,
    and boxes measure settings 0 and 1 only."""
    labels = draw(st.lists(st.sampled_from(("A1", "A2", "B1", "B2")), min_size=2, max_size=4, unique=True))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        assignment = {}
        for label in labels:
            symbols = _BOX_SYMBOLS if label.startswith("B") else tuple(SettingSymbol)
            sym = draw(st.sampled_from(symbols + (None,)))
            if sym is not None:
                assignment[label] = sym
        terms.append(BellTerm(draw(st.floats(-2.0, 2.0)), assignment))
    functional = BellFunctional(len(labels), "random", tuple(terms))
    assume(_symbols(functional))
    return functional


def _random_observable(rng):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    vecs = np.linalg.eigh(h + h.conj().T)[1]
    return (vecs * np.array([1.0, -1.0])) @ vecs.conj().T


def _conditions(scheme, n):
    """Every input e with no condition, then each joint outcome l and, for
    di, each repeater outcome r_i and all repeaters at 0 with each l."""
    conds = [{"e": e} for e in (0, 1)] + [{"e": 0, "l": l} for l in range(2**n)]
    if scheme == DI:
        conds += [{"e": 1, "r": {i: k}} for i in range(1, n + 1) for k in range(4)]
        conds += [{"e": 0, "l": l, "r": {i: 0 for i in range(1, n + 1)}} for l in range(2**n)]
    return conds


def assert_weights_match_termwise(functional, scheme, n, exact):
    """The contraction lists the term-wise oracle's rows in its order, and
    every weight equals the oracle's bit for bit (``exact``) or within one
    rounding per term after the first: the contraction sums the terms that
    reach an outcome grouped by coefficient slot, the oracle in term order,
    and a zero starts its sums, so a one-term functional matches up to the
    sign of zero.  A joint-outcome condition on a functional with boxes
    raises the oracle's message."""
    for cond in _conditions(scheme, n):
        try:
            want = termwise_functional_weights(functional, scheme, n, **cond)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                row_weights(functional.terms, scheme, n, **cond)
            continue
        got = row_weights(functional.terms, scheme, n, **cond)
        assert list(got) == list(want), cond
        bound = (len(functional.terms) - 1) * np.finfo(float).eps * sum(abs(t.coeff) for t in functional.terms)
        for key, w in want.items():
            assert got[key].shape == w.shape, (cond, key)
            if exact:
                assert got[key].tobytes() == w.tobytes(), (cond, key)
            else:
                assert np.max(np.abs(got[key] - w), initial=0.0) <= bound, (cond, key)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_protocol_weights_equal_termwise_oracle_bit_for_bit(scheme, n):
    """The functionals ``certify`` reads, under every condition, in both
    schemes: the weights of every check row, and so every report digit, are
    those of the term-wise builder.  At n=4, where the contraction path
    reorders the sums most, di reads I[0000] and every K functional."""
    functionals = _protocol_functionals(n)
    if scheme == ALMOST_DI:
        functionals = functionals[: 2**n]
    elif n == 4:
        functionals = functionals[:1] + functionals[2**n :]
    for functional in functionals:
        assert_weights_match_termwise(functional, scheme, n, exact=True)


def test_row_weights_keep_party_order_beyond_nine_parties():
    """At n=10 the parties A2 and A10 keep their order, so each party's
    sign lands on its own outcome axis, as in the term-wise builder."""
    terms = (BellTerm(1.0, {"A2": SettingSymbol.S0}), BellTerm(2.0, {"A10": SettingSymbol.S0}))
    functional = BellFunctional(10, "A2+2A10", terms)
    assert coefficients(functional.terms, None)[0] == ["A2", "A10"]
    got = row_weights(functional.terms, ALMOST_DI, 10, e=0, l=0)
    want = termwise_functional_weights(functional, ALMOST_DI, 10, e=0, l=0)
    assert list(got) == list(want) and all(got[key].tobytes() == w.tobytes() for key, w in want.items())


@settings(max_examples=60)
@given(functionals(), st.integers(0, 2**16))
def test_coefficient_tensor_matches_termwise_oracle(functional, seed):
    """At random observables and a random state, the coefficient tensor's
    Bell operator and every party's effective operators equal the term-wise
    ones, and the classical bounds agree.  On a table, in each scheme whose
    label checks accept the functional, its row weights match the
    term-wise builder's (``assert_weights_match_termwise``)."""
    for scheme in SCHEMES:
        try:
            for term in functional.terms:
                _parse_assignment(term.assignment, 2, scheme)
        except ValueError:
            continue
        assert_weights_match_termwise(functional, scheme, 2, exact=False)
    rng = np.random.default_rng(seed)
    labels, w = coefficients(functional.terms, None)
    base = _base_settings(_symbols(functional))
    assert labels == list(base)
    stacks = np.zeros((len(labels), 4, 2, 2), dtype=complex)
    stacks[:, 3] = np.eye(2)
    obs = {}
    for p, label in enumerate(labels):
        for k in range(3):
            stacks[p, k] = obs[(label, k)] = _random_observable(rng)
    measured = {(label, sym): _combine(obs, label, sym) for label, syms in _symbols(functional).items() for sym in syms}
    bell = termwise_bell_operator(functional, measured, labels, 2)
    assert np.max(np.abs(_bell_operators(w, stacks[None])[0] - bell)) <= 1e-14
    state = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    state = state / np.linalg.norm(state)
    for p, label in enumerate(labels):
        effective = _effective_stacks(w, stacks[None], state[None], p)[0]
        for k, g in termwise_effective_operators(functional, measured, labels, 2, state, label, base[label]).items():
            assert np.max(np.abs(effective[k] - g)) <= 1e-14
    assert abs(classical_bound(functional) - termwise_classical_bound(functional)) <= 1e-12


def _random_functional(rng, n):
    """Six terms with normal coefficients over A1..An, each party's symbol
    drawn from every symbol and the identity; each party measures in the
    first term."""
    labels = [f"A{j}" for j in range(1, n + 1)]
    symbols = list(SettingSymbol)
    measured = [sym for sym in symbols if sym is not SettingSymbol.ID]
    terms = [BellTerm(float(rng.normal()), {label: measured[rng.integers(len(measured))] for label in labels})]
    terms += [
        BellTerm(float(rng.normal()), {label: symbols[rng.integers(len(symbols))] for label in labels})
        for _ in range(5)
    ]
    return BellFunctional(n, "random", tuple(terms))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("which", ["I", "random"])
def test_fold_matches_termwise_oracle_beyond_three_parties(n, which):
    """At 4 and 5 parties, with random observables in every restart of a
    batch and a random state per restart, the Bell operators and every
    party's effective operators of the matmul fold equal the term-wise
    ones to 1e-12."""
    rng = np.random.default_rng(n)
    functional = functional_I((0, 1, 1, 0, 1)[:n]) if which == "I" else _random_functional(rng, n)
    labels, w = coefficients(functional.terms, None)
    base = _base_settings(_symbols(functional))
    assert labels == list(base) and len(labels) == n
    restarts = 3
    stacks = np.zeros((restarts, n, 4, 2, 2), dtype=complex)
    stacks[:, :, 3] = np.eye(2)
    measured, states = [], []
    for r in range(restarts):
        obs = {}
        for p, label in enumerate(labels):
            for k in range(3):
                stacks[r, p, k] = obs[(label, k)] = _random_observable(rng)
        symbols = _symbols(functional).items()
        measured.append({(label, sym): _combine(obs, label, sym) for label, syms in symbols for sym in syms})
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        states.append(state / np.linalg.norm(state))
    states = np.array(states)
    bell = _bell_operators(w, stacks)
    for r in range(restarts):
        assert np.max(np.abs(bell[r] - termwise_bell_operator(functional, measured[r], labels, 2))) <= 1e-12
    for p, label in enumerate(labels):
        effective = _effective_stacks(w, stacks, states, p)
        for r in range(restarts):
            want = termwise_effective_operators(functional, measured[r], labels, 2, states[r], label, base[label])
            for k, g in want.items():
                assert np.max(np.abs(effective[r, k] - g)) <= 1e-12, (label, r, k)


def test_qubit_sign_matches_polar_factor():
    """The closed-form sign equals ``polar_factor`` of the Hermitian part on
    random 2x2 matrices, shifted so that both eigenvalues share a sign, and
    on eigenvalues inside +-DEFAULT_ZERO_TOL (sent to +1), +-I and zero."""
    rng = np.random.default_rng(11)
    g = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    h = (g + g.conj().transpose(0, 2, 1)) / 2
    eye = np.eye(2)
    u = polar_factor(rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2)))
    tiny = DEFAULT_ZERO_TOL / 10
    spectra = [(tiny, -0.7), (-tiny, 0.5), (tiny, -tiny), (0.3, -tiny), (-0.4, -tiny), (2.0, 2.0)]
    near_zero = np.array([v @ np.diag(s) @ v.conj().T for v, s in zip(u, spectra)])
    hermitian = np.concatenate([h, h + 10 * eye, h - 10 * eye, near_zero, [eye, -eye, np.zeros((2, 2))]])
    assert np.max(np.abs(_qubit_sign(hermitian) - polar_factor(hermitian))) <= 1e-12
    assert np.max(np.abs(_qubit_sign(g) - polar_factor(h))) <= 1e-12
    assert np.array_equal(_qubit_sign(np.zeros((2, 2))), eye)
    assert np.array_equal(_qubit_sign(-eye), -eye)
    assert _qubit_sign(g.reshape(4, 10, 2, 2)).shape == (4, 10, 2, 2)


def _protocol_functionals(n):
    return [functional_I(ghz_bits(l, n)) for l in range(2**n)] + [
        functional_K(i, k_sign_bits(k), n) for i in range(1, n + 1) for k in range(4)
    ]


# the functionals of ``gatecert bounds --n 3``
BOUNDS_N3 = [functional_I(ghz_bits(l, 3)) for l in range(8)] + [functional_K(1, k_sign_bits(k), 3) for k in range(4)]


@pytest.mark.parametrize(
    "funcs, restarts, seeds",
    [
        (_protocol_functionals(2), 2, (0,)),
        (_protocol_functionals(3), 2, (0,)),
        (BOUNDS_N3, 8, (0, 1)),
        ([functional_I((0,) * 4)], 2, (0,)),
    ],
    ids=["2", "3", "bounds-n3", "4"],
)
def test_seesaw_matches_termwise_oracle(funcs, restarts, seeds):
    """The same random draws give the term-wise see-saw's returned restart:
    its iteration count, convergence and, to 1e-12, its value and every
    value of its history.  Restarts tied to within ``SEESAW_STALL_TOL``
    return the first of them in both, whatever rounding does."""
    for f in funcs:
        for seed in seeds:
            got = seesaw_max(f, restarts=restarts, seed=seed)
            want = termwise_seesaw_max(f, restarts=restarts, seed=seed)
            assert (got.iterations, got.converged) == (want.iterations, want.converged), (f.label, seed)
            assert abs(got.value - want.value) <= 1e-12, (f.label, seed)
            assert np.max(np.abs(np.subtract(got.history, want.history))) <= 1e-12, (f.label, seed)
