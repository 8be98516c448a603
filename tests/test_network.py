"""Scenario bookkeeping, Born-rule tables, conditioning, serialization.

The Born-rule oracle below rebuilds the network state and all measurement
projectors densely (numpy.kron plus the tensor primitives already covered
by test_tensor) and compares every probability entry.
"""

import io
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from dense_oracle import apply_raw, dumps_write_table, listed_assemble_state, steered_state, termwise_correlator_weights
from hypothesis import strategies as st
from strategies import realizations
from table_files import local_table, move_mass, read_with_change, table_lines, with_change

from gatecert import tensor
from gatecert.adversary import ADVERSARY_KINDS, AdversarySpec, apply_adversary, depolarize_sources, dilate
from gatecert.certify import certify, check_matrix, protocol_rows
from gatecert.network import (
    ALMOST_DI,
    DI,
    PERP,
    SCHEMES,
    ProbabilityTable,
    ScenarioSpec,
    born_table,
    expectation,
    load_table,
    read_table,
    reference_realization,
    row_weights,
    save_table,
    validate_realization,
    write_table,
)
from gatecert.primitives import SettingSymbol, gate, ghz_bits, ghz_state, ref_b_observable, ref_observable
from gatecert.tensor import Operator, StateVector

I2 = np.eye(2, dtype=complex)


def proj(obs, outcome):
    return (I2 + (-1.0) ** outcome * obs) / 2


def test_scenario_settings_and_shapes():
    sa = ScenarioSpec(ALMOST_DI, 2)
    keys = list(sa.settings())
    assert len(keys) == 9 * 2
    assert sa.outcome_shape() == (2, 2, 4)
    sd = ScenarioSpec(DI, 2)
    keys = list(sd.settings())
    assert len(keys) == 9 * 2 * 5  # 4 binary y vectors plus perp
    assert sd.outcome_shape() == (2, 2, 4, 4, 4)
    s3 = ScenarioSpec(ALMOST_DI, 3)
    assert len(list(s3.settings())) == 27 * 2
    assert s3.outcome_shape() == (2, 2, 2, 8)
    with pytest.raises(ValueError):
        ScenarioSpec("other", 2)
    with pytest.raises(ValueError):
        ScenarioSpec(ALMOST_DI, 1)


def test_reference_realizations_validate():
    for scheme in (ALMOST_DI, DI):
        for branch in (+1, -1):
            real = reference_realization(2, gate("cnot", 2), branch=branch, scheme=scheme)
            validate_realization(real)
    validate_realization(reference_realization(3, gate("toffoli", 3)))


def test_validate_rejects_broken_parts():
    real = reference_realization(2, gate("cz", 2))
    bad_source = StateVector(np.array([1.0, 0, 0, 1.0]), (2, 2))  # unnormalized
    with pytest.raises(ValueError):
        validate_realization(replace(real, sources=(bad_source,) + real.sources[1:]))
    skew = Operator(np.array([[0, 1], [0, 0]], dtype=complex), (2,))
    with pytest.raises(ValueError):
        validate_realization(replace(real, a_obs=((skew,) + real.a_obs[0][1:],) + real.a_obs[1:]))
    not_povm = (real.l_meas[0],) * 4
    with pytest.raises(ValueError):
        validate_realization(replace(real, l_meas=not_povm))
    shrink = Operator(np.eye(4, dtype=complex) * 0.5, (2, 2))
    with pytest.raises(ValueError):
        validate_realization(replace(real, eve=shrink))


def test_realization_is_validated_once(monkeypatch):
    """``born_table`` then realization-mode ``certify`` check each POVM of a
    realization once; a copy of it is checked again."""
    from gatecert import network
    from gatecert.certify import certify

    checked = []
    check_povm = network._check_povm

    def counted(elements, dim, what):
        checked.append(what)
        return check_povm(elements, dim, what)

    monkeypatch.setattr(network, "_check_povm", counted)
    u = gate("cnot", 2)
    for scheme, povms in ((ALMOST_DI, ["joint box"]), (DI, ["joint box", "repeater 1", "repeater 2"])):
        real = reference_realization(2, u, scheme=scheme)
        checked.clear()
        assert certify(born_table(real), u, realization=real).verdict == "certified"
        assert checked == povms
        validate_realization(replace(real, branch=real.branch))
        assert checked == povms * 2


def test_assemble_state_site_order_almost():
    """Sites come out as A1 .. AN, L1 .. LN."""
    # distinguishable sources: phi+ on subnet 1, (|01>+|10>)/sqrt2 on subnet 2
    real = reference_realization(2, gate("identity", 2))
    odd = ghz_state((0, 1))
    real = replace(real, sources=(real.sources[0], odd))
    psi = listed_assemble_state(real)
    t = np.kron(real.sources[0].amplitudes, odd.amplitudes).reshape(2, 2, 2, 2)
    want = t.transpose(0, 2, 1, 3).reshape(-1)  # (A1 L1 A2 L2) -> (A1 A2 L1 L2)
    assert np.allclose(psi.amplitudes, want)


def test_assemble_state_site_order_di():
    real = reference_realization(2, gate("identity", 2), scheme=DI)
    vecs = [ghz_state((0, 0)), ghz_state((0, 1)), ghz_state((1, 0)), ghz_state((1, 1))]
    real = replace(real, sources=tuple(vecs))
    psi = listed_assemble_state(real)
    # listed order (A1 R11)(A2 R21)(R12 L1)(R22 L2) -> canonical
    t = np.kron(np.kron(vecs[0].amplitudes, vecs[1].amplitudes),
                np.kron(vecs[2].amplitudes, vecs[3].amplitudes)).reshape((2,) * 8)
    want = t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(-1)
    assert np.allclose(psi.amplitudes, want)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_site_map_covers_every_site_and_operator(scheme):
    """``source_sites`` names each canonical site once, and ``map_operators``
    hands every operator to the function once, with the sites whose
    dimensions it has."""
    for n in (2, 3):
        ref = reference_realization(n, gate("random", n, seed=n), scheme=scheme)
        for real in (ref, dilate(ref, junk_dim=2, seed=1), depolarize_sources(ref, 0.1)):
            lay = real.layout()
            assert sorted(s for pair in lay.source_sites() for s in pair) == list(range(len(lay.dims)))
            ops = [*(op for t in real.a_obs for op in t), *real.l_meas, real.eve]
            if scheme == DI:
                ops += [op for t in real.b_obs for op in t] + [op for t in real.repeaters for op in t]
            visited = []

            def visit(op, sites):
                assert op.dims == tuple(lay.dims[s] for s in sites)
                visited.append(id(op))
                return op

            same = real.map_operators(visit)
            assert sorted(visited) == sorted(map(id, ops)) and len(visited) == len(ops)
            assert (same.a_obs, same.l_meas, same.b_obs, same.repeaters) == (
                real.a_obs, real.l_meas, real.b_obs, real.repeaters)
            assert same.eve is real.eve


def dense_almost_probs(real, x, e):
    """Independent Born-rule evaluation for one almost_di settings row."""
    n = real.n
    psi = listed_assemble_state(real).amplitudes
    dims = (2,) * (2 * n)
    if e:
        psi = apply_raw(psi, dims, real.eve.entries, list(range(n, 2 * n)))
    out = np.zeros((2,) * n + (2**n,))
    for a in np.ndindex(*(2,) * n):
        chi = psi
        for i in range(n):
            p_i = proj(real.a_obs[i][x[i]].entries, a[i])
            chi = apply_raw(chi, dims, p_i, [i])
        for l in range(2**n):
            m = apply_raw(chi, dims, real.l_meas[l].entries, list(range(n, 2 * n)))
            out[a + (l,)] = np.real(np.vdot(chi, m))
    return out


def test_born_table_against_dense_oracle_almost():
    real = reference_realization(2, gate("cnot", 2))
    table = born_table(real)
    for x in ((0, 0), (2, 1), (1, 2)):
        for e in (0, 1):
            assert np.allclose(table.array((x, e)), dense_almost_probs(real, x, e), atol=1e-13)


def test_born_table_against_dense_oracle_di():
    real = reference_realization(2, gate("cz", 2), scheme=DI)
    table = born_table(real)
    n = 2
    psi0 = listed_assemble_state(real).amplitudes
    dims = (2,) * 8
    bells = [np.outer(ghz_state(ghz_bits(r, 2)).amplitudes, ghz_state(ghz_bits(r, 2)).amplitudes.conj()) for r in range(4)]
    for x, e, y in (((0, 0), 0, PERP), ((1, 2), 1, PERP), ((0, 0), 0, (0, 1)), ((2, 1), 1, (1, 0))):
        psi = psi0
        if e:
            psi = apply_raw(psi, dims, real.eve.entries, [2, 3])  # R11 R21
        got = table.array((x, e, y))
        want = np.zeros_like(got)
        for a in np.ndindex(2, 2):
            chi = psi
            for i in range(n):
                chi = apply_raw(chi, dims, proj(real.a_obs[i][x[i]].entries, a[i]), [i])
            for r in np.ndindex(4, 4):
                m = chi
                m = apply_raw(m, dims, bells[r[0]], [2, 4])  # (R11 R12)
                m = apply_raw(m, dims, bells[r[1]], [3, 5])  # (R21 R22)
                if y == PERP:
                    for l in range(2**n):
                        f = apply_raw(m, dims, real.l_meas[l].entries, [6, 7])
                        want[a + r + (l,)] = np.real(np.vdot(m, f))
                else:
                    for b in np.ndindex(2, 2):
                        f = m
                        f = apply_raw(f, dims, proj(ref_b_observable(1, y[0]).entries, b[0]), [6])
                        f = apply_raw(f, dims, proj(ref_b_observable(2, y[1]).entries, b[1]), [7])
                        want[a + r + (b[0] * 2 + b[1],)] = np.real(np.vdot(f, f))
        assert np.allclose(got, want, atol=1e-13)


def test_rows_normalized_and_nonnegative():
    for scheme in (ALMOST_DI, DI):
        table = born_table(reference_realization(2, gate("random", 2, seed=1), scheme=scheme))
        for key in table.keys():
            arr = table.array(key)
            assert arr.min() >= -1e-14
            assert np.isclose(arr.sum(), 1.0, atol=1e-12)


def test_no_signaling_between_parties():
    """Party 1's marginal cannot depend on party 2's setting, and vice versa."""
    table = born_table(reference_realization(2, gate("random", 2, seed=2)))
    for e in (0, 1):
        for x1 in range(3):
            marg = [table.array(((x1, x2), e)).sum(axis=(1, 2)) for x2 in range(3)]
            assert np.allclose(marg[0], marg[1], atol=1e-13)
            assert np.allclose(marg[0], marg[2], atol=1e-13)
        for x2 in range(3):
            marg = [table.array(((x1, x2), e)).sum(axis=(0, 2)) for x1 in range(3)]
            assert np.allclose(marg[0], marg[1], atol=1e-13)
            assert np.allclose(marg[0], marg[2], atol=1e-13)


def test_joint_box_marginal_uniform():
    for n, u in ((2, gate("swap", 2)), (3, gate("toffoli", 3))):
        table = born_table(reference_realization(n, u))
        x0 = (0,) * n
        for l in range(2**n):
            assert np.isclose(table.signed_sum((x0, 0), l=l), 2.0**-n, atol=1e-13)


def test_expectation_matches_manual_signed_sum():
    table = born_table(reference_realization(2, gate("cnot", 2)))
    arr = table.array(((2, 1), 0))
    manual = 0.0
    for a1 in range(2):
        for a2 in range(2):
            manual += (-1.0) ** (a1 + a2) * arr[a1, a2].sum()
    got = expectation(table, {"A1": SettingSymbol.S2, "A2": SettingSymbol.S1}, e=0)
    assert np.isclose(got, manual, atol=1e-13)


def test_expectation_tilde_expansion():
    """T0 must equal the rotated combination of party 1's first two settings."""
    table = born_table(reference_realization(2, gate("random", 2, seed=3)))
    t0 = expectation(table, {"A1": SettingSymbol.T0, "A2": SettingSymbol.S0}, e=1)
    parts = []
    for x1 in (0, 1):
        arr = table.array(((x1, 0), 1))
        val = 0.0
        for a1 in range(2):
            for a2 in range(2):
                val += (-1.0) ** (a1 + a2) * arr[a1, a2].sum()
        parts.append(val)
    assert np.isclose(t0, (parts[0] - parts[1]) / np.sqrt(2), atol=1e-13)


def test_expectation_conditioning_and_renormalization():
    real = reference_realization(2, gate("cz", 2))
    table = born_table(real)
    # conditioned on l=0 the reference satisfies <Z Z> = +1 in the plus branch
    val = expectation(table, {"A1": SettingSymbol.T0, "A2": SettingSymbol.S0}, e=0, l=0)
    assert np.isclose(val, 1.0, atol=1e-12)
    joint = expectation(
        table, {"A1": SettingSymbol.T0, "A2": SettingSymbol.S0}, e=0, l=0, renormalize=False
    )
    assert np.isclose(joint, 0.25, atol=1e-12)


def test_expectation_rejects_symbols_a_party_lacks():
    """Rotated combinations exist for A1 only, and boxes have two settings."""
    almost = born_table(reference_realization(2, gate("cz", 2)))
    di = born_table(reference_realization(2, gate("cz", 2), scheme=DI))
    with pytest.raises(ValueError, match="A1 only"):
        expectation(almost, {"A2": SettingSymbol.T0}, e=0)
    with pytest.raises(ValueError, match="two settings"):
        expectation(di, {"B1": SettingSymbol.S2}, e=0)
    with pytest.raises(ValueError, match="only in the di scheme"):
        expectation(almost, {"B1": SettingSymbol.S0}, e=0)


@pytest.mark.parametrize(
    "scheme, assignment, l, reason",
    [
        (DI, {"C1": SettingSymbol.S0}, None, "unknown party label 'C1'"),
        (DI, {"A3": SettingSymbol.S0}, None, "party 'A3' out of range for n=2"),
        (DI, {"A1": "S0"}, None, "setting for 'A1' must be a SettingSymbol"),
        (DI, {"A1": SettingSymbol.S0, "A2": SettingSymbol.T1}, None, "rotated combinations are defined for party A1 only"),
        (ALMOST_DI, {"B1": SettingSymbol.S0}, None, "box parties exist only in the di scheme"),
        (DI, {"B2": SettingSymbol.T2}, None, "boxes have two settings; S2/T2 are not available"),
        (DI, {"A1": SettingSymbol.S0, "B1": SettingSymbol.ID}, 0, "cannot combine box observables with a joint-outcome condition"),
    ],
    ids=["label", "range", "symbol", "rotated", "box-scheme", "box-setting", "box-with-l"],
)
def test_row_weights_refuse_labels_with_the_termwise_message(scheme, assignment, l, reason):
    """The label checks of the coefficient tensor raise the term-wise
    builder's messages, byte for byte."""
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        row_weights(((1.0, assignment),), scheme, 2, e=0, l=l)
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        termwise_correlator_weights(scheme, 2, assignment, e=0, l=l)


def _one_term():
    return ((1.0, {"A1": SettingSymbol.S1, "A2": SettingSymbol.S2}),)


def test_row_weights_memo_returns_one_read_only_mapping():
    """Equal terms built from fresh dicts give the identical mapping, whose
    arrays are read-only; a key compares types, so e=True is still refused
    after e=1 was built."""
    first = row_weights(_one_term(), DI, 2, e=0, r={1: 0})
    assert row_weights(list(_one_term()), DI, 2, e=0, r={1: 0}) is first
    assert row_weights(_one_term(), DI, 2, e=0, r={1: 1}) is not first
    assert first and all(not w.flags.writeable for w in first.values())
    with pytest.raises(TypeError):
        first[next(iter(first))] = None
    row_weights(_one_term(), DI, 2, e=1)
    with pytest.raises(ValueError, match="lie outside the scenario"):
        row_weights(_one_term(), DI, 2, e=True)


def test_row_weights_refusal_is_not_memoized(monkeypatch):
    """A refused label raises on the first call and again on the second,
    each time from the builder."""
    from gatecert import network

    built = []
    build = network._build_row_weights

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(network, "_build_row_weights", counted)
    for calls in (1, 2):
        with pytest.raises(ValueError, match="^party 'A3' out of range for n=2$"):
            row_weights(((1.0, {"A3": SettingSymbol.S0}),), DI, 2, e=0)
        assert len(built) == calls


def test_expectation_rejects_zero_weight_condition():
    real = reference_realization(2, gate("identity", 2), scheme=DI)
    table = born_table(real)
    entries = {key: np.zeros_like(table.array(key)) for key in table.keys()}
    dead = ProbabilityTable(DI, 2, entries)
    with pytest.raises(ValueError):
        expectation(dead, {"A1": SettingSymbol.S0}, e=0, l=0)


def test_di_r0_conditioning_reproduces_almost_di_state():
    """Projecting both repeaters on outcome 0 swaps the entanglement out to
    the wings with no correction, leaving the almost_di network state."""
    u = gate("random", 2, seed=5)
    di = reference_realization(2, u, scheme=DI)
    steered = steered_state(di, e=0, r={1: 0, 2: 0})
    almost = listed_assemble_state(reference_realization(2, u)).amplitudes
    assert np.isclose(np.trace(steered).real, 1.0, atol=1e-12)
    assert np.isclose(np.vdot(almost, steered @ almost).real, 1.0, atol=1e-12)


def test_condition_probability_values():
    """Probabilities of conditioning events, read from the table rows."""
    di = born_table(reference_realization(2, gate("cnot", 2), scheme=DI))
    x0 = (0, 0)
    assert np.isclose(di.signed_sum((x0, 0, PERP), r={1: 0}), 0.25, atol=1e-13)
    assert np.isclose(di.signed_sum((x0, 0, PERP), r={1: 0, 2: 0}), 1 / 16, atol=1e-13)
    almost = born_table(reference_realization(2, gate("cnot", 2)))
    for l in range(4):
        assert np.isclose(almost.signed_sum((x0, 0), l=l), 0.25, atol=1e-13)


@pytest.mark.parametrize(
    "condition, named",
    [
        ({"l": -1}, "joint outcome l=-1"),
        ({"l": 4}, "joint outcome l=4"),
        ({"l": True}, "joint outcome l=True"),
        ({"r": {1: -1}}, "repeater outcome r_1=-1"),
        ({"r": {1: 4}}, "repeater outcome r_1=4"),
    ],
)
def test_conditions_outside_the_outcomes_are_refused(condition, named):
    """Every reader refuses, naming the value, a joint outcome outside
    0..2^n-1 or a repeater outcome outside 0..3, where an index would count
    from the end, run past it or read a bool as an outcome."""
    from gatecert.bell import evaluate, functional_I

    table = born_table(reference_realization(2, gate("cnot", 2), scheme=DI))
    readers = (
        lambda: table.signed_sum(((0, 0), 0, PERP), **condition),
        lambda: expectation(table, {"A1": SettingSymbol.S0}, e=0, **condition),
        lambda: evaluate(functional_I((0, 0)), table, renormalize=False, **condition),
        lambda: row_weights(((1.0, {"A1": SettingSymbol.S0}),), DI, 2, e=0, **condition),
    )
    for read in readers:
        with pytest.raises(ValueError, match=f"^{re.escape(named)} is not an integer in 0..[34]$"):
            read()


@pytest.mark.parametrize("n", [3.0, 2.0, True, "2", None])
def test_scenario_refuses_a_non_integer_n(n):
    """A float, bool or other non-integer n is refused where the scenario is
    built, not by a TypeError later."""
    for build in (lambda: ScenarioSpec(ALMOST_DI, n), lambda: ProbabilityTable(ALMOST_DI, n, {})):
        with pytest.raises(ValueError, match=f"^{re.escape(f'n={n!r} is not an integer')}$"):
            build()
    assert ScenarioSpec(DI, np.int64(2)).outcome_shape() == (2, 2, 4, 4, 4)


def test_table_roundtrip_identical():
    for scheme in (ALMOST_DI, DI):
        table = born_table(reference_realization(2, gate("cz", 2), scheme=scheme))
        buf = io.StringIO()
        write_table(table, buf)
        text = buf.getvalue()
        back = read_table(io.StringIO(text))
        assert back.scheme == table.scheme
        assert back.n == table.n
        assert table.max_difference(back) == 0.0
        buf2 = io.StringIO()
        write_table(back, buf2)
        assert buf2.getvalue() == text


def test_table_file_roundtrip(tmp_path):
    table = born_table(reference_realization(2, gate("cnot", 2)))
    path = tmp_path / "table.jsonl"
    save_table(table, str(path))
    again = load_table(str(path))
    assert table.max_difference(again) == 0.0
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"kind": "probability_table", "n": 2, "scheme": "almost_di"}


def test_read_table_rejects_garbage():
    with pytest.raises(ValueError):
        read_table(io.StringIO(""))
    with pytest.raises(ValueError):
        read_table(io.StringIO('{"kind": "something_else"}\n'))


def test_missing_settings_row_raises():
    table = born_table(reference_realization(2, gate("cz", 2)))
    partial = ProbabilityTable(ALMOST_DI, 2, {((0, 0), 0): table.array(((0, 0), 0))})
    with pytest.raises(ValueError):
        partial.array(((1, 1), 0))
    with pytest.raises(ValueError):
        expectation(partial, {"A1": SettingSymbol.S1}, e=0)


def test_unknown_box_setting_rejected():
    table = born_table(reference_realization(2, gate("cz", 2), scheme=DI))
    assert table.array(((0, 0), 0, "perp")) is table.array(((0, 0), 0, PERP))
    with pytest.raises(ValueError, match=re.escape("settings x=(0, 0), e=0, y='bogus' lie outside the scenario")):
        table.array(((0, 0), 0, "bogus"))


def _spellings(key: tuple, scheme: str) -> list[tuple]:
    """``(x, e, y)`` of a settings key as tuples, as lists, as ``np.int64``
    and with a ``"perp"`` string built anew."""
    x, e = key[:2]
    y = key[2] if scheme == DI else PERP
    perp = "".join(["pe", "rp"])
    return [
        (x, e, y),
        (list(x), e, y if y == PERP else list(y)),
        (tuple(np.int64(v) for v in x), np.int64(e), y if y == PERP else tuple(np.int64(b) for b in y)),
        (x, e, perp if y == PERP else y),
    ]


def _outside(scheme: str, n: int, key: tuple) -> list[tuple[tuple, tuple]]:
    """Each ``(x, e, y)`` that changes one component of the key to a value
    outside the scenario, with its table key (None where a table key cannot
    carry it)."""
    x, e = key[:2]
    y = key[2] if scheme == DI else PERP
    changed = [(x[:k] + (v,) + x[k + 1 :], e, y) for k in range(n) for v in (3, -1)]
    changed += [(x[:-1], e, y), (x + (0,), e, y), (x, 2, y), (x, -1, y)]
    if scheme == DI:
        bits = (0,) * n if y == PERP else y
        changed += [(x, e, bits[:k] + (2,) + bits[k + 1 :]) for k in range(n)]
        changed += [(x, e, bits[:-1]), (x, e, bits + (0,)), (x, e, "bogus")]
        return [(c, c) for c in changed]
    return [(c, c[:2]) for c in changed] + [((x, e, (0,) * n), None)]


@settings(max_examples=40)
@given(st.sampled_from(SCHEMES), st.integers(2, 4), st.data())
def test_row_is_the_one_settings_key(scheme, n, data):
    """Every ``settings()`` key passes through ``ScenarioSpec.row``
    unchanged, however its components are spelled; one component outside
    the scenario raises through ``row``, ``table.array`` and the
    constructor."""
    scen = ScenarioSpec(scheme, n)
    key = data.draw(st.sampled_from(list(scen.settings())))
    for spelled in _spellings(key, scheme):
        got = scen.row(*spelled)
        assert got == key
        bits = got[2] if scheme == DI and got[2] != PERP else ()
        assert all(type(v) is int for v in (*got[0], got[1], *bits))
    table = ProbabilityTable(scheme, n, {key: np.zeros(scen.outcome_shape())})
    assert table.array(key[:2] if scheme == ALMOST_DI else (list(key[0]), np.int64(key[1]), key[2])) is table.array(key)
    bad, table_key = data.draw(st.sampled_from(_outside(scheme, n, key)))
    with pytest.raises(ValueError, match="lie outside the scenario"):
        scen.row(*bad)
    if table_key is not None:
        with pytest.raises(ValueError, match="lie outside the scenario"):
            table.array(table_key)
        with pytest.raises(ValueError, match="lie outside the scenario"):
            ProbabilityTable(scheme, n, {table_key: np.zeros(scen.outcome_shape())})


def partial_table(scheme):
    """A cz n=2 table holding a third of the rows, inserted in shuffled
    order, and its keys in that order."""
    table = born_table(reference_realization(2, gate("cz", 2), scheme=scheme))
    keys = list(table.keys())
    chosen = [keys[k] for k in np.random.default_rng(5).permutation(len(keys))[: len(keys) // 3]]
    return ProbabilityTable(scheme, 2, {key: table.array(key) for key in chosen}), chosen


@pytest.mark.parametrize("scheme", SCHEMES)
def test_partial_table_written_in_settings_order(scheme):
    """A table holding a third of the rows, inserted in shuffled order,
    writes them in the sorted order of the former writer."""
    partial, chosen = partial_table(scheme)
    assert list(partial.keys()) == chosen != sorted(chosen, key=repr)
    buf, oracle = io.StringIO(), io.StringIO()
    write_table(partial, buf)
    dumps_write_table(partial, oracle)
    assert buf.getvalue() == oracle.getvalue()
    assert len(buf.getvalue().splitlines()) == 1 + len(chosen)


def test_born_table_assembles_the_state_once(monkeypatch):
    """Both schemes build Eve's collective state, the product of the first
    n sources, once per call; di never builds the joint state of its 2n
    sources."""
    from gatecert import network

    calls = []
    build = network._source_product
    monkeypatch.setattr(network, "_source_product", lambda sources, pairs: calls.append(len(sources)) or build(sources, pairs))
    for scheme in SCHEMES:
        real = reference_realization(2, gate("random", 2, seed=3), scheme=scheme)
        calls.clear()
        born_table(real)
        assert calls == [2]


@pytest.mark.parametrize(
    "scheme, cap, amplitudes",
    [(DI, 2**16, 2**18), (ALMOST_DI, 2**8, 2**9)],
    ids=["di-repeaters", "almost_di-box"],
)
def test_born_table_refuses_a_layer_past_the_cap(monkeypatch, scheme, cap, amplitudes):
    """The size rule holds every layer the kernel builds, whatever the ranks
    of the measurements: at n=3 with every repeater element I/4 (di) or
    every joint-box element I/8 (almost_di), the collective state is small
    (64 amplitudes) but the swap maps or the joint box grow it past the
    cap, and ``born_table`` names the layer's size."""
    real = reference_realization(3, gate("toffoli", 3), scheme=scheme)
    if scheme == DI:
        real = replace(real, repeaters=((Operator(np.eye(4) / 4, (2, 2)),) * 4,) * 3)
    else:
        real = replace(real, l_meas=(Operator(np.eye(8) / 8, (2, 2, 2)),) * 8)
    monkeypatch.setattr(tensor, "MAX_AMPLITUDES", cap)
    with pytest.raises(ValueError, match=f"a layer's output would hold {amplitudes} amplitudes .*MAX_AMPLITUDES = {cap}$"):
        born_table(real)


RESTRICTED_SCENARIOS = [(DI, 2), (DI, 3), (ALMOST_DI, 2), (ALMOST_DI, 3)]
# The adversaries of the restricted-kernel test; dilate and depolarize
# would take di n=3's perp block past tensor.MAX_AMPLITUDES.
RESTRICTED_ADVERSARIES = (
    None,
    AdversarySpec("dilate", junk_dim=2, seed=4),
    AdversarySpec("depolarize", eta=0.05),
    AdversarySpec("perturb", epsilon=1e-3, seed=4),
    AdversarySpec("conjugate"),
)


@pytest.mark.parametrize("scheme, n", RESTRICTED_SCENARIOS)
def test_restricted_born_table_equals_full_table(scheme, n):
    """``born_table(real, rows=R)`` holds exactly the rows R, each equal to
    the full table's bit for bit, for the protocol rows, for random row
    sets and for the rows of one input e; ``certify`` gives the same report
    on either table (the operator-level rows read the realization only, and
    the CLI test of realization-mode certify covers them)."""
    u = gate("random", n, seed=7)
    rng = np.random.default_rng(n)
    for spec in RESTRICTED_ADVERSARIES:
        if spec is not None and (scheme, n) == (DI, 3) and spec.kind in ("dilate", "depolarize"):
            continue
        real = reference_realization(n, u, scheme=scheme)
        real = real if spec is None else apply_adversary(real, spec)
        full = born_table(real)
        keys = list(full.keys())
        sample = [keys[k] for k in rng.choice(len(keys), 7, replace=False)]
        for rows in (sample, *([key for key in keys if key[1] == e] for e in (0, 1)), protocol_rows(scheme, n)):
            part = born_table(real, rows=rows)
            assert set(part.keys()) == set(rows)
            assert all(np.array_equal(part.array(key), full.array(key)) for key in rows)
        # part holds the protocol rows
        assert certify(part, u).to_record() == certify(full, u).to_record()


# (scheme, n, adversary) of the pass-size test: at the default budget the
# dilated and depolarized di n=2 blocks run one first-repeater outcome per
# group and a few rows per pass; at budget 1 every case runs its smallest
# groups and passes.
PASS_CASES = [
    (scheme, 2, spec) for scheme in SCHEMES for spec in (None, RESTRICTED_ADVERSARIES[1], RESTRICTED_ADVERSARIES[2])
] + [(DI, 3, None), (ALMOST_DI, 3, RESTRICTED_ADVERSARIES[1])]


@pytest.mark.parametrize("scheme, n, spec", PASS_CASES, ids=lambda v: getattr(v, "kind", v))
def test_born_table_does_not_depend_on_the_pass_size(monkeypatch, scheme, n, spec):
    """The smallest passes (budget 1) and one pass over everything (2**40)
    give the default budget's tables bit for bit, on full tables and on the
    protocol rows, and the protocol rows equal the full table's."""
    from gatecert import network

    real = reference_realization(n, gate("random", n, seed=7), scheme=scheme)
    real = real if spec is None else apply_adversary(real, spec)
    rows = protocol_rows(scheme, n)
    tables = []
    for budget in (network.PASS_ENTRIES, 1, 2**40):
        monkeypatch.setattr(network, "PASS_ENTRIES", budget)
        tables.append((born_table(real), born_table(real, rows=rows)))
    full = tables[0][0]
    assert len(full.keys()) == len(list(ScenarioSpec(scheme, n).settings()))
    for whole, part in tables:
        assert list(whole.keys()) == list(full.keys()) and set(part.keys()) == set(rows)
        assert all(whole.array(key).tobytes() == full.array(key).tobytes() for key in full.keys())
        assert all(part.array(key).tobytes() == full.array(key).tobytes() for key in rows)


def test_born_table_checks_every_row_it_computes():
    """A joint box that sums to the identity only within ``IDENTITY_TOL``
    passes validation, but its rows miss one by more than ``SUM_TOL``; a row
    the block computes and does not return is named too."""
    real = reference_realization(2, gate("cnot", 2))
    scaled = Operator(real.l_meas[0].entries * (1 + 8e-11), real.l_meas[0].dims)
    real = replace(real, l_meas=(scaled,) + real.l_meas[1:])
    validate_realization(real)
    # the block of these rows computes ((0, 0), 0) and ((1, 1), 0) as well
    for rows in (None, [((0, 1), 0), ((1, 0), 0)]):
        with pytest.raises(ValueError, match=re.escape("setting ((0, 0), 0): probabilities sum to 1.0000000000")):
            born_table(real, rows=rows)


def test_born_table_builds_row_keys_without_revalidating(monkeypatch):
    """Only the keys a caller passes go through ``ScenarioSpec.row``; the
    rows ``born_table`` computes are keyed directly."""
    calls = []
    row = ScenarioSpec.row
    monkeypatch.setattr(ScenarioSpec, "row", lambda self, *args: calls.append(args) or row(self, *args))
    real = reference_realization(2, gate("cz", 2), scheme=DI)
    assert len(born_table(real).keys()) == 90 and calls == []
    rows = sorted(protocol_rows(DI, 2), key=repr)
    assert set(born_table(real, rows=rows).keys()) == set(rows) and len(calls) == len(rows)


def test_born_table_diagonalizes_each_measurement_once(monkeypatch):
    """On one realization object, the joint box and each repeater are
    diagonalized once in all: the check ``Realization.factors`` runs keeps
    the factors of their ``eigh`` for every later ``born_table`` and
    realization-mode ``certify``.  Each ``born_table`` factors the A
    observables and the boxes itself.  A ``replace`` copy is checked, and
    diagonalized, again."""
    stacks = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(a) or eigh(a))
    u = gate("cnot", 2)
    real = reference_realization(2, u, scheme=DI)
    povms = [np.stack([m.entries for m in real.l_meas])] + [np.stack([el.entries for el in q]) for q in real.repeaters]

    def povm_calls():
        return sum(any(a.shape == p.shape and np.array_equal(a, p) for p in povms) for a in stacks)

    born_table(real)
    assert povm_calls() == 3
    stacks.clear()
    table = born_table(real)
    # 2 A stacks of 6 elements and 4 boxes
    assert sorted(a.shape for a in stacks) == [(2, 2, 2)] * 4 + [(6, 2, 2)] * 2
    assert certify(table, u, realization=real).verdict == "certified"
    validate_realization(real)
    assert povm_calls() == 0
    copy = replace(real, branch=real.branch)
    validate_realization(copy)
    born_table(copy)
    assert povm_calls() == 3


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@settings(max_examples=4)
@given(data=st.data())
def test_kept_factors_give_the_tables_of_fresh_ones(kind, data):
    """A second ``born_table`` of a realization, which reads the factors the
    first one kept, and one of a ``replace`` copy, which computes them
    again, give tables bit-identical to the first; the kept stacks are
    read-only."""
    real = data.draw(realizations(kinds=(kind,)))
    first = born_table(real)
    for table in (born_table(real), born_table(replace(real, branch=real.branch))):
        assert list(table.keys()) == list(first.keys())
        assert all(table.array(key).tobytes() == first.array(key).tobytes() for key in first.keys())
    assert len(real.factors) == (1 if real.scheme == ALMOST_DI else 3)
    assert not any(stack.flags.writeable for stack in real.factors)


@pytest.mark.parametrize("scheme, n", RESTRICTED_SCENARIOS)
def test_protocol_rows_hold_every_row_a_check_reads(scheme, n):
    for seed in range(3):
        read = {key for check in check_matrix(scheme, n, gate("random", n, seed=seed)) for key in check.weights}
        assert read <= protocol_rows(scheme, n)


@pytest.mark.parametrize(
    "scheme, key, named",
    [
        (DI, ((0, 3), 0, PERP), "x=(0, 3), e=0, y='perp'"),
        (DI, ((0, 1), 0, (1, 2)), "x=(0, 1), e=0, y=(1, 2)"),
        (DI, ((0, 1), 0), "settings key ((0, 1), 0)"),
        (ALMOST_DI, ((0, 1), 2), "x=(0, 1), e=2"),
    ],
)
def test_born_table_names_a_row_outside_the_scenario(scheme, key, named):
    real = reference_realization(2, gate("cnot", 2), scheme=scheme)
    with pytest.raises(ValueError, match=re.escape(named)):
        born_table(real, rows=[key])


def test_probability_table_shape_guard():
    with pytest.raises(ValueError):
        ProbabilityTable(ALMOST_DI, 2, {((0, 0), 0): np.zeros((2, 2, 3))})


def test_table_arrays_are_read_only_and_unaliased():
    """The constructor copies a caller's arrays, so changing them later
    leaves the table as it was; the arrays ``born_table`` and
    ``read_table`` hand over are stored without a copy, read-only too."""
    table = born_table(reference_realization(2, gate("cz", 2), scheme=DI))
    mine = {key: np.array(table.array(key)) for key in table.keys()}
    copied = ProbabilityTable(DI, 2, mine)
    for arr in mine.values():
        arr[...] = 0.0
    assert copied.max_difference(table) == 0.0
    buf = io.StringIO()
    write_table(table, buf)
    for t in (table, copied, read_table(io.StringIO(buf.getvalue()))):
        for key in t.keys():
            assert not t.array(key).flags.writeable
            with pytest.raises(ValueError):
                t.array(key)[(0,) * t.array(key).ndim] = 1.0
            # nor is any array the row is a view of, the loader's stacked rows included
            arr = t.array(key)
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
                assert not arr.flags.writeable


def test_loaded_rows_share_one_trimmed_array():
    """The loader stacks the rows of a file in one array that grows as
    records arrive; the table's rows are views of it, and it holds no spare
    rows once the file has ended (90 rows, not a power of two)."""
    table = born_table(reference_realization(2, gate("cnot", 2), scheme=DI))
    buf = io.StringIO()
    write_table(table, buf)
    back = read_table(io.StringIO(buf.getvalue()))
    stacks = []
    for key in back.keys():
        arr = back.array(key)
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        stacks.append(arr)
    assert len(stacks) == 90 and all(arr is stacks[0] for arr in stacks)
    assert stacks[0].shape == (90, 256)


def test_max_difference_sees_every_entry():
    table = born_table(reference_realization(2, gate("cz", 2)))
    entries = {key: np.array(table.array(key)) for key in table.keys()}
    entries[((2, 2), 1)] = entries[((2, 2), 1)].copy()
    entries[((2, 2), 1)][1, 1, 3] += 3e-7
    bumped = ProbabilityTable(ALMOST_DI, 2, entries)
    assert np.isclose(table.max_difference(bumped), 3e-7)


def negate_largest(p):
    k = p.index(max(p))
    return p[:k] + [-p[k]] + p[k + 1 :]


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"p": None}, "record lacks field 'p'"),
        ({"p": lambda p: p[:-1]}, "p has shape (15,)"),
        ({"p": negate_largest}, "is negative"),
        ({"x": [7, 0]}, "outside the scenario"),
        ({"x": 7}, "not iterable"),
        ({"p": lambda p: [10**400] + p[1:]}, "int too large to convert to float"),
    ],
)
def test_read_table_names_line_of_malformed_record(change, reason):
    with pytest.raises(ValueError, match=f"^line 5: .*{re.escape(reason)}"):
        read_with_change(table_lines(), 4, change)


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"e": 2}, "settings x=[0, 0], e=2, y=[1, 1] lie outside the scenario"),
        ({"y": [0, 2]}, "settings x=[0, 0], e=0, y=[0, 2] lie outside the scenario"),
        ({"y": "other"}, "settings x=[0, 0], e=0, y='other' lie outside the scenario"),
        ({"x": [0, 0, 1]}, "settings x=[0, 0, 1], e=0, y=[1, 1] lie outside the scenario"),
        ({"y": [1, 0]}, "duplicate settings row ((0, 0), 0, (1, 0))"),
        ({"p": lambda p: p + [0.0]}, "p has shape (257,), expected a list of 256 probabilities"),
        ({"p": lambda p: [p]}, "p has shape (1, 256)"),
        ({"p": lambda p: [float("nan")] + p[1:]}, "p[0] = nan is negative or not finite"),
        ({"p": lambda p: [float("inf")] + p[1:]}, "p[0] = inf is negative or not finite"),
        ({"p": lambda p: [p[0] + 1e-11] + p[1:]}, "p sums to"),
        ({"p": lambda p: [repr(v) for v in p]}, "p holds an entry that is not a JSON number"),
        ({"p": lambda p: [bool(v) for v in p]}, "p holds an entry that is not a JSON number"),
        ({"x": [False, False]}, "settings x=[False, False], e=0, y=[1, 1] lie outside the scenario"),
        ({"x": [0.0, 0.0]}, "settings x=[0.0, 0.0], e=0, y=[1, 1] lie outside the scenario"),
        ({"e": 0.0}, "settings x=[0, 0], e=0.0, y=[1, 1] lie outside the scenario"),
        ({"e": False}, "settings x=[0, 0], e=False, y=[1, 1] lie outside the scenario"),
        ({"y": [True, True]}, "settings x=[0, 0], e=0, y=[True, True] lie outside the scenario"),
        ({"eps": 0.05}, "record has unknown field(s) 'eps'"),
    ],
    ids=[
        "e", "y-bits", "y-name", "x-length", "duplicate", "long-p", "nested-p", "nan", "inf", "sum",
        "p-strings", "p-booleans", "x-booleans", "x-floats", "e-float", "e-boolean", "y-booleans", "extra-field",
    ],
)
def test_read_table_rejects_unphysical_di_record(change, reason):
    with pytest.raises(ValueError, match=f"^line 5: {re.escape(reason)}"):
        read_with_change(table_lines(DI), 4, change)


def test_read_table_names_first_missing_row():
    lines = table_lines()
    with pytest.raises(ValueError, match=re.escape("table lacks 1 of 18 settings rows, the first is ((0, 1), 0)")):
        read_table(io.StringIO("\n".join(lines[:3] + lines[4:])))
    with pytest.raises(ValueError, match=re.escape("table lacks 18 of 18 settings rows, the first is ((0, 0), 0)")):
        read_table(io.StringIO(lines[0]))


def test_read_table_rejects_per_outcome_records():
    old = '{"a": [0, 0], "e": 0, "l": [0, 0], "p": 0.25, "x": [0, 0]}'
    with pytest.raises(ValueError, match=re.escape("line 2: p has shape (), expected a list of 16 probabilities")):
        read_table(io.StringIO(table_lines()[0] + "\n" + old))


@pytest.mark.parametrize("n", ["9", "2.0", "true", "1", '"2"'])
def test_read_table_rejects_header_n(n):
    with pytest.raises(ValueError, match="^line 1: header n=.* is not an integer from 2 to 8"):
        read_table(io.StringIO('{"kind": "probability_table", "n": %s, "scheme": "di"}' % n))


def test_read_table_rejects_unknown_header_field():
    header = '{"colour": "red", "kind": "probability_table", "n": 2, "scheme": "di"}'
    with pytest.raises(ValueError, match=re.escape("line 1: header has unknown field(s) 'colour'")):
        read_table(io.StringIO(header))


def test_row_takes_integer_settings_only():
    """Python and numpy integers are settings; booleans and floats of the
    same value are not."""
    scen = ScenarioSpec(DI, 2)
    assert scen.row(np.array([2, 0]), np.int64(1), (np.uint8(1), 0)) == ((2, 0), 1, (1, 0))
    for x, e, y in (((True, 0), 0, PERP), ((0, 0), 1.0, PERP), ((0, 0), 0, (0, False)), ((0, 0), np.float64(0), PERP)):
        with pytest.raises(ValueError, match="lie outside the scenario"):
            scen.row(x, e, y)


def test_table_record_layout():
    """One record per settings row in sorted order, p flattened in C order
    over (a_1, a_2, r_1, r_2, l)."""
    # every row of the reference table holds at most 32 distinct values, so its sources are depolarized
    table = born_table(depolarize_sources(reference_realization(2, gate("random", 2, seed=4), scheme=DI), 0.3))
    buf = io.StringIO()
    write_table(table, buf)
    records = [json.loads(ln) for ln in buf.getvalue().splitlines()[1:]]
    assert len(records) == 90
    assert all(list(rec) == ["e", "p", "x", "y"] for rec in records)
    assert [(rec["x"], rec["e"], rec["y"]) for rec in records[:6]] == [
        ([0, 0], 0, [0, 0]), ([0, 0], 0, [0, 1]), ([0, 0], 0, [1, 0]), ([0, 0], 0, [1, 1]),
        ([0, 0], 0, "perp"), ([0, 0], 1, [0, 0]),
    ]
    # the row with the most distinct values, the first in settings order among equals
    rec = max(records, key=lambda rec: len(set(rec["p"])))
    arr = table.array((rec["x"], rec["e"], rec["y"]))
    assert len(set(rec["p"])) > 40
    assert rec["p"] == [arr[idx] for idx in np.ndindex(arr.shape)]
    # a = (1, 0), r = (3, 2), boxes b = (0, 1), so l = 1
    assert rec["p"][(((1 * 2 + 0) * 4 + 3) * 4 + 2) * 4 + 1] == arr[1, 0, 3, 2, 1]


@settings(max_examples=25)
@given(realizations())
def test_load_after_save_is_identity(real):
    table = born_table(real)
    buf = io.StringIO()
    write_table(table, buf)
    back = read_table(io.StringIO(buf.getvalue()))
    assert table.max_difference(back) == 0.0
    again = io.StringIO()
    write_table(back, again)
    assert again.getvalue() == buf.getvalue()


@st.composite
def corruptions(draw):
    """A table's lines, the index of one record, a single-field change to
    it, and the reason the loader must give."""
    lines = table_lines(draw(st.sampled_from(SCHEMES)))
    index = draw(st.integers(1, len(lines) - 1))
    rec = json.loads(lines[index])
    kind = draw(st.sampled_from(("delete", "truncate", "negate", "push_x")))
    if kind == "delete":
        field = draw(st.sampled_from(sorted(rec)))
        return lines, index, {field: None}, f"record lacks field {field!r}"
    if kind == "truncate":
        k = draw(st.integers(0, len(rec["p"]) - 1))
        return lines, index, {"p": lambda p: p[:k]}, f"p has shape ({k},)"
    if kind == "negate":
        k = draw(st.sampled_from([k for k, v in enumerate(rec["p"]) if v > 0]))
        negated = rec["p"][:k] + [-rec["p"][k]] + rec["p"][k + 1 :]
        return lines, index, {"p": negated}, f"p[{k}] = {-rec['p'][k]!r} is negative"
    i = draw(st.integers(0, 1))
    v = draw(st.one_of(st.integers(3, 99), st.integers(-99, -1)))
    return lines, index, {"x": lambda x: x[:i] + [v] + x[i + 1 :]}, "lie outside the scenario"


@settings(max_examples=40)
@given(corruptions())
def test_single_field_corruption_names_its_line(case):
    lines, index, change, reason = case
    with pytest.raises(ValueError, match=f"^line {index + 1}: .*{re.escape(reason)}"):
        read_with_change(lines, index, change)


def test_read_table_names_missing_header_field():
    with pytest.raises(ValueError, match="^line 2: header lacks field 'n'"):
        read_table(io.StringIO('\n{"kind": "probability_table", "scheme": "di"}\n'))


def assert_bitwise_equal(table, back):
    for key in table.keys():
        assert np.array_equal(back.array(key), table.array(key))
        assert np.array_equal(back.array(key).view(np.int64), table.array(key).view(np.int64))


@settings(max_examples=25)
@given(realizations())
def test_writer_matches_json_dumps_oracle(real):
    """Each distinct value is formatted once, yet the text is byte for byte
    what ``json.dumps`` of each record gives, and reads back bit for bit."""
    table = born_table(real)
    buf, oracle = io.StringIO(), io.StringIO()
    write_table(table, buf)
    dumps_write_table(table, oracle)
    assert buf.getvalue() == oracle.getvalue()
    assert_bitwise_equal(table, read_table(io.StringIO(buf.getvalue())))


def special_floats_entries():
    """The rows of an almost_di n=2 table: the e=0 rows hold 1.0, -0.0 and
    zeros, the e=1 rows, views of one array, 0.99999, 1e-05 (which repr
    writes in exponent form), the smallest subnormal, -0.0 and zeros."""
    exact = np.zeros(16)
    exact[0] = 1.0
    exact[1] = -0.0
    spread = np.zeros(16)
    spread[:4] = 1.0 - 1e-05, 1e-05, 5e-324, -0.0
    return {key: (exact if key[1] == 0 else spread).reshape(2, 2, 4) for key in ScenarioSpec(ALMOST_DI, 2).settings()}


def test_special_floats_round_trip_byte_identical():
    """-0.0 stays apart from 0.0, and -0.0, the smallest subnormal, a value
    repr writes in exponent form and 1.0 are written as json.dumps writes
    them and read back bit for bit."""
    entries = special_floats_entries()
    spread = entries[((0, 0), 1)].reshape(-1)
    table = ProbabilityTable(ALMOST_DI, 2, entries)
    buf, oracle = io.StringIO(), io.StringIO()
    write_table(table, buf)
    dumps_write_table(table, oracle)
    text = buf.getvalue()
    assert text == oracle.getvalue()
    assert '"p": [1.0, -0.0, 0.0,' in text and '"p": [0.99999, 1e-05, 5e-324, -0.0, 0.0,' in text
    back = read_table(io.StringIO(text))
    assert_bitwise_equal(table, back)
    again = io.StringIO()
    write_table(back, again)
    assert again.getvalue() == text
    # no table holds a float that JSON cannot spell: the constructor refuses them
    for bad in (np.nan, np.inf, -np.inf):
        spread[4] = bad
        with pytest.raises(ValueError, match="has a NaN or infinite entry"):
            ProbabilityTable(ALMOST_DI, 2, entries)


@pytest.mark.parametrize("budget", [1, 300, "default"])
def test_writer_pass_budget_keeps_every_byte(monkeypatch, budget):
    """The writer formats each distinct value once per pass of a quarter of
    ``PASS_ENTRIES`` entries; one row per pass (budget 1, and 300 for 64 or
    more entries a row), several, or the default give the bytes of
    ``json.dumps``, on full tables, a partial one, and rows whose -0.0 and
    0.0 share a pass or lie across a pass boundary."""
    from gatecert import network

    if budget != "default":
        monkeypatch.setattr(network, "PASS_ENTRIES", budget)
    tables = [
        born_table(reference_realization(2, gate("cnot", 2), scheme=DI)),
        born_table(reference_realization(3, gate("toffoli", 3))),
        partial_table(DI)[0],
        ProbabilityTable(ALMOST_DI, 2, special_floats_entries()),
    ]
    for table in tables:
        buf, oracle = io.StringIO(), io.StringIO()
        write_table(table, buf)
        dumps_write_table(table, oracle)
        assert buf.getvalue() == oracle.getvalue()


def test_no_repeat_table_round_trips():
    """A table whose floats hardly repeat, so that the reader's memo of
    number texts fills and is cleared, is written as ``json.dumps`` writes
    it and reads back bit for bit; it does not signal."""
    table = local_table(DI, 2, seed=3)
    assert len(np.unique(table.array(((0, 0), 0, PERP)))) == 256
    buf, oracle = io.StringIO(), io.StringIO()
    write_table(table, buf)
    dumps_write_table(table, oracle)
    assert buf.getvalue() == oracle.getvalue()
    back = read_table(io.StringIO(buf.getvalue()))
    assert_bitwise_equal(table, back)
    again = io.StringIO()
    write_table(back, again)
    assert again.getvalue() == buf.getvalue()


def negate_later_largest(p):
    return p[:1] + negate_largest(p[1:])


VALUE_FAULTS = {
    "negative": ({"p": negate_largest}, r"p\[[0-9]+\] = -[0-9.e-]+ is negative or not finite$"),
    "sum": ({"p": lambda p: [p[0] + 1e-11] + p[1:]}, "p sums to [0-9.]+, not 1$"),
}


@pytest.mark.parametrize("value", VALUE_FAULTS)
@pytest.mark.parametrize("structural", ["unknown-field", "duplicate"])
@pytest.mark.parametrize("value_first", [True, False], ids=["value-first", "structural-first"])
def test_read_table_names_the_first_of_two_faulty_lines(value, structural, value_first):
    """The loader checks entries and sums once over the stacked rows, yet a
    file with a value fault and a structural fault names the earlier line,
    in either order."""
    lines = table_lines(DI)
    first, later = 3, 7
    value_at, structural_at = (first, later) if value_first else (later, first)
    value_change, value_reason = VALUE_FAULTS[value]
    previous = json.loads(lines[structural_at - 1])
    structural_change, structural_reason = {
        "unknown-field": ({"eps": 0.05}, re.escape("record has unknown field(s) 'eps'") + "$"),
        "duplicate": ({field: previous[field] for field in ("e", "x", "y")}, re.escape("duplicate settings row (")),
    }[structural]
    lines = with_change(with_change(lines, value_at, value_change), structural_at, structural_change)
    reason = value_reason if value_first else structural_reason
    with pytest.raises(ValueError, match=f"^line {first + 1}: {reason}"):
        read_table(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"p": lambda p: ["abc"] + negate_later_largest(p)[1:], "eps": 0.05}, "could not convert string to float: 'abc'"),
        ({"p": lambda p: ["0.1"] + negate_later_largest(p)[1:], "eps": 0.05}, "p holds an entry that is not a JSON number"),
        ({"p": lambda p: [negate_largest(p)], "eps": 0.05}, "p has shape (1, 256), expected a list of 256 probabilities"),
        ({"p": negate_largest, "eps": 0.05}, "record has unknown field(s) 'eps'"),
        ({"p": lambda p: negate_largest([p[0] + 1e-11] + p[1:])}, "is negative or not finite"),
    ],
    ids=["conversion", "entry-type", "shape", "unknown-field", "negative"],
)
def test_read_table_precedence_within_a_line(change, reason):
    """A record with several faults is refused for the first in the order:
    conversion or shape of p, entry types, unknown field, negative entry,
    sum."""
    with pytest.raises(ValueError, match=f"^line 5: .*{re.escape(reason)}"):
        read_with_change(table_lines(DI), 4, change)


def test_read_table_does_not_size_the_table_from_its_header():
    """An almost_di n=8 header announces 13 122 rows of 65 536 entries
    (6.9 GB); a file holding one valid record is refused for the rows it
    lacks, and reading it holds a few rows, not the announced table."""
    size = 2**16
    header = '{"kind": "probability_table", "n": 8, "scheme": "almost_di"}'
    record = json.dumps({"e": 0, "p": [1.0 / size] * size, "x": [0] * 8}, sort_keys=True)
    stream = io.StringIO(header + "\n" + record + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("table lacks 13121 of 13122 settings rows, the first is")):
            read_table(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the line and its stripped copy take about 4.8 rows of 512 KiB; the
    # decoded list, p and the stacked row one each
    assert peak < 10 * size * 8


@pytest.mark.parametrize(
    "scheme, axis, who, rows",
    [
        (ALMOST_DI, 0, "party A_1", "((0, 0), 0) and ((0, 1), 1)"),
        (ALMOST_DI, 1, "party A_2", "((0, 1), 0) and ((0, 1), 1)"),
        (DI, 1, "party A_2", "((0, 0), 0, (0, 0)) and ((0, 0), 0, (1, 1))"),
        (DI, 2, "repeater 1", "((0, 0), 0, (0, 0)) and ((0, 0), 0, (1, 1))"),
        (DI, 3, "repeater 2", "((0, 0), 0, (0, 0)) and ((0, 0), 0, (1, 1))"),
    ],
)
def test_read_table_rejects_signalling(scheme, axis, who, rows):
    """Moving 1e-6 between one row's outcomes of a party or a repeater makes
    that marginal differ from the first row with the same setting."""
    reason = f"signalling: {who}'s marginal differs by 1.00e-06 between settings rows {rows}"
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        read_with_change(table_lines(scheme), 4, {"p": move_mass(scheme, axis, 1e-6)})


def test_read_table_accepts_repeater_marginal_that_depends_on_e():
    """The central party acts before the repeaters, so p(r_i) may depend on
    e: a product source on R_{1,1} that Eve swaps with a maximally mixed
    wing, read by a computational-basis repeater, gives p(r_1) = (1/2, 1/2,
    0, 0) at e=0 and uniform at e=1, and the table loads."""
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    basis = tuple(Operator(np.diag(np.eye(4)[k]).astype(complex), (2, 2)) for k in range(4))
    real = replace(
        real,
        sources=(StateVector(np.eye(4, dtype=complex)[0], (2, 2)),) + real.sources[1:],
        eve=gate("swap", 2),
        repeaters=(basis,) + real.repeaters[1:],
    )
    table = born_table(real)
    for e, marginal in ((0, [0.5, 0.5, 0, 0]), (1, [0.25] * 4)):
        assert np.allclose(table.array(((0, 0), e, PERP)).sum(axis=(0, 1, 3, 4)), marginal, atol=1e-15)
    buf = io.StringIO()
    write_table(table, buf)
    assert table.max_difference(read_table(io.StringIO(buf.getvalue()))) == 0.0


def test_born_table_refuses_oversized_realization():
    """A depolarized, 3-dilated di n=2 realization has a small collective
    state (20736 amplitudes), but its perp block would need 429981696
    amplitudes (6.9 GB); ``born_table`` raises before allocating them."""
    real = dilate(depolarize_sources(reference_realization(2, gate("cnot", 2), scheme=DI), 0.05), 3)
    with pytest.raises(ValueError, match=f"would hold 429981696 amplitudes .*more than MAX_AMPLITUDES = {tensor.MAX_AMPLITUDES}"):
        born_table(real)


def test_nan_source_rejected():
    """A NaN amplitude fails the normalization check: validation refuses the
    source, and realization-mode certify reports it on ``extract.frames``."""
    from gatecert.certify import certify

    u = gate("cnot", 2)
    real = reference_realization(2, u)
    nan_source = StateVector(np.array([np.nan, 0, 0, 0.5]), (2, 2))
    bad = replace(real, sources=(nan_source,) + real.sources[1:])
    with pytest.raises(ValueError, match=r"^source 0 is not normalized \(norm nan\)$"):
        validate_realization(bad)
    rows = {row.id: row for row in certify(born_table(real), u, realization=bad).checks}
    assert "not normalized" in rows["extract.frames"].detail


@pytest.mark.parametrize(
    "name, fault, message",
    [
        ("A", "dims", "observable A[2,1] has dims (4,), site needs (2,)"),
        ("A", "skew", "observable A[2,1] is not Hermitian"),
        ("A", "half", "observable A[2,1] does not square to identity (dev 7.50e-01)"),
        ("A", "nan", "observable A[2,1] is not Hermitian"),
        ("B", "dims", "box B[2,1] has dims (4,), site needs (2,)"),
        ("B", "skew", "box B[2,1] is not Hermitian"),
        ("B", "half", "box B[2,1] does not square to identity (dev 7.50e-01)"),
        ("B", "nan", "box B[2,1] is not Hermitian"),
    ],
)
def test_binary_observable_messages(name, fault, message):
    """Party observables and boxes go through one binary-observable check
    and name the faulty operator the same way."""
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    bad = {
        "dims": Operator(np.eye(4, dtype=complex), (4,)),
        "skew": Operator(np.array([[0, 1], [0, 0]], dtype=complex), (2,)),
        "half": Operator(np.eye(2, dtype=complex) / 2, (2,)),
        "nan": Operator(np.array([[np.nan, 0], [0, 1]], dtype=complex), (2,)),
    }[fault]
    if name == "A":
        pair = (real.a_obs[1][0], bad, real.a_obs[1][2])
        broken = replace(real, a_obs=(real.a_obs[0], pair))
    else:
        broken = replace(real, b_obs=(real.b_obs[0], (real.b_obs[1][0], bad)))
    with pytest.raises(ValueError) as err:
        validate_realization(broken)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "fault, message",
    [
        ("scheme", "unknown scheme 'xy'"),
        ("branch", "branch must be +1 or -1, got 0"),
        ("source count", "expected 2 sources, got 1"),
        ("tripartite source", "source 0 must be bipartite, has 3 sites"),
        ("party count", "expected observables for 2 parties, got 1"),
        ("observable pair", "party 1 needs 3 observables, got 2"),
        ("joint box count", "joint box needs 4 elements, got 3"),
        ("eve dims", "eve operation has dims (2,), expected (2, 2)"),
        ("almost_di boxes", "almost_di realizations carry no box observables or repeaters"),
        ("almost_di repeaters", "almost_di realizations carry no box observables or repeaters"),
        ("di without boxes", "di realization needs binary boxes for 2 subnets"),
        ("one box observable", "subnet 1 needs 2 box observables"),
        ("di without repeaters", "di realization needs repeaters for 2 subnets"),
        ("three repeater elements", "repeater 1 needs 4 elements"),
        ("reference gate dims", "target gate must act on 2 qubits, got dims (2, 2, 2)"),
        ("reference gate", "target gate is not unitary"),
        ("reference branch", "branch must be +1 or -1, got 0"),
        ("reference scheme", "unknown scheme 'xy'"),
        ("almost_di repeater condition", "repeater conditions apply only to di tables"),
        ("repeater condition subnet", "repeater conditions name subnets [3], not all in 1..2"),
        ("table scenarios", "tables describe different scenarios"),
        ("table rows", "settings row ((0, 0), 0) present in only one table"),
    ],
)
def test_structural_fault_messages(fault, message):
    """A realization of the wrong shape is refused naming the part, and so
    are the wrong arguments of ``reference_realization``, ``event_index``
    and ``ProbabilityTable.max_difference``."""
    from gatecert.network import event_index

    u = gate("cnot", 2)
    almost, di = (reference_realization(2, u, scheme=scheme) for scheme in SCHEMES)
    uniform = {((0, 0), 0): np.full((2, 2, 4), 1 / 16)}

    def refused(real, **fields):
        return lambda: validate_realization(replace(real, **fields))

    faults = {
        "scheme": refused(almost, scheme="xy"),
        "branch": refused(almost, branch=0),
        "source count": refused(almost, sources=almost.sources[:1]),
        "tripartite source": refused(almost, sources=(ghz_state((0, 0, 0)),) + almost.sources[1:]),
        "party count": refused(almost, a_obs=almost.a_obs[:1]),
        "observable pair": refused(almost, a_obs=(almost.a_obs[0][:2],) + almost.a_obs[1:]),
        "joint box count": refused(almost, l_meas=almost.l_meas[:3]),
        "eve dims": refused(almost, eve=Operator(np.eye(2, dtype=complex), (2,))),
        "almost_di boxes": refused(almost, b_obs=di.b_obs),
        "almost_di repeaters": refused(almost, repeaters=di.repeaters),
        "di without boxes": refused(di, b_obs=None),
        "one box observable": refused(di, b_obs=(di.b_obs[0][:1],) + di.b_obs[1:]),
        "di without repeaters": refused(di, repeaters=None),
        "three repeater elements": refused(di, repeaters=(di.repeaters[0][:3],) + di.repeaters[1:]),
        "reference gate dims": lambda: reference_realization(2, gate("toffoli", 3)),
        "reference gate": lambda: reference_realization(2, Operator(2 * np.eye(4, dtype=complex), (2, 2))),
        "reference branch": lambda: reference_realization(2, u, branch=0),
        "reference scheme": lambda: reference_realization(2, u, scheme="xy"),
        "almost_di repeater condition": lambda: event_index(ALMOST_DI, 2, r={1: 0}),
        "repeater condition subnet": lambda: event_index(DI, 2, r={3: 0}),
        "table scenarios": lambda: ProbabilityTable(ALMOST_DI, 2, {}).max_difference(ProbabilityTable(DI, 2, {})),
        "table rows": lambda: ProbabilityTable(ALMOST_DI, 2, uniform).max_difference(ProbabilityTable(ALMOST_DI, 2, {})),
    }
    with pytest.raises(ValueError) as err:
        faults[fault]()
    assert str(err.value) == message


def _povm_fault(elements, fault, k=2):
    """``elements`` with element ``k`` made of the wrong dimension, skew, not
    positive, or scaled so that the sum is not the identity."""
    el = elements[k]
    bad = {
        "dims": Operator(np.eye(2 * el.dim, dtype=complex), (2 * el.dim,)),
        "skew": Operator(el.entries + np.triu(np.ones((el.dim, el.dim)), 1), el.dims),
        "negative": Operator(el.entries - np.eye(el.dim) / 2, el.dims),
        "sum": Operator(el.entries * 0.5, el.dims),
    }[fault]
    return elements[:k] + (bad,) + elements[k + 1:]


@pytest.mark.parametrize(
    "part, fault, message",
    [
        ("joint box", "dims", "joint box element 2 has dimension 8, expected 4"),
        ("joint box", "skew", "joint box element 2 is not Hermitian"),
        ("joint box", "negative", "joint box element 2 is not positive (min eig -5.00e-01)"),
        ("joint box", "sum", "joint box elements do not sum to identity"),
        ("repeater 2", "dims", "repeater element R[2,2] has dims (8,), expected (2, 2)"),
        ("repeater 2", "skew", "repeater 2 element 2 is not Hermitian"),
        ("repeater 2", "negative", "repeater 2 element 2 is not positive (min eig -5.00e-01)"),
        ("repeater 2", "sum", "repeater 2 elements do not sum to identity"),
    ],
)
def test_povm_messages(part, fault, message):
    """Each POVM fault is named as before the elements were diagonalized as
    one stack."""
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    if part == "joint box":
        broken = replace(real, l_meas=_povm_fault(real.l_meas, fault))
    else:
        broken = replace(real, repeaters=(real.repeaters[0], _povm_fault(real.repeaters[1], fault)))
    for check in (validate_realization, born_table):  # born_table validates with eigh
        with pytest.raises(ValueError) as err:
            check(broken)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "first, second, message",
    [
        ("negative", "skew", "joint box element 0 is not positive (min eig -5.00e-01)"),
        ("negative", "dims", "joint box element 0 is not positive (min eig -5.00e-01)"),
        ("skew", "negative", "joint box element 0 is not Hermitian"),
        ("dims", "negative", "joint box element 0 has dimension 8, expected 4"),
    ],
)
def test_povm_first_fault_in_element_order(first, second, message):
    """With elements 0 and 2 bad, element 0 is named, whatever its fault."""
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    broken = replace(real, l_meas=_povm_fault(_povm_fault(real.l_meas, second), first, 0))
    for check in (validate_realization, born_table):
        with pytest.raises(ValueError) as err:
            check(broken)
        assert str(err.value) == message
