"""End-to-end protocol checks on probability tables and realizations."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import hidden_side_pairs

from gatecert.adversary import conjugate, dilate, perturb
from gatecert.certify import CertificationReport, CheckRow, certify
from gatecert.network import ALMOST_DI, DI, ProbabilityTable, ScenarioSpec, born_table, reference_realization
from gatecert.primitives import gate, write_json
from gatecert.tensor import Operator


def reference_table(n, u, scheme=ALMOST_DI, branch=+1):
    return born_table(reference_realization(n, u, branch=branch, scheme=scheme))


def test_check_row_semantics():
    row = CheckRow("x", 1.0, 1.0 + 5e-10, 1e-9)
    assert row.passed
    assert np.isclose(row.residual, 5e-10)
    assert not CheckRow("x", 1.0, 2.0, 1e-9).passed
    rec = row.to_record()
    assert rec["passed"] is True
    assert isinstance(rec["lhs"], float)


def test_reference_certifies_almost_di():
    u = gate("cnot", 2)
    report = certify(reference_table(2, u), u)
    assert report.verdict == "certified"
    assert report.branch == "undetermined"
    assert report.scheme == ALMOST_DI
    ids = {c.id for c in report.checks}
    assert "step1.joint[00]" in ids
    assert "step1.rate[11]" in ids
    assert "step2.fsum[01]" in ids
    assert "branch.pair[1,2]" in ids
    assert len(report.checks) == 4 + 4 + 4 + 1


def test_reference_certifies_di():
    u = gate("cz", 2)
    report = certify(reference_table(2, u, scheme=DI), u)
    assert report.verdict == "certified"
    ids = {c.id for c in report.checks}
    assert "step1.k[1;0]" in ids
    assert "step1.rate[2;3]" in ids
    assert "step2.joint[10]" in ids
    assert "step2.rate[10]" in ids
    assert "step3.fsum[11]" in ids
    # 8 k-rows + 8 rate-rows + 4 + 4 + 4 + branch
    assert len(report.checks) == 16 + 12 + 1


def test_reference_certifies_three_parties():
    u = gate("toffoli", 3)
    report = certify(reference_table(3, u), u)
    assert report.verdict == "certified"
    worst = max(c.residual for c in report.checks)
    assert worst <= 1e-12


def test_rows_sorted_by_id():
    u = gate("cnot", 2)
    report = certify(reference_table(2, u), u)
    ids = [c.id for c in report.checks]
    assert ids == sorted(ids)


def test_realization_rows_added():
    u = gate("cnot", 2)
    real = reference_realization(2, u)
    report = certify(born_table(real), u, realization=real)
    assert report.verdict == "certified"
    assert report.branch == "plus"
    ids = {c.id for c in report.checks}
    for want in ("extract.frames", "extract.meas[00]", "extract.unitary",
                 "extract.blocks", "extract.fidelity"):
        assert want in ids
    minus = reference_realization(2, u, branch=-1)
    report_minus = certify(born_table(minus), u, realization=minus)
    assert report_minus.verdict == "certified"
    assert report_minus.branch == "minus"


def test_conjugated_realization_flips_branch_same_table():
    u = gate("random", 2, seed=4)
    real = reference_realization(2, u)
    conj = conjugate(real)
    assert born_table(real).max_difference(born_table(conj)) <= 1e-14
    rep_a = certify(born_table(real), u, realization=real)
    rep_b = certify(born_table(conj), u, realization=conj)
    assert rep_a.verdict == rep_b.verdict == "certified"
    assert (rep_a.branch, rep_b.branch) == ("plus", "minus")


def test_dilated_realization_still_certifies():
    u = gate("cz", 2)
    real = dilate(reference_realization(2, u), junk_dim=2, seed=1)
    report = certify(born_table(real), u, realization=real)
    assert report.verdict == "certified"
    assert report.branch == "plus"


def test_wrong_gate_fails_step2():
    u = gate("cnot", 2)
    report = certify(reference_table(2, u), gate("swap", 2))
    assert report.verdict == "not-certified"
    failing = {c.id for c in report.failed()}
    assert failing == {f"step2.fsum[{b}]" for b in ("00", "01", "10", "11")}


def test_perturbed_eve_fails():
    u = gate("cnot", 2)
    real = perturb(reference_realization(2, u), epsilon=0.1, seed=0)
    report = certify(born_table(real), u, tol=1e-6)
    assert report.verdict == "not-certified"
    assert any(c.id.startswith("step2.fsum") for c in report.failed())
    # step 1 involves no eve rows, so it still passes
    assert all(not c.id.startswith("step1.") for c in report.failed())


def test_corrupted_entry_fails_named_row():
    u = gate("cz", 2)
    table = reference_table(2, u)
    entries = {k: np.array(table.array(k)) for k in table.keys()}
    arr = entries[((0, 0), 0)].copy()
    arr[0, 0, 0] += 1e-3
    entries[((0, 0), 0)] = arr
    bad = ProbabilityTable(ALMOST_DI, 2, entries)
    report = certify(bad, u)
    assert report.verdict == "not-certified"
    failing = {c.id for c in report.failed()}
    assert "step1.rate[00]" in failing


@pytest.mark.parametrize("key", [((0, 0), 0), ((2, 2), 1)])
def test_missing_row_is_named_without_revalidating_keys(monkeypatch, key):
    """A row the checks read and the table lacks raises the error
    ``ProbabilityTable.array`` gives for it; the rows are read by the keys
    the check weights hold, with no second call to ``ScenarioSpec.row``."""
    u = gate("cz", 2)
    table = reference_table(2, u)
    certify(table, u)  # builds the memoized checks
    lacking = ProbabilityTable(ALMOST_DI, 2, {k: v for k, v in table.entries.items() if k != key})
    message = f"settings row {key} is missing from the table"
    with pytest.raises(ValueError, match=r"^settings row ") as err:
        lacking.array(key)
    assert str(err.value) == message
    calls = []
    row = ScenarioSpec.row
    monkeypatch.setattr(ScenarioSpec, "row", lambda self, *args: calls.append(args) or row(self, *args))
    with pytest.raises(ValueError) as err:
        certify(lacking, u)
    assert str(err.value) == message
    assert calls == []


def test_mixed_branch_detected_from_table():
    real = reference_realization(2, gate("cz", 2))
    third = Operator(-real.a_obs[1][2].entries, (2,))
    mixed = replace(real, a_obs=(real.a_obs[0], (real.a_obs[1][0], real.a_obs[1][1], third)))
    report = certify(born_table(mixed), gate("cz", 2))
    assert report.branch == "mixed"
    assert report.verdict == "not-certified"
    assert any(c.id == "branch.pair[1,2]" for c in report.failed())
    with_real = certify(born_table(mixed), gate("cz", 2), realization=mixed)
    assert with_real.branch == "mixed"
    assert with_real.verdict == "not-certified"


def test_certify_guards():
    u = gate("cnot", 2)
    table = reference_table(2, u)
    with pytest.raises(ValueError):
        certify(table, gate("toffoli", 3))
    with pytest.raises(ValueError):
        certify(table, Operator(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex), (2, 2)))
    with pytest.raises(ValueError):
        certify(table, u, realization=reference_realization(2, u, scheme=DI))


def test_report_roundtrip(tmp_path):
    u = gate("cnot", 2)
    real = reference_realization(2, u)
    report = certify(born_table(real), u, realization=real)
    path = tmp_path / "report.json"
    write_json(str(path), report.to_record())
    back = CertificationReport.from_record(json.loads(path.read_text()))
    assert back.to_record() == report.to_record()
    assert back.verdict == "certified"
    with pytest.raises(ValueError):
        CertificationReport.from_record({"kind": "other"})


def test_summary_text():
    u = gate("cz", 2)
    report = certify(reference_table(2, u), u)
    text = report.summary()
    assert "verdict: certified" in text
    assert "branch: undetermined" in text
    assert text.count("PASS") == len(report.checks)


def test_zero_probability_event_fails_named_row(zero_element_repeater):
    """r_1=1 never occurs: the K functional conditioned on it has no value,
    which is a failing row naming the event, not an exception."""
    u = gate("cnot", 2)
    table = born_table(zero_element_repeater)
    assert np.all(table.array(((0, 0), 0, "perp"))[:, :, 1] == 0.0)
    for report in (certify(table, u), certify(table, u, realization=zero_element_repeater)):
        assert report.verdict == "not-certified"
        row = next(c for c in report.checks if c.id == "step1.k[1;1]")
        assert not row.passed
        assert row.detail == "r_1=1 has probability 0"


def _late_extraction_failure(scheme):
    """n=2 cnot realizations whose frames are built but whose extraction
    fails later: in almost_di party 1's third observable is its first, so
    the branch has no y-direction to read; in di repeater 1's outcome 0 has
    the zero element, so the teleported box elements vanish."""
    real = reference_realization(2, gate("cnot", 2), scheme=scheme)
    if scheme == ALMOST_DI:
        a = real.a_obs[0]
        return replace(real, a_obs=((a[0], a[1], a[0]),) + real.a_obs[1:])
    r = real.repeaters[0]
    zero = Operator(np.zeros((4, 4)), r[0].dims)
    return replace(real, repeaters=((zero, r[1], r[2], Operator(r[3].entries + r[0].entries, r[3].dims)),) + real.repeaters[1:])


@pytest.mark.parametrize(
    "scheme, row_id, reason",
    [
        (ALMOST_DI, "extract.branch", "party 1: third observable has no overlap with the frame's y-direction"),
        (DI, "extract.meas", "teleported box elements vanish; repeater outcome 0 has no weight"),
    ],
)
def test_late_extraction_failure_fails_named_row(scheme, row_id, reason):
    """Extraction failing after its frames are built gives a failing row
    that names the reason, not an exception, and the verdict of the
    statistics alone."""
    u, real = gate("cnot", 2), _late_extraction_failure(scheme)
    table = born_table(real)
    assert certify(table, u).verdict == "not-certified"
    report = certify(table, u, realization=real)
    assert report.verdict == "not-certified"
    rows = {c.id: c for c in report.checks}
    assert rows["extract.frames"].passed
    assert not rows[row_id].passed
    assert rows[row_id].detail == reason


@settings(max_examples=25)
@given(hidden_side_pairs())
def test_statistics_only_report_invariant_under_hidden_side_changes(case):
    """Dilation, conjugation and GHZ-basis phases behind the central node
    leave the statistics-only report unchanged."""
    u, real, moved = case
    base = certify(born_table(real), u)
    report = certify(born_table(moved), u)
    assert report.verdict == base.verdict
    assert [c.id for c in report.checks] == [c.id for c in base.checks]
    assert max(abs(a.lhs - b.lhs) for a, b in zip(report.checks, base.checks)) <= 1e-12
