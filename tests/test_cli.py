"""Command line behavior: files written, exit codes, determinism."""

import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from table_files import move_mass, table_lines, with_change

from gatecert import cli
from gatecert.adversary import AdversarySpec, save_adversary
from gatecert.certify import CertificationReport, certify, protocol_rows
from gatecert.cli import main
from gatecert.network import DI, SCHEMES, ScenarioSpec, born_table, load_table, reference_realization, save_table
from gatecert.primitives import gate


def test_simulate_writes_table_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "simulate", "--scheme", "almost-di", "--n", "2", "--gate", "cz",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "table.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 18  # header plus one record per 9x2 settings row
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scheme"] == "almost_di"
    assert np.allclose(summary["p_l"], 0.25)
    assert "p_r" not in summary
    assert "table.jsonl" in capsys.readouterr().out


def test_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch, capsys):
    """``build_parser`` is cached; ``main`` finds each command on the module
    at call time, so a command rebound after the first parse still runs."""
    assert main(["decompose", "--n", "2", "--gate", "cz"]) == 0
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_decompose", lambda args: 7)
    assert main(["decompose", "--n", "2", "--gate", "cz"]) == 7


def test_simulate_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--n", "2", "--gate", "cnot", "--out", str(out)]) == 0
        outs.append((out / "table.jsonl").read_bytes() + (out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_di_reports_repeater_marginals(tmp_path):
    out = tmp_path / "di"
    assert main(["simulate", "--scheme", "di", "--n", "2", "--gate", "cz", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert np.allclose(summary["p_r"], 0.25)
    table = load_table(str(out / "table.jsonl"))
    assert table.scheme == "di"


def test_simulate_rejects_bad_gate(tmp_path, capsys):
    code = main(["simulate", "--n", "2", "--gate", "not_a_gate", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_certify_generated_reference(tmp_path, capsys):
    out = tmp_path / "cert"
    code = main([
        "certify", "--scheme", "di", "--n", "2", "--gate", "cnot", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "certified"
    assert report["branch"] == "plus"
    ids = [c["id"] for c in report["checks"]]
    assert "extract.fidelity" in ids
    assert "verdict: certified" in capsys.readouterr().out


def test_certify_statistics_only_mode(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--n", "2", "--gate", "cz", "--out", str(run)]) == 0
    code = main(["certify", "--gate", "cz", "--table", str(run / "table.jsonl")])
    assert code == 0
    out = capsys.readouterr().out
    assert "operator-level checks unavailable" in out
    assert "branch: undetermined" in out


def test_certify_corrupted_table_exits_one(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--n", "2", "--gate", "cz", "--out", str(run)]) == 0
    lines = (run / "table.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    # a checkerboard over (a_1, l) at a_2 = 0: the row still sums to one and
    # no marginal moves, so the table loads, but its correlations are wrong
    for k, step in ((0, -0.004), (1, 0.004), (8, 0.004), (9, -0.004)):
        rec["p"][k] += step
    lines[3] = json.dumps(rec, sort_keys=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["certify", "--gate", "cz", "--table", str(bad)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_certify_unnormalized_row_exits_two(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--n", "2", "--gate", "cz", "--out", str(run)]) == 0
    lines = (run / "table.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["p"][0] += 0.004
    lines[3] = json.dumps(rec, sort_keys=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["certify", "--gate", "cz", "--table", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 4: p sums to 1.00399" in err


def test_certify_record_missing_field_exits_two(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--n", "2", "--gate", "cz", "--out", str(run)]) == 0
    lines = (run / "table.jsonl").read_text().splitlines()
    rec = json.loads(lines[5])
    del rec["p"]
    lines[5] = json.dumps(rec, sort_keys=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["certify", "--gate", "cz", "--table", str(bad)]) == 2
    assert "line 6: record lacks field 'p'" in capsys.readouterr().err


def test_certify_zero_probability_event_exits_one(tmp_path, capsys, zero_element_repeater):
    """The failing row names the event on stdout and in the report file,
    which reads back as the report ``certify`` returns."""
    table = born_table(zero_element_repeater)
    path = tmp_path / "table.jsonl"
    save_table(table, str(path))
    argv = ["certify", "--scheme", "di", "--gate", "cnot", "--table", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL  step1.k[1;1]" in out
    assert "r_1=1 has probability 0" in out
    assert "verdict: not-certified" in out
    rec = json.loads((tmp_path / "run" / "report.json").read_text())
    row = next(row for row in rec["checks"] if row["id"] == "step1.k[1;1]")
    assert row["detail"] == "r_1=1 has probability 0" and row["passed"] is False
    assert CertificationReport.from_record(rec) == certify(table, gate("cnot", 2))


def test_certify_wrong_gate_exits_one(tmp_path):
    run = tmp_path / "run"
    assert main(["simulate", "--n", "2", "--gate", "cnot", "--out", str(run)]) == 0
    assert main(["certify", "--gate", "swap", "--table", str(run / "table.jsonl")]) == 1


def test_certify_flag_validation(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--n", "2", "--gate", "cz", "--out", str(run)]) == 0
    assert main(["certify", "--gate", "cz", "--table", str(run / "table.jsonl"), "--n", "3"]) == 2
    assert main(["certify", "--gate", "cz", "--table", str(tmp_path / "absent.jsonl")]) == 2
    assert main(["certify", "--gate", "cz", "--n", "2", "--tol", "-1"]) == 2
    assert main(["certify", "--gate", "cz"]) == 2  # no table and no --n
    capsys.readouterr()


def test_certify_table_scheme_must_match(tmp_path, capsys):
    """With --table an omitted --scheme means the table's scheme; a
    mismatched one exits 2 and names both."""
    run = tmp_path / "run"
    assert main(["simulate", "--scheme", "di", "--n", "2", "--gate", "cz", "--out", str(run)]) == 0
    path = str(run / "table.jsonl")
    assert main(["certify", "--gate", "cz", "--table", path]) == 0
    assert main(["certify", "--scheme", "di", "--gate", "cz", "--table", path]) == 0
    capsys.readouterr()
    assert main(["certify", "--scheme", "almost-di", "--gate", "cz", "--table", path]) == 2
    assert "--scheme almost-di does not match table scheme=di" in capsys.readouterr().err
    almost = tmp_path / "almost"
    assert main(["simulate", "--n", "2", "--gate", "cz", "--out", str(almost)]) == 0
    assert main(["certify", "--scheme", "di", "--gate", "cz", "--table", str(almost / "table.jsonl")]) == 2
    assert "--scheme di does not match table scheme=almost_di" in capsys.readouterr().err


def test_certify_table_rejects_realization_flags(tmp_path, capsys):
    """A table fixes the statistics: --adversary and --branch cannot apply
    to it and exit 2 with a reason instead of being ignored."""
    run = tmp_path / "run"
    assert main(["simulate", "--scheme", "di", "--n", "2", "--gate", "cnot", "--out", str(run)]) == 0
    adv = tmp_path / "adv.json"
    save_adversary(AdversarySpec("conjugate"), str(adv))
    path = str(run / "table.jsonl")
    capsys.readouterr()
    for extra, flag in ((["--adversary", str(adv)], "--adversary"), (["--branch", "minus"], "--branch"),
                        (["--branch", "plus"], "--branch")):
        assert main(["certify", "--gate", "cnot", "--table", path] + extra) == 2
        assert f"error: {flag} does not apply with --table" in capsys.readouterr().err
    assert main(["certify", "--gate", "cnot", "--table", path]) == 0
    assert main(["certify", "--scheme", "di", "--n", "2", "--gate", "cnot", "--branch", "minus"]) == 0


def test_certify_explain_prints_check_weights(tmp_path, capsys):
    assert main(["certify", "--n", "2", "--gate", "cnot", "--explain", "step1.rate[01]"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step1.rate[01]: expected 0.25"
    assert lines[1] == "row x=(0, 0) e=0: 4 nonzero weights at (a_1, a_2, l)"
    assert lines[2:] == [f"  ({a1}, {a2}, 1) 1.0" for a1 in (0, 1) for a2 in (0, 1)]
    run = tmp_path / "run"
    assert main(["simulate", "--scheme", "di", "--n", "2", "--gate", "cz", "--out", str(run)]) == 0
    capsys.readouterr()
    path = str(run / "table.jsonl")
    assert main(["certify", "--gate", "cz", "--table", path, "--explain", "step1.k[2;1]"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step1.k[2;1]: expected 2.0; each row's value is divided by the row's probability of r_2=1")
    assert "row x=(0, 1) e=0 y=(0, 1):" in out
    assert main(["certify", "--gate", "cz", "--table", path, "--explain", "extract.unitary"]) == 2
    assert "error: unknown check id 'extract.unitary'; the table checks are branch.pair[1,2], " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--op-tol", "-1"), ("--op-tol", "0"), ("--op-tol", "nan")],
)
def test_certify_rejects_bad_tolerance(capsys, flag, value):
    assert main(["certify", "--n", "2", "--gate", "cz", flag, value]) == 2
    assert f"error: {flag} must be positive and finite, got" in capsys.readouterr().err


def test_certify_adversary_flag(tmp_path):
    adv = tmp_path / "adv.json"
    save_adversary(AdversarySpec("dilate", junk_dim=2, seed=5), str(adv))
    code = main([
        "certify", "--n", "2", "--gate", "cz", "--adversary", str(adv),
    ])
    assert code == 0
    save_adversary(AdversarySpec("perturb", epsilon=0.1, seed=1), str(adv))
    code = main([
        "certify", "--n", "2", "--gate", "cz", "--adversary", str(adv), "--tol", "1e-6",
    ])
    assert code == 1


@pytest.mark.parametrize(
    "flags, spec",
    [
        (["--n", "2", "--gate", "cnot"], AdversarySpec("dilate", junk_dim=2, seed=5)),
        (["--n", "2", "--gate", "random", "--seed", "9"], AdversarySpec("depolarize", eta=0.05)),
        (["--n", "3", "--gate", "toffoli"], None),
    ],
    ids=["n2-cnot-dilate", "n2-random-depolarize", "n3-toffoli"],
)
def test_certify_protocol_rows_print_the_full_table_report(tmp_path, monkeypatch, capsys, flags, spec):
    """Realization-mode certify computes the protocol rows only, and prints
    and writes the bytes it gives when it certifies the full table."""
    argv = ["certify", "--scheme", "di", *flags, "--out", str(tmp_path / "out")]
    if spec is not None:
        save_adversary(spec, str(tmp_path / "adv.json"))
        argv += ["--adversary", str(tmp_path / "adv.json")]
    tables = []
    outputs = []
    for full in (False, True):
        def kernel(real, rows=None):
            tables.append(born_table(real, rows=None if full else rows))
            return tables[-1]

        monkeypatch.setattr(cli, "born_table", kernel)
        code = main(argv)
        outputs.append((code, capsys.readouterr().out, (tmp_path / "out" / "report.json").read_bytes()))
    scen = ScenarioSpec(DI, int(flags[1]))
    assert [len(table.keys()) for table in tables] == [len(protocol_rows(DI, scen.n)), len(list(scen.settings()))]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "record, reason",
    [
        ([1, 2], "adversary record must be a mapping"),
        ({"kind": "gauge_phase", "thetas": 5}, "adversary field 'thetas' has malformed value 5"),
        ({"kind": "dilate", "junk_dim": None}, "adversary field 'junk_dim' has malformed value None"),
        ({"kind": "dilate", "seed": 1.5}, "adversary field 'seed' has malformed value 1.5"),
        ({"kind": "dilate", "rotate": "false"}, "adversary field 'rotate' has malformed value 'false'"),
        ({"kind": "perturb", "eps": 0.05}, "perturb adversary record has unknown field(s) 'eps'"),
        ({"kind": "perturb", "eta": 0.1}, "perturb adversary record has unknown field(s) 'eta'"),
        ({"kind": "conjugate", "seed": 1, "tag": 0}, "conjugate adversary record has unknown field(s) 'seed', 'tag'"),
    ],
    ids=["list", "thetas-number", "junk-null", "seed-float", "rotate-string", "misspelled", "other-kind", "two-unknown"],
)
def test_certify_malformed_adversary_exits_two(tmp_path, capsys, record, reason):
    adv = tmp_path / "adv.json"
    adv.write_text(json.dumps(record))
    assert main(["certify", "--n", "2", "--gate", "cz", "--adversary", str(adv)]) == 2
    assert f"error: {reason}" in capsys.readouterr().err


def test_di_three_subnet_table_roundtrip(tmp_path, monkeypatch, capsys):
    """The largest table the CLI writes loads back exactly and certifies."""
    loaded = []

    def load_and_keep(path):
        loaded.append(load_table(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_table", load_and_keep)
    run = tmp_path / "run"
    assert main(["simulate", "--scheme", "di", "--n", "3", "--gate", "toffoli", "--out", str(run)]) == 0
    assert main(["certify", "--gate", "toffoli", "--table", str(run / "table.jsonl")]) == 0
    assert "verdict: certified" in capsys.readouterr().out
    table = born_table(reference_realization(3, gate("toffoli", 3), scheme=DI))
    assert table.max_difference(loaded[0]) == 0.0


@settings(max_examples=20)
@given(
    st.sampled_from(SCHEMES),
    st.integers(1, 18),
    st.sampled_from(["party A_1", "party A_2", "party L", "box 1", "box 2"]),
    st.floats(1e-9, 1e-3),
)
def test_certify_signalling_table_exits_two(tmp_path_factory, scheme, index, who, amount):
    """Moving mass between the outcomes of one row keeps the row's sum but
    makes a party signal; certify --table exits 2 and names it.  Mass moves
    between the a_i outcomes for party A_i, between joint outcomes l of an
    almost_di or a di perp row for L, and between outcomes l that differ in
    box i's bit of a di row y != perp for box i."""
    assume(scheme == DI or not who.startswith("box"))
    lines = table_lines(scheme)
    if who.startswith("party A"):
        rows, edit = range(1, len(lines)), move_mass(scheme, int(who[-1]) - 1, amount)
    else:
        perp = who == "party L"
        rows = [k for k in range(1, len(lines)) if scheme != DI or (json.loads(lines[k])["y"] == "perp") == perp]
        edit = move_mass(scheme, -1, amount, flip=1 if perp else 2 ** (2 - int(who[-1])))
    lines = with_change(lines, rows[index % len(rows)], {"p": edit})
    bad = tmp_path_factory.mktemp("signalling") / "table.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["certify", "--gate", "cz", "--table", str(bad)])
    assert code == 2
    assert f"error: signalling: {who}'s marginal differs by" in err.getvalue()


@pytest.mark.parametrize(
    "spec, amplitudes",
    [(AdversarySpec("dilate", junk_dim=3, seed=1), 60466176)],
    ids=["dilate"],
)
def test_simulate_oversized_realization_exits_two(tmp_path, capsys, spec, amplitudes):
    """di n=3 dilated by junk of dimension 3 has a perp block past the cap:
    simulate exits 2 naming the amplitude count of the first layer that
    would be too large, before allocating it."""
    adv = tmp_path / "adv.json"
    save_adversary(spec, str(adv))
    argv = ["simulate", "--scheme", "di", "--n", "3", "--gate", "toffoli", "--adversary", str(adv), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert f"a layer's output would hold {amplitudes} amplitudes" in capsys.readouterr().err
    assert not (tmp_path / "run" / "table.jsonl").exists()


def test_simulate_admits_depolarized_di_three_subnets(tmp_path):
    """di n=3 depolarized: each L wing is compressed from 8 to 2 dimensions,
    so the perp block holds 4^3 * 8 * (4 * 2)^3 = 262144 amplitudes, not
    16^6 past the cap, and simulate writes the whole table."""
    adv = tmp_path / "adv.json"
    save_adversary(AdversarySpec("depolarize", eta=0.05), str(adv))
    argv = ["simulate", "--scheme", "di", "--n", "3", "--gate", "toffoli", "--adversary", str(adv), "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    with open(tmp_path / "run" / "table.jsonl") as fh:
        assert sum(1 for _ in fh) == 1 + len(list(ScenarioSpec(DI, 3).settings()))


@pytest.mark.parametrize(
    "record, reason",
    [
        ({"kind": "dilate", "junk_dim": 64}, "a junk_dim=64 dilation's largest matrix would hold 268435456 amplitudes"),
        ({"kind": "dilate", "junk_dim": True}, "adversary field 'junk_dim' has malformed value True"),
        ({"kind": "depolarize", "eta": "0.1"}, "adversary field 'eta' has malformed value '0.1'"),
        ({"kind": "perturb", "epsilon": 10**400}, f"adversary field 'epsilon' has malformed value {10**400!r}"),
    ],
    ids=["oversized", "junk-boolean", "eta-string", "epsilon-huge"],
)
def test_simulate_adversary_input_errors_exit_two(tmp_path, capsys, record, reason):
    """An adversary spec that names a boolean or a string for a number, or a
    dilation whose matrices would need 4 GiB, exits 2 before anything large
    is allocated."""
    adv, run = tmp_path / "adv.json", tmp_path / "run"
    adv.write_text(json.dumps(record))
    argv = ["simulate", "--scheme", "di", "--n", "2", "--gate", "cz", "--adversary", str(adv), "--out", str(run)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"error: {reason}" in capsys.readouterr().err
    assert peak < 100 * 2**20
    assert not run.exists()


def test_gate_file_input(tmp_path):
    spec = {"matrix": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                       [[0, 0], [1, 0], [0, 0], [0, 0]],
                       [[0, 0], [0, 0], [0, 0], [1, 0]],
                       [[0, 0], [0, 0], [1, 0], [0, 0]]]}
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(spec))
    assert main(["certify", "--n", "2", "--gate", str(path)]) == 0


def test_bounds_command(tmp_path, capsys):
    out = tmp_path / "bounds"
    code = main(["bounds", "--n", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "bounds.json").read_text())
    rows = {r["functional"]: r for r in payload["rows"]}
    assert len(rows) == 8
    for l in ("00", "01", "10", "11"):
        row = rows[f"I[{l}]"]
        assert np.isclose(row["classical"], 1 + np.sqrt(2), atol=1e-9)
        assert row["seesaw"] >= 3 - 1e-6
        assert row["reference"] == 3.0
    for k, signs in enumerate(("00", "01", "11", "10")):
        row = rows[f"K[1;{signs}]"]
        assert np.isclose(row["classical"], np.sqrt(2), atol=1e-9)
        assert row["seesaw"] >= 2 - 1e-6
    assert "classical" in capsys.readouterr().out


_BOUNDS_ROW = "{:>12}: classical {}  seesaw {}  reference {}\n"


def _bounds_rows(n, classical, seesaw):
    """``gatecert bounds --n n``'s rows: the I functionals, then the K ones."""
    rows = [(f"I[{l:0{n}b}]", classical, seesaw) for l in range(2**n)]
    rows += [(f"K[1;{signs}]", "1.414213562", "2.000000000") for signs in ("00", "01", "11", "10")]
    return "".join(_BOUNDS_ROW.format(label, c, s, s) for label, c, s in rows)


BOUNDS_STDOUT = {2: _bounds_rows(2, "2.414213562", "3.000000000"), 3: _bounds_rows(3, "4.828427125", "6.000000000")}


@pytest.mark.parametrize("n", [2, 3])
def test_bounds_stdout_is_frozen(capsys, n):
    """``gatecert bounds`` prints these bytes with eight restarts and seed 0."""
    assert main(["bounds", "--n", str(n), "--restarts", "8", "--seed", "0"]) == 0
    assert capsys.readouterr().out == BOUNDS_STDOUT[n]


FROZEN_FLAGS = {
    "di-n2-cnot": ["--scheme", "di", "--n", "2", "--gate", "cnot"],
    "almost_di-n3-toffoli": ["--n", "3", "--gate", "toffoli"],
    "di-n3-random": ["--scheme", "di", "--n", "3", "--gate", "random", "--seed", "5"],
}
# sha256 of the exit code and stdout (the output directory written as OUT),
# then of report.json where the command writes one
FROZEN_DIGESTS = {
    "di-n2-cnot": "f2a1c33e4dacc3532809dfc2736bd7aff9c579143183907262dfecba596e64a7",
    "di-n2-cnot --table": "d87dbccbe7e51d8bbc0829e46cf154c296bed474c37759e768b69a748d35ff3e",
    "almost_di-n3-toffoli": "b862120b518456e0cf30ecee9c1590e377f1d2a1fbd778a9d583e7e896303c87",
    "almost_di-n3-toffoli --table": "0f6b8da5d98adf14a559d03125d02f2ca5bbe665f6d20c0bbaba8a862dfcf2be",
    "di-n3-random": "e1605fe7efebe20e69deaf0374232b3749f5cf926205661f401b495b27ea910e",
    "di-n3-random --table": "6e73c01fd8cdd62ba18cc1188f5c78c2a117e4a092788779721c8c57f97aa7ed",
    "decompose": "70d7583a7a56472aecb586aa5a0738ee0644a1ba5f848e866f27b04232c5dc73",
    "explain": "2f47219c062ec29acf71f09c83779b07b1303cc06797951f6388cf99ba61fc74",
}


def _output_digest(argv, out) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    digest = hashlib.sha256(f"{code}\n{buf.getvalue().replace(str(out), 'OUT')}".encode())
    if argv[0] == "certify" and "--out" in argv:
        digest.update((out / "report.json").read_bytes())
    return digest.hexdigest()


def test_certify_outputs_are_frozen(tmp_path):
    """``certify`` in realization mode and on its ``simulate`` table, the
    ``decompose`` listing and an f-sum ``--explain`` give these bytes."""
    got = {}
    for name, flags in FROZEN_FLAGS.items():
        got[name] = _output_digest(["certify", *flags, "--out", str(tmp_path)], tmp_path)
        assert main(["simulate", *flags, "--out", str(tmp_path)]) == 0
        table = str(tmp_path / "table.jsonl")
        got[name + " --table"] = _output_digest(["certify", *flags, "--table", table, "--out", str(tmp_path)], tmp_path)
    got["decompose"] = _output_digest(["decompose", "--n", "3", "--gate", "toffoli"], tmp_path)
    explain = ["certify", "--scheme", "di", "--n", "3", "--gate", "toffoli", "--explain", "step3.fsum[000]"]
    got["explain"] = _output_digest(explain, tmp_path)
    assert got == FROZEN_DIGESTS


def test_decompose_command(tmp_path, capsys):
    out = tmp_path / "dec"
    code = main(["decompose", "--n", "2", "--gate", "cnot", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "decomp.json").read_text())
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        assert np.isclose(row["sum_of_squares"], 0.25, atol=1e-12)
    assert "sum of squares" in capsys.readouterr().out


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "gatecert.cli", "simulate", "--n", "2",
         "--gate", "identity", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "table.jsonl").exists()


def test_bounds_refuses_nonpositive_restarts(capsys):
    assert main(["bounds", "--n", "2", "--restarts", "-3"]) == 2
    assert "error: --restarts must be at least 1, got -3" in capsys.readouterr().err


def test_bounds_refuses_a_batch_beyond_the_amplitude_limit(capsys):
    """10^9 restarts would need 477 GiB: the see-saw refuses them, naming
    the size, before it draws anything."""
    tracemalloc.start()
    try:
        code = main(["bounds", "--n", "2", "--restarts", "1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "error: a see-saw of 1000000000 restarts would hold 32000000000 amplitudes (476.8 GiB)" in err
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "record, field",
    [({"kind": "perturb", "seed": 3}, "epsilon"), ({"kind": "depolarize"}, "eta"), ({"kind": "gauge_phase"}, "thetas")],
    ids=["perturb", "depolarize", "gauge_phase"],
)
def test_adversary_spec_without_its_strength_exits_two(tmp_path, capsys, record, field):
    """At its default strength a perturb or depolarize spec would run the
    unchanged realization, and a gauge without phases has nothing to apply,
    so a spec must give it; dilate keeps its defaults, as in the README's
    example."""
    adv = tmp_path / "adv.json"
    adv.write_text(json.dumps(record))
    assert main(["certify", "--n", "2", "--gate", "cz", "--adversary", str(adv)]) == 2
    kind = record["kind"]
    assert f"error: {kind} adversary record is missing field(s) '{field}' (in adversary spec" in capsys.readouterr().err
    adv.write_text(json.dumps({"kind": "dilate", "junk_dim": 2, "seed": 7}))
    assert main(["certify", "--n", "2", "--gate", "cz", "--adversary", str(adv)]) == 0


@pytest.mark.parametrize(
    "record, reason",
    [
        ({"kind": "gauge_phase", "thetas": [0.1, 0.2]}, "need 4 phases, got 2"),
        ({"kind": "depolarize", "eta": 1.5}, "depolarizing strength must be in [0, 1], got 1.5"),
        ({"kind": "dilate", "junk_dim": -1}, "junk dimension must be >= 1, got -1"),
    ],
    ids=["thetas-length", "eta-range", "junk-negative"],
)
def test_adversary_spec_the_realization_refuses_names_its_file(tmp_path, capsys, record, reason):
    """A well-formed spec that the realization refuses exits 2 with one
    line naming the spec file, as a malformed one does."""
    adv = tmp_path / "adv.json"
    adv.write_text(json.dumps(record))
    assert main(["certify", "--n", "2", "--gate", "cz", "--adversary", str(adv)]) == 2
    assert capsys.readouterr().err == f"error: {reason} (in adversary spec {adv})\n"


_NAN_IDENTITY = [[[float("nan") if (r, c) == (0, 0) else float(r == c), 0.0] for c in range(4)] for r in range(4)]


@pytest.mark.parametrize(
    "record, reason",
    [
        ({"matrix": _NAN_IDENTITY}, "matrix entries must be [re, im] pairs of numbers"),
        ({"random": True, "seed": 1.7}, "random gate seed must be an integer, got 1.7"),
        ({"random": True, "seed": True}, "random gate seed must be an integer, got True"),
        ({"name": "cnot", "colour": "red"}, "gate record has unknown field(s) 'colour'"),
        ({"name": "cnot", "random": True, "seed": 1}, "gate record needs exactly one of: name, matrix, random"),
        ({"name": "cnot", "seed": 1}, "gate record needs exactly one of: name, matrix, random (a seed goes"),
        ({"random": 1, "seed": 1}, 'random gate record needs "random": true and a seed'),
        ({"random": True}, 'random gate record needs "random": true and a seed'),
        ({"matrix": [[[10**400, 0]]]}, "matrix entries must be [re, im] pairs of numbers"),
        ({"matrix": [[[True, 0]]]}, "matrix entries must be [re, im] pairs of numbers"),
    ],
    ids=[
        "nan-matrix", "seed-float", "seed-boolean", "extra-field", "two-forms", "seed-with-name", "random-number",
        "random-no-seed", "matrix-huge", "matrix-boolean",
    ],
)
def test_gate_file_input_errors_exit_two(tmp_path, capsys, record, reason):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(record))
    assert main(["decompose", "--n", "2", "--gate", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {reason}" in captured.err
    assert "sum of squares" not in captured.out


_INF_IDENTITY = [[[float("inf") if (r, c) == (0, 0) else float(r == c), 0.0] for c in range(4)] for r in range(4)]


@pytest.mark.parametrize(
    "argv, text, reason",
    [
        (["bounds", "--n", "2", "--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
        (["certify", "--n", "2", "--gate", "cz", "--adversary"], '{"kind": "dilate", "seed": -3}',
         "adversary seed must be non-negative, got -3 (in adversary spec"),
        (["decompose", "--n", "2", "--gate"], '{"random": true, "seed": -2}',
         "random gate seed must be non-negative, got -2 (in gate file"),
        (["simulate", "--n", "2", "--gate", "cz", "--out", "run", "--adversary"], '{"kind": "perturb", "epsilon": 1e400}',
         "adversary field 'epsilon' has malformed value inf (in adversary spec"),
        (["certify", "--n", "2", "--gate", "cz", "--adversary"], '{"kind": "gauge_phase", "thetas": [NaN, 0, 0, 0]}',
         "adversary field 'thetas' has malformed value [nan, 0, 0, 0] (in adversary spec"),
        (["decompose", "--n", "2", "--gate"], json.dumps({"matrix": _INF_IDENTITY}),
         "matrix entries must be [re, im] pairs of numbers (in gate file"),
    ],
    ids=["bounds-seed", "adversary-seed", "gate-seed", "epsilon-inf", "thetas-nan", "matrix-inf"],
)
def test_negative_seed_or_non_finite_number_exits_two(tmp_path, monkeypatch, capsys, recwarn, argv, text, reason):
    """A negative seed, or a NaN or infinite JSON number, exits 2 with a
    reason that names the field, before any numpy warning can be raised."""
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "input.json").write_text(text)
        argv = argv + ["input.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1
    assert not recwarn.list
    assert not (tmp_path / "run").exists()


# The mutation property's inputs: each file's text and the command that reads it.
_CNOT_MATRIX = [[[float(v.real), 0.0] for v in row] for row in gate("cnot", 2).entries]
_DECOMPOSE = ["decompose", "--n", "2", "--gate"]
_ORIGINALS = {
    "table": ("\n".join(table_lines(DI)) + "\n", ["certify", "--gate", "cz", "--table"]),
    "adversary": (
        json.dumps(AdversarySpec("dilate", seed=7).to_record(), indent=2),
        ["certify", "--n", "2", "--gate", "cz", "--adversary"],
    ),
    "gate-matrix": (json.dumps({"matrix": _CNOT_MATRIX}, indent=2), _DECOMPOSE),
    "gate-name": (json.dumps({"name": "cnot"}, indent=2), _DECOMPOSE),
    "gate-random": (json.dumps({"random": True, "seed": 5}, indent=2), _DECOMPOSE),
}


def _values(kind, text):
    """The JSON values a file holds (a table's one per nonblank line), in a
    form that tells true from 1 and 1 from 1.0; None if it does not decode."""
    try:
        if kind == "table":
            return [json.dumps(json.loads(ln), sort_keys=True) for ln in text.splitlines() if ln.strip()]
        return json.dumps(json.loads(text), sort_keys=True)
    except ValueError:
        return None


def _nodes(value, path=()):
    """Every (path, value) in a JSON value, the value itself first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _json_type(value):
    return "bool" if isinstance(value, bool) else "number" if isinstance(value, (int, float)) else type(value).__name__


_PICKS = {
    "type": lambda path, value: True,
    "huge": lambda path, value: _json_type(value) == "number",
    "drop": lambda path, value: bool(path) and isinstance(path[-1], str),
    "extra": lambda path, value: isinstance(value, dict),
}


@st.composite
def mutated_inputs(draw):
    """(kind, original text, mutated text, whether exit 0 is allowed though
    the values changed): a dropped adversary field other than the kind falls
    back to its documented default, and any integer is a seed."""
    kind = draw(st.sampled_from(["table", "adversary", "gate"]))
    if kind == "gate":
        kind = draw(st.sampled_from(["gate-matrix", "gate-name", "gate-random"]))
    text = _ORIGINALS[kind][0]
    lines = text.splitlines(keepends=True)
    how = draw(st.sampled_from(["type", "huge", "drop", "extra", "truncate", "bom", "duplicate"]))
    k = draw(st.integers(0, len(lines) - 1))
    if how == "duplicate":
        return kind, text, "".join(lines[: k + 1] + lines[k:]), False
    if how == "truncate":
        cut = sum(map(len, lines[:k])) + draw(st.integers(1, max(1, len(lines[k].rstrip("\n")) - 1)))
        return kind, text, text[:cut], False
    if how == "bom":
        return kind, text, "\ufeff" + text, False
    doc = json.loads(lines[k] if kind == "table" else text)
    nodes = [node for node in _nodes(doc) if _PICKS[how](*node)]
    assume(nodes)
    path, value = draw(st.sampled_from(nodes))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "extra":
        value["extra"] = 1
    elif how == "drop":
        del parent[path[-1]]
    else:
        swaps = [v for v in (1, "1", True, None) if _json_type(v) != _json_type(value)]
        new = 10**400 if how == "huge" else draw(st.sampled_from(swaps))
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    valid = (kind == "adversary" and how == "drop" and path != ("kind",)) or (how == "huge" and path[-1:] == ("seed",))
    if kind != "table":
        return kind, text, json.dumps(doc, indent=2), valid
    lines[k] = json.dumps(doc) + "\n"
    return kind, text, "".join(lines), valid


@settings(max_examples=45)
@given(mutated_inputs())
def test_mutated_inputs_never_traceback(tmp_path_factory, mutation):
    """A di n=2 table, an adversary spec or a gate file, after one mutation
    (a value of another JSON type, a huge integer, a field dropped or added,
    the file cut inside a line, a UTF-8 BOM, a line repeated): the command
    that reads it exits 0, 1 or 2 and raises nothing, and exits 0 only when
    the file still holds the original values or a documented valid variant."""
    kind, text, mutated, valid = mutation
    path = tmp_path_factory.mktemp("mutated") / "input"
    path.write_text(mutated, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(_ORIGINALS[kind][1] + [str(path)])
    assert code in (0, 1, 2)
    assert code != 0 or valid or _values(kind, mutated) == _values(kind, text)
