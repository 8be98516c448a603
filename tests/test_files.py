"""The file layer: every file is replaced atomically, a malformed input
file is reported with its path, and no module but ``primitives`` writes,
dumps, loads or replaces a file."""

import ast
import errno
import io
import json
from pathlib import Path

import pytest
from table_files import table_lines

import gatecert
from gatecert import network
from gatecert.adversary import AdversarySpec, save_adversary
from gatecert.cli import main

SRC = Path(gatecert.__file__).parent
FILE_LAYER = "primitives.py"


def _half_then_fail(serializer):
    """``serializer`` that writes the first half of its text, then fails as
    a full disk would."""

    def write(obj, stream, **kw):
        text = io.StringIO()
        serializer(obj, text, **kw)
        stream.write(text.getvalue()[: len(text.getvalue()) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    return write


def _cli(*argv):
    return lambda out: main([*argv, "--out", str(out)])


def _spec(spec):
    def write(out):
        out.mkdir(exist_ok=True)
        save_adversary(spec, str(out / "adv.json"))
        return 0

    return write


SIMULATE = ("simulate", "--scheme", "di", "--n", "2", "--gate", "cnot")


@pytest.mark.parametrize(
    "name, owner, attr, first, second",
    [
        ("table.jsonl", network, "write_table", _cli(*SIMULATE), _cli(*SIMULATE[:-1], "cz")),
        ("summary.json", json, "dump", _cli(*SIMULATE), _cli(*SIMULATE[:-1], "cz")),
        ("report.json", json, "dump", _cli("certify", "--n", "2", "--gate", "cnot"),
         _cli("certify", "--n", "2", "--gate", "cz")),
        ("bounds.json", json, "dump", _cli("bounds", "--n", "2", "--restarts", "1"),
         _cli("bounds", "--n", "2", "--restarts", "1", "--seed", "1")),
        ("decomp.json", json, "dump", _cli("decompose", "--n", "2", "--gate", "cnot"),
         _cli("decompose", "--n", "2", "--gate", "cz")),
        ("adv.json", json, "dump", _spec(AdversarySpec("dilate", junk_dim=3, seed=9)),
         _spec(AdversarySpec("perturb", epsilon=0.05, seed=3))),
    ],
    ids=["table", "summary", "report", "bounds", "decomp", "adversary-spec"],
)
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, capsys, name, owner, attr, first, second):
    """A write whose serializer fails partway leaves the previous file byte
    for byte, and no temporary file."""
    out = tmp_path / "out"
    assert first(out) == 0
    before = (out / name).read_bytes()
    monkeypatch.setattr(owner, attr, _half_then_fail(getattr(owner, attr)))
    capsys.readouterr()
    try:
        code = second(out)
    except OSError as err:
        code = 2
        assert err.errno == errno.ENOSPC
    else:
        assert "No space left on device" in capsys.readouterr().err
    assert code == 2
    assert (out / name).read_bytes() == before
    assert not (out / (name + ".tmp")).exists()


HEADER = '{"kind": "probability_table", "n": 2, "scheme": "almost_di"}\n'


@pytest.mark.parametrize(
    "flags, what, text, reason",
    [
        (["--n", "2", "--gate"], "gate file", '{"name": "cz" "x": 1}',
         "Expecting ',' delimiter: line 1 column 15 (char 14)"),
        (["--n", "2", "--gate"], "gate file", '{"name": "toffoli"}', "toffoli is a 3-qubit gate"),
        (["--n", "2", "--gate", "cz", "--adversary"], "adversary spec", '{"kind": "dilate", "junk_dim": true}',
         "adversary field 'junk_dim' has malformed value True"),
        (["--gate", "cz", "--table"], "table file", HEADER + '{"e": 0, "p": [0.5, 0.5\n',
         "line 2, column 24: Expecting ',' delimiter"),
        (["--gate", "cz", "--table"], "table file", "\n".join([*table_lines()[:4], table_lines()[4][:30]]) + "\n",
         "line 5, column 31: Expecting ',' delimiter"),
        (["--gate", "cz", "--table"], "table file", '{"kind": "probability_table", "n": 2\n',
         "line 1, column 37: Expecting ',' delimiter"),
        (["--gate", "cz", "--table"], "table file", HEADER, "table lacks 18 of 18 settings rows, the first is ((0, 0), 0)"),
    ],
    ids=["gate-json", "gate-record", "adversary", "table-json", "table-json-line5", "table-header-json",
         "table-rows"],
)
def test_malformed_input_file_exits_two_naming_it(tmp_path, capsys, flags, what, text, reason):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["certify", *flags, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {reason} (in {what} {path})\n"


# the (module, function) calls only the file layer makes
_FILE_CALLS = {("json", "dump"), ("json", "load"), ("os", "replace")}


def _file_calls(source: str) -> list[str]:
    """Each call in ``source`` that writes, dumps, loads or replaces a file:
    ``json.dump``, ``json.load``, ``os.replace``, the same names imported
    from their modules, and ``open`` with a mode that is not plain reading."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any((node.module, a.name) in _FILE_CALLS for a in node.names):
            found.append(f"line {node.lineno}: from {node.module} import")
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and (f.value.id, f.attr) in _FILE_CALLS:
            found.append(f"line {node.lineno}: {f.value.id}.{f.attr}")
        if isinstance(f, ast.Name) and f.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes):
                found.append(f"line {node.lineno}: open for writing")
    return found


def test_only_the_file_layer_touches_files():
    calls = {path.name: _file_calls(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert calls.pop(FILE_LAYER)
    assert {name: found for name, found in calls.items() if found} == {}


def test_file_call_guard_sees_every_form():
    source = (
        "import json, os\nfrom json import dump\n"
        "json.dump(x, fh)\njson.load(fh)\nos.replace(a, b)\n"
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\nopen(p)\nopen(p, 'rb')\njson.loads(s)\nname.replace(a, b)\n"
    )
    assert len(_file_calls(source)) == 7
