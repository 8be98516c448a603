"""Qubit primitives: Pauli basis, GHZ-like states, reference boxes, gates.

Index conventions used throughout the package:

* Pauli index order is ``0 -> Z, 1 -> X, 2 -> Y, 3 -> identity``.
* A GHZ index is a tuple of bits ``(l1, ..., lN)``; its integer form reads
  the bits big-endian, so ``l1`` is the most significant bit.
* ``|phi_l> = (|l1...lN> + (-1)^l1 |~l1...~lN>) / sqrt(2)``; all amplitudes
  are real and the ``2^N`` vectors form an orthonormal basis.

The module also holds the file layer, the one code that opens or replaces a
file: ``write_file`` fills ``<path>.tmp`` and ``os.replace``s it over
``path``, so a write that raises partway leaves the previous file, and
``read_file`` adds the file to a ValueError, ``<reason> (in gate file g.json)``.
``write_json``/``read_json`` do the same for one JSON record.  Files are
UTF-8; a file that starts with a byte-order mark is refused by name.
"""

from __future__ import annotations

import codecs
import json
import operator
import os
from enum import Enum
from typing import Callable, Sequence, TextIO

import numpy as np

from .tensor import IDENTITY_TOL, Operator, StateVector

SQ2 = np.sqrt(2.0)

_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_I = np.eye(2, dtype=complex)
_PAULI = (_Z, _X, _Y, _I)


class SettingSymbol(Enum):
    """Symbolic measurement label: plain settings S0..S2, rotated combinations T0..T2, identity."""

    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    ID = "ID"


# Each symbol as a linear combination ((coeff, base setting), ...) of the
# base settings 0..2; ID is the identity and has no expansion.
EXPANSION: dict[SettingSymbol, tuple[tuple[float, int], ...]] = {
    SettingSymbol.S0: ((1.0, 0),),
    SettingSymbol.S1: ((1.0, 1),),
    SettingSymbol.S2: ((1.0, 2),),
    SettingSymbol.T2: ((1.0, 2),),
    SettingSymbol.T0: ((1 / SQ2, 0), (-1 / SQ2, 1)),
    SettingSymbol.T1: ((1 / SQ2, 0), (1 / SQ2, 1)),
}


def pauli(idx: int) -> Operator:
    """Single-qubit operator for a Pauli index (0=Z, 1=X, 2=Y, 3=identity)."""
    if idx not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {idx}")
    return Operator(_PAULI[idx], (2,))


def ghz_bits(l: int, n: int) -> tuple[int, ...]:
    """Bits (l1..lN) of an integer GHZ index, big-endian."""
    if not 0 <= l < 2**n:
        raise ValueError(f"GHZ index {l} out of range for n={n}")
    return tuple((l >> (n - 1 - i)) & 1 for i in range(n))


def ghz_int(bits: Sequence[int]) -> int:
    """Integer form of a GHZ bit tuple, big-endian."""
    out = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"GHZ bits must be 0/1, got {tuple(bits)}")
        out = (out << 1) | b
    return out


def ghz_state(bits: Sequence[int]) -> StateVector:
    """GHZ-like basis vector |phi_l> for the given bit tuple."""
    bits = tuple(int(b) for b in bits)
    n = len(bits)
    if n < 1:
        raise ValueError("GHZ index needs at least one bit")
    v = np.zeros(2**n, dtype=complex)
    idx = ghz_int(bits)
    v[idx] += 1.0
    v[idx ^ (2**n - 1)] += (-1.0) ** bits[0]
    return StateVector(v / SQ2, (2,) * n)


def ghz_basis(n: int) -> np.ndarray:
    """Matrix whose columns are |phi_l> for l = 0 .. 2^n - 1."""
    return np.column_stack([ghz_state(ghz_bits(l, n)).amplitudes for l in range(2**n)])


def phi_plus() -> StateVector:
    """Two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    return ghz_state((0, 0))


def _plain_observable(party: int, setting: int, branch: int) -> np.ndarray:
    if party == 1:
        table = ((_X + _Z) / SQ2, (_X - _Z) / SQ2, branch * _Y)
    else:
        table = (_Z, _X, branch * _Y)
    return table[setting]


def ref_observable(party: int, setting: int, branch: int = +1) -> Operator:
    """Reference observable of external party ``party`` (1-based).

    Party 1 uses the rotated pair ((X+Z)/sqrt2, (X-Z)/sqrt2, branch*Y); every
    other party uses (Z, X, branch*Y).  Party 1's ``T0``/``T1`` combinations
    of its first two settings (see ``EXPANSION``) evaluate to Z and X.
    """
    if party < 1:
        raise ValueError(f"party index is 1-based, got {party}")
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if setting not in (0, 1, 2):
        raise ValueError(f"setting must be 0..2, got {setting}")
    return Operator(_plain_observable(party, setting, branch), (2,))


def ref_b_observable(subnet: int, setting: int) -> Operator:
    """Reference binary observable of the final party's box for one subnet.

    Subnet 1 uses (Z, X); every other subnet uses the rotated pair, whose
    ``T0``/``T1`` combinations (see ``EXPANSION``) evaluate to Z and X.
    """
    if subnet < 1:
        raise ValueError(f"subnet index is 1-based, got {subnet}")
    if setting not in (0, 1):
        raise ValueError(f"box setting must be 0 or 1, got {setting}")
    if subnet == 1:
        return Operator((_Z, _X)[setting], (2,))
    return Operator(((_X + _Z) / SQ2, (_X - _Z) / SQ2)[setting], (2,))


_NAMED_GATES = {
    "identity": None,  # any n
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "toffoli": None,  # built below, n=3
}
_GATE_QUBITS = {"cz": 2, "cnot": 2, "swap": 2, "toffoli": 3}


def _toffoli() -> np.ndarray:
    m = np.eye(8, dtype=complex)
    m[[6, 7]] = m[[7, 6]]
    return m


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from a seeded complex Gaussian, via QR with phase fix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gate(spec: str | np.ndarray | Sequence[Sequence[complex]], n: int = 2, seed: int | None = None) -> Operator:
    """N-qubit gate from a name, an explicit matrix, or a seeded random draw.

    Names: identity (any n), cz, cnot, swap (n=2), toffoli (n=3), random
    (requires ``seed``).  Explicit matrices must be unitary 2^n x 2^n.
    """
    dim = 2**n
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "identity":
            return Operator(np.eye(dim, dtype=complex), (2,) * n)
        if name == "random":
            if seed is None:
                raise ValueError("random gate requires a seed")
            return Operator(haar_unitary(dim, seed), (2,) * n)
        if name == "toffoli":
            if n != 3:
                raise ValueError("toffoli is a 3-qubit gate")
            return Operator(_toffoli(), (2,) * n)
        if name in _NAMED_GATES and _NAMED_GATES[name] is not None:
            if n != _GATE_QUBITS[name]:
                raise ValueError(f"{name} is a {_GATE_QUBITS[name]}-qubit gate")
            return Operator(_NAMED_GATES[name], (2,) * n)
        raise ValueError(f"unknown gate name {spec!r}")
    m = np.asarray(spec, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"gate matrix must be {dim}x{dim} for n={n}, got {m.shape}")
    dev = float(np.max(np.abs(m.conj().T @ m - np.eye(dim))))
    if not dev <= IDENTITY_TOL:
        raise ValueError(f"gate matrix is not unitary (deviation {dev:.3e})")
    return Operator(m, (2,) * n)


def json_object(value, fields, what: str) -> dict:
    """``value`` if it is a JSON object whose keys all lie in ``fields``;
    otherwise ValueError naming the unknown keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a mapping")
    unknown = sorted(value.keys() - set(fields))
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}")
    return value


def json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def json_int(value) -> int:
    if isinstance(value, bool):
        raise TypeError("not an integer")
    return operator.index(value)


def json_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    return float(value)


def gate_from_record(record: dict, n: int) -> Operator:
    """Gate from a parsed file record: {'name': ...}, {'matrix': ...} or
    {'random': true, 'seed': ...}, with no other field."""
    forms = {"name", "matrix", "random"} & set(json_object(record, ("name", "matrix", "random", "seed"), "gate record"))
    if len(forms) != 1 or ("seed" in record and forms != {"random"}):
        raise ValueError("gate record needs exactly one of: name, matrix, random (a seed goes with random only)")
    if "name" in forms:
        return gate(str(record["name"]), n)
    if "matrix" in forms:
        try:
            m = np.array([[complex(json_float(re), json_float(im)) for re, im in row] for row in record["matrix"]])
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError("matrix entries must be [re, im] pairs of numbers") from exc
        return gate(m, n)
    seed = record.get("seed")
    if record["random"] is not True or seed is None:
        raise ValueError('random gate record needs "random": true and a seed')
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"random gate seed must be an integer, got {seed!r}")
    return gate("random", n, seed=seed)


def write_file(path: str, write: Callable[[TextIO], object]) -> None:
    """Replace ``path`` by what ``write(stream)`` writes, atomically."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path: str, record) -> None:
    write_file(path, lambda fh: (json.dump(record, fh, sort_keys=True, indent=2), fh.write("\n")))


def read_file(path: str, what: str, read: Callable[[TextIO], object]):
    """``read(stream)`` of the file ``path``, its ValueError naming the file as ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            # peeked, not read: a pipe or FIFO cannot seek back
            if fh.buffer.peek(3)[:3] == codecs.BOM_UTF8:
                raise ValueError("file starts with a UTF-8 byte-order mark")
            return read(fh)
        except ValueError as err:
            raise ValueError(f"{err} (in {what} {path})") from None


def read_json(path: str, what: str, parse: Callable[[object], object]):
    return read_file(path, what, lambda fh: parse(json.load(fh)))
