"""Certification reports: protocol checks evaluated on probability tables.

A table passes when every check row holds within tolerance:

* step 1 pins the sources and measurements (joint-box or repeater
  correlations at their quantum maxima, uniform outcome rates);
* step 2 pins the joint box relative to the parties (almost_di) or the
  teleported box behind the repeaters (di);
* step 3 (di only) pins Eve's operation through the coefficient tensor of
  the target gate, as step 2 of almost_di does directly.

Every table-level check is data, a ``Check``: a weight array on each
settings row it reads, over the outcomes its conditioning event selects
(``network.event_index``).  Its value is ``sum over rows of <W_row,
p_row>``; a conditional check (step1.k, branch.pair) divides each row's
term by the row's probability of the event, and an event of probability
zero gives a failing row that names it.  ``check_matrix`` builds every
check's weights with one contraction, ``network.contract``: of a Bell
functional's coefficient tensor (``network.row_weights``; a correlator is a
one-term functional) or of the gate's f tensor (``decomp.f_tensor``), for
all joint outcomes l at once, with the per-party matrices
``network.party_matrix``.  Only the f-sum rows depend on the gate.  The
other checks are built once per (scheme, n), and so is the f-sum frame:
the check ids, event indices, party matrices and the e=1 ``perp`` row keys
in ``x_settings`` order.  Per gate, ``check_matrix`` computes only f, one
contraction and the weight dicts.  ``protocol_rows`` lists every settings
row any gate's checks read, the rows realization-mode ``gatecert certify``
computes.  ``certify`` reads the rows the weighted sums weigh once.  A
check that is one product correlator (the rate rows, branch.pair) is read
through ``network.expectation``, which is ``weighted_sum`` over the same
weights: ``row_weights`` is memoized, so that read builds nothing after the
first, and the correlator path is kept until a change to the benchmark,
which traces ``expectation`` calls, lets it go.

Operator-level rows (effective-measurement distances, the unitary
certificate, extraction fidelity) are appended when the underlying
realization is supplied; one ``extract.Extraction`` computes what they
share once.  The branch field records the sign of the third
reference setting: "plus"/"minus" when a realization pins it, "mixed" when
parties disagree (never certified), "undetermined" when only a table is
available and both uniform signs explain it equally well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .bell import functional_I, functional_K, k_sign_bits
from .decomp import f_tensor
from .extract import OP_TOL, Extraction
from .network import (
    ALMOST_DI,
    DI,
    PERP,
    SLOT_SYMBOLS,
    ProbabilityTable,
    Realization,
    ScenarioSpec,
    ZeroProbabilityEvent,
    contract,
    event_index,
    event_label,
    expectation,
    party_matrix,
    row_weights,
    weighted_sum,
)
from .primitives import SettingSymbol, ghz_bits
from .tensor import Operator

TABLE_TOL = 1e-9
FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class CheckRow:
    id: str
    lhs: float
    rhs: float
    tol: float
    detail: str = ""

    @property
    def residual(self) -> float:
        return float(abs(self.lhs - self.rhs))

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def to_record(self) -> dict:
        rec = {
            "id": self.id,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "tol": float(self.tol),
            "residual": self.residual,
            "passed": self.passed,
        }
        if self.detail:
            rec["detail"] = self.detail
        return rec


@dataclass(frozen=True)
class CertificationReport:
    scheme: str
    n: int
    branch: str
    checks: tuple[CheckRow, ...]

    @property
    def verdict(self) -> str:
        return "certified" if all(c.passed for c in self.checks) else "not-certified"

    def failed(self) -> list[CheckRow]:
        return [c for c in self.checks if not c.passed]

    def to_record(self) -> dict:
        return {
            "kind": "certification_report",
            "scheme": self.scheme,
            "n": self.n,
            "branch": self.branch,
            "verdict": self.verdict,
            "checks": [c.to_record() for c in self.checks],
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{mark}  {c.id}: value {c.lhs:+.12f}, expected {c.rhs:+.12f}, "
                f"residual {c.residual:.3e} (tol {c.tol:.1e})" + (f": {c.detail}" if c.detail else "")
            )
        lines.append(f"branch: {self.branch}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)

    @staticmethod
    def from_record(rec: dict) -> "CertificationReport":
        if rec.get("kind") != "certification_report":
            raise ValueError("not a certification report record")
        checks = tuple(
            CheckRow(r["id"], float(r["lhs"]), float(r["rhs"]), float(r["tol"]), r.get("detail", ""))
            for r in rec["checks"]
        )
        return CertificationReport(rec["scheme"], int(rec["n"]), rec["branch"], checks)


def _bits_label(bits) -> str:
    return "".join(str(b) for b in bits)


# Party 1's symbols in Pauli order (Z, X, Y, identity); the other parties'
# are ``SLOT_SYMBOLS``.
_A1_SYMBOLS = (SettingSymbol.T0, SettingSymbol.T1, SettingSymbol.T2, SettingSymbol.ID)
F_ZERO = 1e-15  # Pauli coefficients below this weigh nothing


@dataclass(frozen=True)
class Correlator:
    """``sign`` times the product correlator ``assignment`` at input e=0,
    restricted to joint outcome ``l`` and repeater outcomes ``r``."""

    assignment: Mapping[str, SettingSymbol]
    l: int | None = None
    r: Mapping[int, int] | None = None
    sign: float = 1.0


@dataclass(frozen=True)
class Check:
    """One table-level check as data.

    ``lhs = sum over rows of <weights[row], p_row[index]>``; with an
    ``event`` (the conditioning event's label) each row's term is divided
    by the row's probability of the event, ``p_row[index].sum()``.  A check
    that is one product correlator keeps it as ``correlator`` and is read
    through ``network.expectation``, the same sum over the same weights.
    """

    id: str
    rhs: float
    index: tuple
    weights: Mapping[tuple, np.ndarray]
    event: str | None = None
    correlator: Correlator | None = None


def _check(check_id, rhs, scheme, n, weights, *, l=None, r=None, conditional=False, correlator=None) -> Check:
    """Check over ``row_weights``' read-only weights; ``conditional``
    renormalizes each row on the event (l, r)."""
    event = event_label(n, l=l, r=r) if conditional else None
    return Check(check_id, rhs, event_index(scheme, n, l=l, r=r), weights, event, correlator)


def _correlator_check(check_id, rhs, scheme, n, assignment, *, l=None, r=None, sign=1.0, conditional=False) -> Check:
    corr = Correlator(MappingProxyType(assignment), l, None if r is None else MappingProxyType(r), sign)
    weights = row_weights(((sign, assignment),), scheme, n, e=0, l=l, r=r)
    return _check(check_id, rhs, scheme, n, weights, l=l, r=r, conditional=conditional, correlator=corr)


class _FsumFrame(NamedTuple):
    """What the f-sum checks of every gate share: their ids, rhs and event
    indices per l, the e=1 ``perp`` row keys in ``x_settings`` order, and
    the party matrices in Pauli order."""

    ids: tuple[str, ...]
    rhs: float
    indices: tuple[tuple, ...]
    keys: tuple[tuple, ...]
    mats: tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def _fsum_frame(scheme: str, n: int) -> _FsumFrame:
    """The f-sum frame of (scheme, n): almost_di checks step2.fsum[l], di
    checks step3.fsum[l] on the repeater outcomes all 0."""
    scen = ScenarioSpec(scheme, n)
    if scheme == ALMOST_DI:
        prefix, rhs, r = "step2", 1 / 2**n, None
    else:
        prefix, rhs, r = "step3", 1 / 2 ** (3 * n), {i: 0 for i in range(1, n + 1)}
    ids = tuple(f"{prefix}.fsum[{_bits_label(ghz_bits(l, n))}]" for l in range(2**n))
    indices = tuple(event_index(scheme, n, l=l, r=r) for l in range(2**n))
    keys = tuple(scen.row(x, 1, PERP) for x in scen.x_settings())
    mats = (party_matrix(_A1_SYMBOLS),) + (party_matrix(SLOT_SYMBOLS),) * (n - 1)
    return _FsumFrame(ids, rhs, indices, keys, mats)


def _fsum_checks(scheme: str, n: int, u: Operator) -> list[Check]:
    """The f-sum check of every l at once: the f tensor of the gate
    contracted with each party's ``party_matrix`` in Pauli order gives
    ``w[l, x, a_1..a_N]``, the weight of row x (input e=1, ``x_settings``
    order) on the outcomes a at joint outcome l.  The rest is the frame."""
    frame = _fsum_frame(scheme, n)
    f = f_tensor(u)
    f = np.where(np.abs(f) < F_ZERO, 0.0, f)
    w = contract(f, frame.mats, optimize=True).reshape(2**n, len(frame.keys), *(2,) * n)
    w.setflags(write=False)
    read = w.reshape(2**n, len(frame.keys), -1).any(axis=2)
    return [
        Check(id_, frame.rhs, index, MappingProxyType({frame.keys[x]: w[l, x] for x in np.flatnonzero(read[l])}))
        for l, (id_, index) in enumerate(zip(frame.ids, frame.indices))
    ]


def check_matrix(scheme: str, n: int, u: Operator) -> list[Check]:
    """Every table-level check of the protocol for target gate ``u``
    (``certify`` sorts the rows by id).

    almost_di: step1.joint[l], step1.rate[l], step2.fsum[l];
    di: step1.k[i;k], step1.rate[i;k], step2.joint[l], step2.rate[l],
    step3.fsum[l]; both: branch.pair[1,i].  Only the f-sum checks depend
    on the gate; the others and the f-sum frame are built once per
    (scheme, n).
    """
    return [*_scenario_checks(scheme, n), *_fsum_checks(scheme, n, u)]


@lru_cache(maxsize=None)
def _scenario_checks(scheme: str, n: int) -> tuple[Check, ...]:
    """The checks that do not depend on the gate, built on first use of each
    (scheme, n) and shared read-only: building them again on every call
    costs about a sixth of a ``verify`` job."""
    checks: list[Check] = []
    r0 = {i: 0 for i in range(1, n + 1)} if scheme == DI else None
    if scheme == ALMOST_DI:
        for l in range(2**n):
            label = _bits_label(ghz_bits(l, n))
            joint = row_weights(functional_I(ghz_bits(l, n)).terms, scheme, n, e=0, l=l)
            checks.append(_check(f"step1.joint[{label}]", 3 * (n - 1) / 2**n, scheme, n, joint, l=l))
            checks.append(_correlator_check(f"step1.rate[{label}]", 1 / 2**n, scheme, n, {}, l=l))
    else:
        for i in range(1, n + 1):
            for k in range(4):
                r = {i: k}
                func = row_weights(functional_K(i, k_sign_bits(k), n).terms, scheme, n, e=0, r=r)
                checks.append(_check(f"step1.k[{i};{k}]", 2.0, scheme, n, func, r=r, conditional=True))
                checks.append(_correlator_check(f"step1.rate[{i};{k}]", 0.25, scheme, n, {}, r=r))
        for l in range(2**n):
            label = _bits_label(ghz_bits(l, n))
            joint = row_weights(functional_I(ghz_bits(l, n)).terms, scheme, n, e=0, l=l, r=r0)
            rhs = 3 * (n - 1) / (2**n * 4**n)
            checks.append(_check(f"step2.joint[{label}]", rhs, scheme, n, joint, l=l, r=r0))
            rhs = 1 / (2**n * 4**n)
            checks.append(_correlator_check(f"step2.rate[{label}]", rhs, scheme, n, {}, l=l, r=r0))
    # The pair products <A_{1,2} A_{i,2} (x)_j A_{j,1}> on the first joint
    # outcome equal -s_1 s_i: uniform signs give +1 after negation, mixed
    # signs show up as -1 and fail.
    for i in range(2, n + 1):
        assignment = {"A1": SettingSymbol.S2, f"A{i}": SettingSymbol.S2}
        assignment.update({f"A{j}": SettingSymbol.S1 for j in range(2, n + 1) if j != i})
        pair_id = f"branch.pair[1,{i}]"
        checks.append(_correlator_check(pair_id, 1.0, scheme, n, assignment, l=0, r=r0, sign=-1.0, conditional=True))
    return tuple(checks)


@lru_cache(maxsize=None)
def protocol_rows(scheme: str, n: int) -> frozenset:
    """Every settings row that ``check_matrix(scheme, n, u)`` can read, for
    any gate u: the rows of the gate-independent checks and every f-sum row
    (x, e=1, perp).  Built once per (scheme, n)."""
    read = {key for check in _scenario_checks(scheme, n) for key in check.weights}
    return frozenset(read | set(_fsum_frame(scheme, n).keys))


def _table_rows(table: ProbabilityTable, checks: list[Check], tol: float) -> list[CheckRow]:
    """Evaluate the checks on a table, reading the rows the weighted sums
    weigh once; a conditioning event of probability zero gives a failing
    row that names the event."""
    sums = [check for check in checks if check.correlator is None]
    rows = {key: table.array(key) for key in dict.fromkeys(key for check in sums for key in check.weights)}
    out = []
    for check in checks:
        corr = check.correlator
        try:
            if corr is None:
                lhs = weighted_sum(rows, check.index, check.weights, check.event)
            else:
                renormalize = check.event is not None
                lhs = corr.sign * expectation(table, corr.assignment, e=0, l=corr.l, r=corr.r, renormalize=renormalize)
            out.append(CheckRow(check.id, lhs, check.rhs, tol))
        except ZeroProbabilityEvent as err:
            out.append(CheckRow(check.id, 1.0, 0.0, 0.0, detail=f"{err.event} has probability {err.probability:.3g}"))
    return out


def certify(
    table: ProbabilityTable,
    u: Operator,
    tol: float = TABLE_TOL,
    realization: Realization | None = None,
    op_tol: float = OP_TOL,
) -> CertificationReport:
    """Run every protocol check for the target gate on a probability table.

    The table-level rows are ``check_matrix(table.scheme, table.n, u)``
    read as dot products with the table rows.  Uniform y-direction signs
    across parties leave the branch "undetermined" (a bare table cannot
    split "plus" from "minus"); a failing ``branch.pair`` row with a
    negative value makes it "mixed".  With ``realization`` the
    operator-level rows (effective-measurement distances, unitary
    certificate, block structure, extraction fidelity) are appended and
    the branch is pinned to "plus" or "minus".  Missing settings rows
    raise ValueError.
    """
    if u.dims != (2,) * table.n:
        raise ValueError(f"target gate must act on {table.n} qubits, got dims {u.dims}")
    if not u.is_unitary():
        raise ValueError("target gate is not unitary")
    rows = _table_rows(table, check_matrix(table.scheme, table.n, u), tol)
    mixed = any(row.id.startswith("branch.") and row.lhs < 0 for row in rows)
    branch = "mixed" if mixed else "undetermined"
    if realization is not None:
        if (realization.scheme, realization.n) != (table.scheme, table.n):
            raise ValueError("realization and table describe different scenarios")
        rows_r, branch_r = _realization_rows(realization, u, op_tol)
        rows += rows_r
        if branch != "mixed":
            branch = branch_r
    rows.sort(key=lambda r: r.id)
    return CertificationReport(table.scheme, table.n, branch, tuple(rows))


def _realization_rows(real: Realization, u: Operator, op_tol: float) -> tuple[list[CheckRow], str]:
    rows: list[CheckRow] = []
    try:
        ext = Extraction(real, u, op_tol=op_tol)
    except ValueError as err:
        rows.append(CheckRow("extract.frames", 1.0, 0.0, 0.0, detail=str(err)))
        return rows, "undetermined"
    rows.append(CheckRow("extract.frames", 0.0, 0.0, 0.0))
    branch = ext.branch
    if branch == "mixed":
        rows.append(
            CheckRow(
                "extract.branch",
                0.0,
                1.0,
                0.0,
                detail="parties realize opposite signs of the third setting",
            )
        )
        return rows, branch
    dists = ext.measurement_distances()
    n = real.n
    for l in range(2**n):
        rows.append(
            CheckRow(f"extract.meas[{_bits_label(ghz_bits(l, n))}]", float(dists[l]), 0.0, op_tol)
        )
    rows.append(CheckRow("extract.unitary", ext.unitary_certificate(), 0.0, op_tol))
    rows.append(CheckRow("extract.blocks", ext.block_deviation(), 0.0, op_tol))
    rows.append(CheckRow("extract.fidelity", ext.fidelity(), 1.0, FIDELITY_TOL))
    return rows, branch
