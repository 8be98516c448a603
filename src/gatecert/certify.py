"""Certification reports: protocol checks evaluated on probability tables.

A table passes when every check row holds within tolerance:

* step 1 pins the sources and measurements (joint-box or repeater
  correlations at their quantum maxima, uniform outcome rates);
* step 2 pins the joint box relative to the parties (almost_di) or the
  teleported box behind the repeaters (di);
* step 3 (di only) pins Eve's operation through the coefficient tensor of
  the target gate, as step 2 of almost_di does directly.

Operator-level rows (effective-measurement distances, the unitary
certificate, extraction fidelity) are appended when the underlying
realization is supplied.  The branch field records the sign of the third
reference setting: "plus"/"minus" when a realization pins it, "mixed" when
parties disagree (never certified), "undetermined" when only a table is
available and both uniform signs explain it equally well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bell import evaluate, functional_I, functional_K, k_sign_bits
from .decomp import delta_set, f_coeffs
from .network import ALMOST_DI, DI, PERP, ProbabilityTable, Realization, ZeroProbabilityEvent, expectation
from .primitives import SettingSymbol, ghz_bits
from .tensor import Operator

TABLE_TOL = 1e-9
OP_TOL = 1e-8
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


def save_report(report: CertificationReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_record(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_report(path: str) -> CertificationReport:
    with open(path) as fh:
        return CertificationReport.from_record(json.load(fh))


def _bits_label(bits) -> str:
    return "".join(str(b) for b in bits)


_A1_SYMBOLS = (SettingSymbol.T0, SettingSymbol.T1, SettingSymbol.T2, SettingSymbol.ID)
_AI_SYMBOLS = (SettingSymbol.S0, SettingSymbol.S1, SettingSymbol.S2, SettingSymbol.ID)


def _f_weighted_joint(
    table: ProbabilityTable, u: Operator, l: int, *, e: int, r=None
) -> float:
    """Sum over Pauli words of f times the joint (unnormalized) correlator
    restricted to the given box outcome."""
    n = table.n
    coeffs = f_coeffs(delta_set(u)[l])
    total = 0.0
    for idx in np.ndindex(coeffs.shape):
        c = float(coeffs[idx])
        if abs(c) < 1e-15:
            continue
        assignment = {"A1": _A1_SYMBOLS[idx[0]]}
        for i in range(2, n + 1):
            assignment[f"A{i}"] = _AI_SYMBOLS[idx[i - 1]]
        total += c * _joint(table, assignment, e=e, l=l, r=r)
    return total


def _joint(table, assignment, *, e, l, r=None):
    return expectation(table, assignment, e=e, l=l, r=r, renormalize=False)


def _conditional_row(row_id: str, value, rhs: float, tol: float) -> CheckRow:
    """Row for a conditional value, computed by ``value()``; a conditioning
    event of probability zero gives a failing row that names the event."""
    try:
        return CheckRow(row_id, value(), rhs, tol)
    except ZeroProbabilityEvent as err:
        return CheckRow(row_id, 1.0, 0.0, 0.0, detail=f"{err.event} has probability {err.probability:.3g}")


def _rows_step1_almost(table: ProbabilityTable, tol: float) -> list[CheckRow]:
    n = table.n
    rows = []
    x0 = (0,) * n
    for l in range(2**n):
        bits = ghz_bits(l, n)
        joint = evaluate(functional_I(bits), table, e=0, l=l, renormalize=False)
        rows.append(
            CheckRow(f"step1.joint[{_bits_label(bits)}]", joint, 3 * (n - 1) / 2**n, tol)
        )
        rate = table.signed_sum((x0, 0), l=l)
        rows.append(CheckRow(f"step1.rate[{_bits_label(bits)}]", rate, 1 / 2**n, tol))
    return rows


def _rows_step2_almost(table: ProbabilityTable, u: Operator, tol: float) -> list[CheckRow]:
    n = table.n
    rows = []
    for l in range(2**n):
        bits = ghz_bits(l, n)
        value = _f_weighted_joint(table, u, l, e=1)
        rows.append(CheckRow(f"step2.fsum[{_bits_label(bits)}]", value, 1 / 2**n, tol))
    return rows


def _rows_step1_di(table: ProbabilityTable, tol: float) -> list[CheckRow]:
    n = table.n
    rows = []
    x0 = (0,) * n
    for i in range(1, n + 1):
        for k in range(4):
            func = functional_K(i, k_sign_bits(k), n)
            rows.append(
                _conditional_row(
                    f"step1.k[{i};{k}]", lambda: evaluate(func, table, e=0, r={i: k}, renormalize=True), 2.0, tol
                )
            )
            rate = table.signed_sum((x0, 0, PERP), r={i: k})
            rows.append(CheckRow(f"step1.rate[{i};{k}]", rate, 0.25, tol))
    return rows


def _rows_step2_di(table: ProbabilityTable, tol: float) -> list[CheckRow]:
    n = table.n
    rows = []
    x0 = (0,) * n
    r0 = {i: 0 for i in range(1, n + 1)}
    for l in range(2**n):
        bits = ghz_bits(l, n)
        joint = evaluate(functional_I(bits), table, e=0, l=l, r=r0, renormalize=False)
        rows.append(
            CheckRow(
                f"step2.joint[{_bits_label(bits)}]",
                joint,
                3 * (n - 1) / (2**n * 4**n),
                tol,
            )
        )
        rate = table.signed_sum((x0, 0, PERP), l=l, r=r0)
        rows.append(CheckRow(f"step2.rate[{_bits_label(bits)}]", rate, 1 / (2**n * 4**n), tol))
    return rows


def _rows_step3_di(table: ProbabilityTable, u: Operator, tol: float) -> list[CheckRow]:
    n = table.n
    r0 = {i: 0 for i in range(1, n + 1)}
    rows = []
    for l in range(2**n):
        bits = ghz_bits(l, n)
        value = _f_weighted_joint(table, u, l, e=1, r=r0)
        rows.append(CheckRow(f"step3.fsum[{_bits_label(bits)}]", value, 1 / 2**(3 * n), tol))
    return rows


def _rows_branch(table: ProbabilityTable, tol: float) -> tuple[list[CheckRow], str]:
    """Consistency of the y-direction signs across parties, from the table.

    The pair products <A_{1,2} A_{i,2} (x)_j A_{j,1}> on the first joint
    outcome equal -s_1 s_i; uniform signs give +1 after negation, mixed
    signs show up as -1 and fail.  A bare table cannot split "plus" from
    "minus", so uniform tables report "undetermined"."""
    n = table.n
    r0 = {i: 0 for i in range(1, n + 1)} if table.scheme == DI else None
    rows = []
    mixed = False
    for i in range(2, n + 1):
        assignment = {"A1": SettingSymbol.S2, f"A{i}": SettingSymbol.S2}
        for j in range(2, n + 1):
            if j != i:
                assignment[f"A{j}"] = SettingSymbol.S1
        row = _conditional_row(
            f"branch.pair[1,{i}]", lambda: -expectation(table, assignment, e=0, l=0, r=r0, renormalize=True), 1.0, tol
        )
        rows.append(row)
        if row.lhs < 0:
            mixed = True
    return rows, ("mixed" if mixed else "undetermined")


def certify(
    table: ProbabilityTable,
    u: Operator,
    tol: float = TABLE_TOL,
    realization: Realization | None = None,
    op_tol: float = OP_TOL,
) -> CertificationReport:
    """Run every protocol check for the target gate on a probability table.

    With ``realization`` the operator-level rows (effective-measurement
    distances, unitary certificate, block structure, extraction fidelity)
    are appended and the branch is pinned to "plus" or "minus".  Missing
    settings rows raise ValueError.
    """
    if u.dims != (2,) * table.n:
        raise ValueError(f"target gate must act on {table.n} qubits, got dims {u.dims}")
    if not u.is_unitary():
        raise ValueError("target gate is not unitary")
    rows: list[CheckRow] = []
    if table.scheme == ALMOST_DI:
        rows += _rows_step1_almost(table, tol)
        rows += _rows_step2_almost(table, u, tol)
    else:
        rows += _rows_step1_di(table, tol)
        rows += _rows_step2_di(table, tol)
        rows += _rows_step3_di(table, u, tol)
    branch_rows, branch = _rows_branch(table, tol)
    rows += branch_rows
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
    from .extract import (
        extract_all,
        extraction_fidelity,
        f_block_structure,
        branch_of,
        verify_effective_measurements,
        verify_unitary_certificate,
    )

    rows: list[CheckRow] = []
    try:
        frames = extract_all(real, op_tol)
    except ValueError as err:
        rows.append(CheckRow("extract.frames", 1.0, 0.0, 0.0, detail=str(err)))
        return rows, "undetermined"
    rows.append(CheckRow("extract.frames", 0.0, 0.0, 0.0))
    branch = branch_of(real, frames)
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
    dists, _ = verify_effective_measurements(real, u, frames, op_tol)
    n = real.n
    for l in range(2**n):
        rows.append(
            CheckRow(f"extract.meas[{_bits_label(ghz_bits(l, n))}]", float(dists[l]), 0.0, op_tol)
        )
    cert, _ = verify_unitary_certificate(real, u, frames, op_tol)
    rows.append(CheckRow("extract.unitary", cert, 0.0, op_tol))
    fdev, _ = f_block_structure(real, u, frames, op_tol)
    rows.append(CheckRow("extract.blocks", fdev, 0.0, op_tol))
    fid, _ = extraction_fidelity(real, u, frames)
    rows.append(CheckRow("extract.fidelity", fid, 1.0, FIDELITY_TOL))
    return rows, branch