"""Batch command line surface: decompose, simulate, bounds, certify.

Every command is file-in/file-out and deterministic for a fixed config:
output JSON is written with sorted keys, tables in the line-oriented
format of :mod:`gatecert.network`.  Every file is written and read through
the file layer of :mod:`gatecert.primitives`: each output file is replaced
atomically, so a failed write leaves the previous one, and a malformed gate
file, adversary spec or table file is reported with its path, e.g.
``error: <reason> (in gate file g.json)``.

Exit codes: 0 success (certify: certified), 1 not certified, 2 malformed
input or configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .adversary import apply_adversary, load_adversary
from .bell import classical_bound, functional_I, functional_K, k_sign_bits, seesaw_max
from .certify import F_ZERO, TABLE_TOL, certify, check_matrix, protocol_rows
from .decomp import f_tensor
from .extract import OP_TOL
from .network import (
    ALMOST_DI,
    DI,
    PERP,
    ProbabilityTable,
    born_table,
    load_table,
    reference_realization,
    save_table,
)
from .primitives import gate, gate_from_record, ghz_bits, read_json, write_json

SCHEME_FLAGS = {"almost-di": ALMOST_DI, "di": DI}
N_CHOICES = (2, 3)
_PAULI_LETTERS = "ZXYI"


def _resolve_gate(spec: str, n: int, seed: int):
    if os.path.isfile(spec):
        return read_json(spec, "gate file", lambda record: gate_from_record(record, n))
    return gate(spec, n, seed=seed)


def _marginals(table: ProbabilityTable) -> dict:
    n = table.n
    key = table.scenario().row((0,) * n, 0, PERP)
    p_l = [table.signed_sum(key, l=l) for l in range(2**n)]
    out = {"p_l": p_l}
    if table.scheme == DI:
        out["p_r"] = [
            [table.signed_sum(key, r={i: k}) for k in range(4)] for i in range(1, n + 1)
        ]
    return out


def _build_realization(args, u):
    """Reference realization of ``u`` for the flags; an omitted --scheme
    means almost-di and an omitted --branch plus."""
    scheme = SCHEME_FLAGS[args.scheme or "almost-di"]
    branch = -1 if args.branch == "minus" else +1
    real = reference_realization(args.n, u, branch=branch, scheme=scheme)
    adversary = None
    if args.adversary:
        spec = load_adversary(args.adversary)
        try:
            real = apply_adversary(real, spec)
        except ValueError as err:
            raise ValueError(f"{err} (in adversary spec {args.adversary})") from None
        adversary = spec.to_record()
    return real, adversary


def cmd_simulate(args) -> int:
    real, adversary = _build_realization(args, _resolve_gate(args.gate, args.n, args.seed))
    table = born_table(real)
    os.makedirs(args.out, exist_ok=True)
    save_table(table, os.path.join(args.out, "table.jsonl"))
    summary = {
        "scheme": table.scheme,
        "n": table.n,
        "gate": args.gate,
        "branch": args.branch,
        "seed": args.seed,
        "settings_rows": len(list(table.keys())),
        "adversary": adversary,
    }
    summary.update(_marginals(table))
    write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"wrote {args.out}/table.jsonl ({summary['settings_rows']} settings rows)")
    print("p(l):", " ".join(f"{p:.6f}" for p in summary["p_l"]))
    if "p_r" in summary:
        for i, row in enumerate(summary["p_r"], start=1):
            print(f"p(r_{i}):", " ".join(f"{p:.6f}" for p in row))
    return 0


def cmd_bounds(args) -> int:
    n = args.n
    if args.restarts < 1:
        raise ValueError(f"--restarts must be at least 1, got {args.restarts}")
    funcs = [(functional_I(ghz_bits(l, n)), 3.0 * (n - 1)) for l in range(2**n)]
    funcs += [(functional_K(1, k_sign_bits(k), n), 2.0) for k in range(4)]
    rows = []
    for func, reference in funcs:
        res = seesaw_max(func, restarts=args.restarts, seed=args.seed)
        rows.append(
            {"functional": func.label, "classical": classical_bound(func), "seesaw": res.value, "reference": reference}
        )
    for row in rows:
        print(
            f"{row['functional']:>12}: classical {row['classical']:.9f}  "
            f"seesaw {row['seesaw']:.9f}  reference {row['reference']:.9f}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "bounds.json"), {"n": args.n, "rows": rows})
        print(f"wrote {args.out}/bounds.json")
    return 0


def cmd_certify(args) -> int:
    real = None
    if args.table:
        for flag in ("adversary", "branch"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply with --table: the table's statistics are fixed")
        table = load_table(args.table)
        n, scheme = table.n, table.scheme
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} does not match table n={n}")
        if args.scheme is not None and SCHEME_FLAGS[args.scheme] != scheme:
            raise ValueError(f"--scheme {args.scheme} does not match table scheme={scheme}")
    elif args.n is None:
        raise ValueError("--n is required when no table file is given")
    else:
        n, scheme = args.n, SCHEME_FLAGS[args.scheme or "almost-di"]
    u = _resolve_gate(args.gate, n, args.seed)
    if args.explain is not None:
        print(_explain(check_matrix(scheme, n, u), args.explain, scheme, n))
        return 0
    if not args.table:
        real, _ = _build_realization(args, u)
        table = born_table(real, rows=protocol_rows(scheme, n))
    report = certify(table, u, tol=args.tol, realization=real, op_tol=args.op_tol)
    print(report.summary())
    if real is None:
        print("operator-level checks unavailable (statistics-only mode)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "report.json"), report.to_record())
        print(f"wrote {args.out}/report.json")
    return 0 if report.verdict == "certified" else 1


def _explain(checks, check_id: str, scheme: str, n: int) -> str:
    """One check's nonzero weights, per settings row, at full outcome
    indices (a_1..a_N, (r_1..r_N,) l)."""
    by_id = {check.id: check for check in checks}
    if check_id not in by_id:
        raise ValueError(f"unknown check id {check_id!r}; the table checks are {', '.join(sorted(by_id))}")
    check = by_id[check_id]
    axes = [f"a_{i}" for i in range(1, n + 1)] + ([f"r_{i}" for i in range(1, n + 1)] if scheme == DI else []) + ["l"]
    head = f"{check.id}: expected {check.rhs!r}"
    if check.event is not None:
        head += f"; each row's value is divided by the row's probability of {check.event}"
    lines = [head]
    for key, w in check.weights.items():
        row = f"x={key[0]} e={key[1]}" + (f" y={key[2]}" if scheme == DI else "")
        nonzero = np.argwhere(w != 0)
        lines.append(f"row {row}: {len(nonzero)} nonzero weights at ({', '.join(axes)})")
        for pos in nonzero:
            free = iter(pos)
            full = tuple(int(next(free)) if isinstance(i, slice) else i for i in check.index)
            lines.append(f"  {full} {float(w[tuple(pos)])!r}")
    return "\n".join(lines)


def cmd_decompose(args) -> int:
    u = _resolve_gate(args.gate, args.n, args.seed)
    rows = []
    for l, coeffs in enumerate(f_tensor(u)):
        terms = {}
        for idx in np.ndindex(coeffs.shape):
            c = float(coeffs[idx])
            if abs(c) > F_ZERO:
                terms["".join(_PAULI_LETTERS[v] for v in idx)] = c
        rows.append(
            {
                "l": "".join(str(b) for b in ghz_bits(l, args.n)),
                "coefficients": terms,
                "sum_of_squares": float(np.sum(coeffs**2)),
            }
        )
    for row in rows:
        print(f"l={row['l']}: {len(row['coefficients'])} terms, "
              f"sum of squares {row['sum_of_squares']:.9f}")
        for word in sorted(row["coefficients"]):
            print(f"  {word}: {row['coefficients'][word]:+.9f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "decomp.json"), {"gate": args.gate, "n": args.n, "rows": rows})
        print(f"wrote {args.out}/decomp.json")
    return 0


@lru_cache(maxsize=None)  # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatecert",
        description="Simulate, bound, and certify gate implementations on small quantum networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, table_mode=False):
        p.add_argument("--scheme", choices=sorted(SCHEME_FLAGS), default=None,
                       help="default almost-di; with --table, the table's scheme")
        p.add_argument("--n", type=int, choices=N_CHOICES, required=not table_mode, default=None)
        p.add_argument("--gate", required=True, help="gate name or JSON file")
        p.add_argument("--branch", choices=("plus", "minus"), default=None if table_mode else "plus",
                       help="default plus; not allowed with --table" if table_mode else None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--adversary", default=None,
                       help="adversary spec JSON file" + ("; not allowed with --table" if table_mode else ""))

    p_sim = sub.add_parser("simulate", help="write the probability table of a realization")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")

    p_bounds = sub.add_parser("bounds", help="classical and see-saw bounds for the protocol functionals")
    p_bounds.add_argument("--n", type=int, choices=N_CHOICES, required=True)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--restarts", type=int, default=8)
    p_bounds.add_argument("--out", default=None, help="output directory")

    p_cert = sub.add_parser("certify", help="run all protocol checks against a target gate")
    common(p_cert, table_mode=True)
    p_cert.add_argument("--table", default=None, help="existing table file (statistics-only mode)")
    p_cert.add_argument("--tol", type=float, default=TABLE_TOL)
    p_cert.add_argument("--op-tol", type=float, default=OP_TOL)
    p_cert.add_argument("--out", default=None, help="output directory")
    p_cert.add_argument("--explain", default=None, metavar="ID",
                        help="print the nonzero weights of table check ID per settings row and exit")

    p_dec = sub.add_parser("decompose", help="coefficient tensor of the target gate per joint outcome")
    p_dec.add_argument("--n", type=int, choices=N_CHOICES, required=True)
    p_dec.add_argument("--gate", required=True, help="gate name or JSON file")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--out", default=None, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("tol", "op_tol"):
        value = getattr(args, flag, 1.0)
        if not (math.isfinite(value) and value > 0):
            name = "--" + flag.replace("_", "-")
            print(f"error: {name} must be positive and finite, got {value!r}", file=sys.stderr)
            return 2
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 2
    try:
        # looked up per call, so a command rebound on the module (a tracer's span) runs
        run = {"simulate": cmd_simulate, "bounds": cmd_bounds, "certify": cmd_certify, "decompose": cmd_decompose}
        return run[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
