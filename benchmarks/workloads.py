"""Case lists, jobs and correctness checks of the four benchmark workloads.

A job is one certification request run start to finish: build the
realization, apply the adversary, simulate, optionally write and read the
table, then certify.  ``build`` turns a workload name and a seed into the
fixed list of jobs that one round of the closed loop runs, computes every
oracle the checks need and returns a warm-up call; all of that is set-up
and happens before the first timed job.

Each job's ``check`` receives what ``run`` returned and gives a one-line
reason when the output differs from the expected value, else ``None``.
Checks run outside the timed region.

Modules are reached through ``importlib`` so that attribute look-ups go
through the module objects a traced run patches (``gatecert.certify`` on
the package is the ``certify`` function, not the module).
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

adversary = importlib.import_module("gatecert.adversary")
bell = importlib.import_module("gatecert.bell")
certify = importlib.import_module("gatecert.certify")
cli = importlib.import_module("gatecert.cli")
network = importlib.import_module("gatecert.network")
primitives = importlib.import_module("gatecert.primitives")

WORKLOADS = ("kernel", "roundtrip", "verify", "bounds")

# Tolerances of the correctness gate.
TABLE_EQUAL_TOL = 1e-12
SEESAW_TOL = 1e-6
CLASSICAL_TOL = 1e-9

PERTURB_EPSILON = 1e-3
DEPOLARIZE_ETA = 0.05
JUNK_DIM = 2
BOUNDS_N = 3
BOUNDS_RESTARTS = 8
BOUNDS_SEEDS = 4

# Expected statistics-only verdict and, with the realization, the expected
# (verdict, branch); a branch of None is not checked.
STATS_VERDICT = {
    None: "certified",
    "dilate": "certified",
    "conjugate": "certified",
    "gauge_phase": "certified",
    "perturb": "not-certified",
    "depolarize": "not-certified",
}
FULL_VERDICT = {
    None: ("certified", "plus"),
    "dilate": ("certified", "plus"),
    "conjugate": ("certified", "minus"),
    "perturb": ("not-certified", None),
    "depolarize": ("not-certified", None),
}
EXIT_CODE = {"certified": 0, "not-certified": 1}


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Case:
    """One realization: scheme, size, gate and adversary, all seeded."""

    scheme: str
    n: int
    gate: str
    gate_seed: int
    adversary: Any  # AdversarySpec or None

    @property
    def kind(self) -> str | None:
        return None if self.adversary is None else self.adversary.kind

    @property
    def name(self) -> str:
        return f"{self.scheme}-n{self.n}-{self.gate}-{self.kind or 'none'}"

    def target(self):
        return primitives.gate(self.gate, self.n, seed=self.gate_seed)

    def realization(self, u=None):
        u = self.target() if u is None else u
        real = network.reference_realization(self.n, u, scheme=self.scheme)
        if self.adversary is not None:
            real = adversary.apply_adversary(real, self.adversary)
        return real

    def cli_args(self, workdir: str) -> list[str]:
        """CLI flags naming this case; the adversary comes from the spec file
        that ``write_spec`` left in ``workdir``."""
        args = ["--scheme", self.scheme.replace("_", "-"), "--gate", self.gate, "--seed", str(self.gate_seed)]
        if self.adversary is not None:
            args += ["--adversary", self.spec_path(workdir)]
        return args

    def spec_path(self, workdir: str) -> str:
        return os.path.join(workdir, f"{self.name}.adversary.json")

    def write_spec(self, workdir: str) -> None:
        if self.adversary is not None:
            adversary.save_adversary(self.adversary, self.spec_path(workdir))


class _Seeds:
    """Every random choice of a workload, drawn in a fixed order from one seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def draw(self) -> int:
        return int(self._rng.integers(2**31 - 1))

    def adversary(self, kind: str | None, n: int):
        spec = adversary.AdversarySpec
        if kind is None:
            return None
        if kind == "dilate":
            return spec("dilate", junk_dim=JUNK_DIM, seed=self.draw())
        if kind == "conjugate":
            return spec("conjugate")
        if kind == "gauge_phase":
            return spec("gauge_phase", thetas=tuple(float(t) for t in self._rng.uniform(-np.pi, np.pi, 2**n)))
        if kind == "perturb":
            return spec("perturb", epsilon=PERTURB_EPSILON, seed=self.draw())
        if kind == "depolarize":
            return spec("depolarize", eta=DEPOLARIZE_ETA)
        raise ValueError(f"unknown adversary kind {kind!r}")

    def cases(self, scheme: str, n: int, gates, kinds) -> list[Case]:
        """Cases for every gate and adversary kind; a random gate and each
        seeded adversary draw their own seeds."""
        out = []
        for g in gates:
            gate_seed = self.draw() if g == "random" else 0
            for kind in kinds:
                out.append(Case(scheme, n, g, gate_seed, self.adversary(kind, n)))
        return out


def build(workload: str, seed: int, workdir: str) -> tuple[list[Job], Callable[[], None]]:
    """Jobs of one round of ``workload`` and its warm-up call."""
    builders = {"kernel": _kernel, "roundtrip": _roundtrip, "verify": _verify, "bounds": _bounds}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](_Seeds(seed), workdir)


# --- shared pieces ----------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns the exit code and everything it printed."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _printed(text: str, field: str) -> str | None:
    for line in reversed(text.splitlines()):
        if line.startswith(field + ": "):
            return line[len(field) + 2:]
    return None


def _check_cli_verdict(code: int, text: str, verdict: str, branch: str | None) -> str | None:
    if _printed(text, "verdict") != verdict:
        return f"verdict {_printed(text, 'verdict')!r}, expected {verdict!r}"
    if code != EXIT_CODE[verdict]:
        return f"certify exited {code}, expected {EXIT_CODE[verdict]}"
    if branch is not None and _printed(text, "branch") != branch:
        return f"branch {_printed(text, 'branch')!r}, expected {branch!r}"
    return None


def _check_report(report, verdict: str, branch: str | None, what: str) -> str | None:
    if report.verdict != verdict:
        return f"{what} verdict {report.verdict!r}, expected {verdict!r}"
    if branch is not None and report.branch != branch:
        return f"{what} branch {report.branch!r}, expected {branch!r}"
    return None


# --- kernel -----------------------------------------------------------------


def _kernel(seeds: _Seeds, workdir: str):
    """Realization-mode ``gatecert certify`` (no table file): the Born
    kernel is nearly all of each job."""
    cases = (
        seeds.cases("di", 3, ("toffoli", "random"), (None,))
        + seeds.cases("di", 2, ("cnot",), ("dilate",))
        + seeds.cases("di", 2, ("random",), ("depolarize",))
    )

    def job(case: Case) -> Job:
        case.write_spec(workdir)
        argv = ["certify", "--n", str(case.n)] + case.cli_args(workdir)
        verdict, branch = FULL_VERDICT[case.kind]
        return Job(case.name, lambda: _cli(argv), lambda out: _check_cli_verdict(*out, verdict, branch))

    def warmup() -> None:
        _cli(["certify", "--scheme", "di", "--n", "2", "--gate", "cnot"])

    return [job(c) for c in cases], warmup


# --- roundtrip --------------------------------------------------------------


def _roundtrip(seeds: _Seeds, workdir: str):
    """``gatecert simulate`` then ``gatecert certify --table`` through
    ``cli.main``: JSONL table writing and reading dominate each job."""
    kinds = (None, "conjugate", "gauge_phase", "perturb")
    cases = seeds.cases("di", 2, ("cnot", "cz", "swap", "random"), kinds) + seeds.cases(
        "almost_di", 3, ("toffoli", "random"), (None,)
    )
    out_dir = os.path.join(workdir, "tables")

    def job(case: Case) -> Job:
        case.write_spec(workdir)
        oracle = network.born_table(case.realization())
        table_path = os.path.join(out_dir, case.name, "table.jsonl")
        simulate = ["simulate", "--n", str(case.n), "--out", os.path.dirname(table_path)] + case.cli_args(workdir)
        certify_argv = ["certify", "--table", table_path, "--gate", case.gate, "--seed", str(case.gate_seed)]
        verdict = STATS_VERDICT[case.kind]
        verified_digest: list[str] = []

        def run():
            sim = _cli(simulate)
            return sim, _cli(certify_argv)

        def check(out) -> str | None:
            (sim_code, sim_text), (code, text) = out
            if sim_code != 0:
                return f"simulate exited {sim_code}: {sim_text.strip()[-200:]}"
            bad = _check_cli_verdict(code, text, verdict, None)
            if bad:
                return bad
            with open(table_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if verified_digest:
                # The first check of this case loaded the file and compared it
                # exactly; identical bytes load to the identical table.
                return None if digest == verified_digest[0] else "table file differs from the verified one"
            diff = network.load_table(table_path).max_difference(oracle)
            if diff != 0.0:
                return f"loaded table differs from the in-memory table by {diff:.3e}"
            verified_digest.append(digest)
            return None

        return Job(case.name, run, check)

    jobs = [job(c) for c in cases]
    small = next(j for j in jobs if j.name.startswith("almost_di"))
    return jobs, small.run


# --- verify -----------------------------------------------------------------


def _verify(seeds: _Seeds, workdir: str):
    """In-memory table, then statistics-only and realization-mode certify:
    the certify and extract layers dominate each job."""
    cases = (
        seeds.cases("almost_di", 3, ("toffoli", "random"), (None, "conjugate", "gauge_phase", "dilate", "perturb"))
        + seeds.cases("di", 2, ("cnot", "random"), (None, "conjugate", "perturb"))
        + seeds.cases("almost_di", 2, ("cz",), ("depolarize",))
    )
    references: dict[tuple, Any] = {}

    def job(case: Case) -> Job:
        ref_key = (case.scheme, case.n, case.gate, case.gate_seed)
        if ref_key not in references:
            references[ref_key] = network.born_table(
                network.reference_realization(case.n, case.target(), scheme=case.scheme)
            )
        reference = references[ref_key]
        # The phase gauge moves rows the protocol does not read only in the
        # di scheme; in almost_di the whole table is invariant.
        same_table = case.kind in ("dilate", "conjugate") or (
            case.kind == "gauge_phase" and case.scheme == "almost_di"
        )
        with_realization = case.kind != "gauge_phase"

        def run():
            u = case.target()
            real = case.realization(u)
            table = network.born_table(real)
            stats = certify.certify(table, u)
            full = certify.certify(table, u, realization=real) if with_realization else None
            return table, stats, full

        def check(out) -> str | None:
            table, stats, full = out
            bad = _check_report(stats, STATS_VERDICT[case.kind], None, "statistics-only")
            if bad is None and with_realization:
                bad = _check_report(full, *FULL_VERDICT[case.kind], "realization-mode")
            if bad is None and same_table:
                diff = table.max_difference(reference)
                if diff > TABLE_EQUAL_TOL:
                    bad = f"table moved by {diff:.3e} from the reference table"
            return bad

        return Job(case.name, run, check)

    jobs = [job(c) for c in cases]
    return jobs, jobs[0].run


# --- bounds -----------------------------------------------------------------


def _bounds(seeds: _Seeds, workdir: str):
    """The work of ``gatecert bounds --n 3 --restarts 8 --seed S``: the only
    workload that reaches the see-saw and the classical-bound enumeration."""
    n = BOUNDS_N
    functionals = [
        (bell.functional_I(primitives.ghz_bits(l, n)), 3.0 * (n - 1), (np.sqrt(2) + 1) * (n - 1))
        for l in range(2**n)
    ] + [(bell.functional_K(1, bell.k_sign_bits(k), n), 2.0, np.sqrt(2)) for k in range(4)]

    def job(seesaw_seed: int) -> Job:
        def run():
            return [
                (func.label, bell.classical_bound(func),
                 bell.seesaw_max(func, restarts=BOUNDS_RESTARTS, seed=seesaw_seed).value)
                for func, _, _ in functionals
            ]

        def check(rows) -> str | None:
            for (label, classical, seesaw), (_, quantum_ref, classical_ref) in zip(rows, functionals):
                if abs(seesaw - quantum_ref) > SEESAW_TOL:
                    return f"{label}: see-saw {seesaw!r}, expected {quantum_ref!r}"
                if abs(classical - classical_ref) > CLASSICAL_TOL:
                    return f"{label}: classical bound {classical!r}, expected {classical_ref!r}"
            return None

        return Job(f"bounds-n{n}-seed{seesaw_seed}", run, check)

    def warmup() -> None:
        func = functionals[0][0]
        bell.classical_bound(func)
        bell.seesaw_max(func, restarts=1, seed=0)

    # The see-saw's iteration counts, and so a job's cost, depend on its
    # seed; four seeds a round keep that from dominating a run.
    return [job(seeds.draw()) for _ in range(BOUNDS_SEEDS)], warmup
