"""Release acceptance suite.

One test per acceptance criterion.  Each test prints a single
``PASS criterion N: ...`` (or ``FAIL ...``) summary line and asserts the
same condition, so the printed verdicts and the pytest verdicts agree.
The conftest hook replays the verdict lines at the end of the run.
"""

import itertools

import numpy as np

from gatecert.adversary import conjugate, dilate, gauge_phase, perturb
from gatecert.bell import (
    classical_bound,
    evaluate,
    functional_I,
    functional_K,
    k_sign_bits,
    seesaw_max,
)
from gatecert.certify import certify
from gatecert.extract import Extraction
from gatecert.network import ALMOST_DI, DI, PERP, born_table, reference_realization
from gatecert.primitives import gate, ghz_bits, phi_plus

ROOT2 = np.sqrt(2.0)

_GATES = {}
_TABLES = {}


def _gate(name, n, seed=None):
    key = (name, n, seed)
    if key not in _GATES:
        _GATES[key] = gate(name, n, seed=seed)
    return _GATES[key]


def _ref_table(n, name, scheme, seed=None):
    """Reference-realization table, cached across criteria."""
    key = (n, name, scheme, seed)
    if key not in _TABLES:
        real = reference_realization(n, _gate(name, n, seed), scheme=scheme)
        _TABLES[key] = born_table(real)
    return _TABLES[key]


def _finish(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _step_residuals(report, prefix):
    rows = [row for row in report.checks if row.id.startswith(prefix)]
    assert rows, f"no {prefix} rows in report"
    return max(row.residual for row in rows)


def test_criterion_1_classical_bounds():
    worst = 0.0
    for n in (2, 3):
        target = (ROOT2 + 1) * (n - 1)
        vals = [
            classical_bound(functional_I(bits))
            for bits in itertools.product((0, 1), repeat=n)
        ]
        worst = max(worst, max(vals) - min(vals))
        worst = max(worst, max(vals) - target)
    for n in (2, 3):
        for i in range(1, n + 1):
            for k in range(4):
                v = classical_bound(functional_K(i, k_sign_bits(k), n))
                worst = max(worst, abs(v - ROOT2))
    _finish(1, worst <= 1e-9, f"classical bounds, worst deviation {worst:.2e}")


def test_criterion_2_quantum_values():
    worst = 0.0
    for n, name in ((2, "cz"), (3, "toffoli")):
        almost = _ref_table(n, name, ALMOST_DI)
        for l in range(2**n):
            v = evaluate(functional_I(ghz_bits(l, n)), almost, e=0, l=l)
            worst = max(worst, abs(v - 3 * (n - 1)))
        di = _ref_table(n, name, DI)
        for i in range(1, n + 1):
            for k in range(4):
                v = evaluate(functional_K(i, k_sign_bits(k), n), di, r={i: k})
                worst = max(worst, abs(v - 2.0))
    _finish(2, worst <= 1e-9, f"reference quantum values, worst deviation {worst:.2e}")


def test_criterion_3_outcome_rates():
    worst = 0.0
    for n, name in ((2, "cz"), (3, "toffoli")):
        x0 = (0,) * n
        almost = _ref_table(n, name, ALMOST_DI)
        for l in range(2**n):
            worst = max(worst, abs(almost.signed_sum((x0, 0), l=l) - 2.0**-n))
        di = _ref_table(n, name, DI)
        for i in range(1, n + 1):
            for k in range(4):
                p = di.signed_sum((x0, 0, PERP), r={i: k})
                worst = max(worst, abs(p - 0.25))
    _finish(3, worst <= 1e-12, f"outcome rates, worst deviation {worst:.2e}")


def test_criterion_4_tomographic_sums_first_network():
    cases = [(2, "cz", None), (2, "cnot", None), (2, "swap", None), (2, "identity", None)]
    cases += [(2, "random", seed) for seed in range(5)]
    cases += [(3, "toffoli", None)]
    worst = 0.0
    ok = True
    for n, name, seed in cases:
        table = _ref_table(n, name, ALMOST_DI, seed)
        report = certify(table, _gate(name, n, seed))
        worst = max(worst, _step_residuals(report, "step2.fsum"))
        ok = ok and report.verdict == "certified"
    ok = ok and worst <= 1e-9
    _finish(4, ok, f"tomographic sums across gates, worst residual {worst:.2e}")


def test_criterion_5_tomographic_sums_repeater_network():
    worst = 0.0
    ok = True
    for name, seed in (("identity", None), ("cnot", None), ("random", 0)):
        table = _ref_table(2, name, DI, seed)
        report = certify(table, _gate(name, 2, seed))
        worst = max(worst, _step_residuals(report, "step3.fsum"))
        ok = ok and report.verdict == "certified"
    ok = ok and worst <= 1e-9
    _finish(5, ok, f"repeater tomographic sums, worst residual {worst:.2e}")


def test_criterion_6_adversarial_invariance():
    u = _gate("cnot", 2)
    moved = 0.0
    ok = True
    for scheme in (ALMOST_DI, DI):
        base = reference_realization(2, u, scheme=scheme)
        base_tab = _ref_table(2, "cnot", scheme)
        base_rep = certify(base_tab, u)
        ok = ok and base_rep.verdict == "certified"

        seeds = range(5) if scheme == ALMOST_DI else (0,)
        for seed in seeds:
            tab = born_table(dilate(base, junk_dim=2, seed=seed))
            moved = max(moved, base_tab.max_difference(tab))
            ok = ok and certify(tab, u).verdict == base_rep.verdict

        conj = conjugate(base)
        tab = born_table(conj)
        moved = max(moved, base_tab.max_difference(tab))
        ok = ok and certify(tab, u).verdict == base_rep.verdict
        ok = ok and Extraction(base, u).branch == "plus" and Extraction(conj, u).branch == "minus"

        rng = np.random.default_rng(20)
        for _ in range(5):
            thetas = rng.uniform(-np.pi, np.pi, size=2**base.n)
            tab = born_table(gauge_phase(base, thetas))
            if scheme == ALMOST_DI:
                moved = max(moved, base_tab.max_difference(tab))
            ok = ok and certify(tab, u).verdict == base_rep.verdict
    ok = ok and moved <= 1e-12
    _finish(6, ok, f"invariance under hidden-side changes, max table shift {moved:.2e}")


def _source_fidelities(real, frames):
    """Overlap of each extracted two-qubit source with the maximally
    entangled pair, junk traced out."""
    n = real.n
    if real.scheme == ALMOST_DI:
        pairs = [(frames.a[i], frames.l[i], real.sources[i]) for i in range(n)]
    else:
        pairs = [(frames.a[i], frames.r1[i], real.sources[i]) for i in range(n)]
        pairs += [(frames.r2[i], frames.l[i], real.sources[n + i]) for i in range(n)]
    phi = phi_plus().amplitudes
    out = []
    for fa, fb, src in pairs:
        ka, kb = fa.isometry(), fb.isometry()
        da, db = ka.shape[1], kb.shape[1]
        vec = np.kron(ka, kb) @ src.amplitudes
        m = vec.reshape(2, da, 2, db).transpose(0, 2, 1, 3).reshape(4, da * db)
        rho = m @ m.conj().T
        out.append(float(np.real(phi.conj() @ rho @ phi)))
    return out


def test_criterion_7_extraction_on_dilations():
    cases = [
        (reference_realization(2, _gate("cz", 2)), _gate("cz", 2)),
        (reference_realization(3, _gate("toffoli", 3)), _gate("toffoli", 3)),
        (reference_realization(2, _gate("cnot", 2), scheme=DI), _gate("cnot", 2)),
    ]
    worst_fid = 0.0
    worst_op = 0.0
    for base, u in cases:
        real = dilate(base, junk_dim=2, seed=7)
        ext = Extraction(real, u)
        for f in _source_fidelities(real, ext.frames):
            worst_fid = max(worst_fid, 1.0 - f)
        worst_op = max(worst_op, float(ext.measurement_distances().max()))
        worst_op = max(worst_op, ext.unitary_certificate(), ext.block_deviation())
        worst_fid = max(worst_fid, 1.0 - ext.fidelity())
    ok = worst_fid <= 1e-9 and worst_op <= 1e-8
    _finish(
        7,
        ok,
        f"extraction on dilations, fidelity gap {worst_fid:.2e}, operator residual {worst_op:.2e}",
    )


def test_criterion_8_soundness_under_drift():
    u = _gate("cz", 2)
    base = reference_realization(2, u)
    failures = 0
    monotone = True
    for seed in range(20):
        residuals = []
        for eps in (0.01, 0.05, 0.1):
            table = born_table(perturb(base, epsilon=eps, seed=seed))
            report = certify(table, u, tol=1e-6)
            residuals.append(_step_residuals(report, "step2.fsum"))
            if eps == 0.1 and report.verdict != "certified":
                failures += 1
        monotone = monotone and residuals[0] < residuals[1] < residuals[2]
    ok = failures == 20 and monotone
    _finish(8, ok, f"drift detection, {failures}/20 rejected, residual growth monotone {monotone}")


def test_criterion_9_seesaw_attains_quantum_values():
    res_i = seesaw_max(functional_I((0, 0)), restarts=8, seed=0)
    res_k = seesaw_max(functional_K(1, k_sign_bits(0), 2), restarts=8, seed=0)
    gap = max(3.0 - res_i.value, 2.0 - res_k.value)
    excess = max(res_i.value - 3.0, res_k.value - 2.0)
    ok = gap <= 1e-6 and excess <= 1e-6
    _finish(9, ok, f"see-saw optimization, gap {gap:.2e}, excess {excess:.2e}")
