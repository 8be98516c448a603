"""Local frame extraction and the operator-level certification identities."""

import re
from collections import Counter
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from dense_oracle import grouped_isometry, kron_extract_rows
from strategies import with_junk

from gatecert import extract, network
from gatecert.adversary import _lift, conjugate, depolarize_sources, dilate, gauge_phase, perturb
from gatecert.extract import (
    OP_TOL,
    Extraction,
    branch_of,
    extract_all,
    mirror_frame,
    regularize,
    support_projector,
    swap_isometry,
    teleported_elements,
)
from gatecert.certify import certify, protocol_rows
from gatecert.network import ALMOST_DI, DI, born_table, reference_realization
from gatecert.primitives import gate, ghz_basis, haar_unitary, ref_observable
from gatecert.tensor import Operator, StateVector, apply_layers, polar_factor

SQ2 = np.sqrt(2.0)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def test_regularize_tilde_pair():
    z, x = regularize((X + Z) / SQ2, (X - Z) / SQ2)
    assert np.allclose(z, Z, atol=1e-14)
    assert np.allclose(x, X, atol=1e-14)


def test_mirror_frame_through_phi_plus_is_transpose():
    src = np.eye(2) / SQ2
    z, x = mirror_frame(Z, X, src, framed_wing=0)
    assert np.allclose(z, Z, atol=1e-14)
    assert np.allclose(x, X, atol=1e-14)
    y, _ = mirror_frame(Y, X, src, framed_wing=0)
    assert np.allclose(y, Y.T, atol=1e-14)


def test_mirror_frame_complex_rotation_correlators():
    """The mirrored pair must reach correlation 1 with the framed pair on the
    rotated source; a transposed mirror only manages this for real frames."""
    rng = np.random.default_rng(0)
    w0, w1 = haar_unitary(2, rng), haar_unitary(2, rng)
    psi = np.kron(w0, w1) @ (np.eye(2).reshape(-1) / SQ2)
    src = psi.reshape(2, 2)
    z0, x0 = w0 @ Z @ w0.conj().T, w0 @ X @ w0.conj().T
    z1, x1 = mirror_frame(z0, x0, src, framed_wing=0)
    assert np.isclose(np.vdot(psi, np.kron(z0, z1) @ psi).real, 1.0, atol=1e-12)
    assert np.isclose(np.vdot(psi, np.kron(x0, x1) @ psi).real, 1.0, atol=1e-12)
    assert np.allclose(z1 @ z1, np.eye(2), atol=1e-12)
    assert np.allclose(z1 @ x1 + x1 @ z1, 0.0, atol=1e-12)
    # mirroring back from the other wing recovers the original frame
    z0b, x0b = mirror_frame(z1, x1, src, framed_wing=1)
    assert np.allclose(z0b, z0, atol=1e-12)
    assert np.allclose(x0b, x0, atol=1e-12)


def test_swap_isometry_computational_frame():
    k = swap_isometry(Z, X)
    want = np.array([[1, 0], [0, 0], [0, 1], [0, 0]], dtype=complex)
    assert np.allclose(k, want)
    assert np.allclose(k.conj().T @ k, np.eye(2), atol=1e-14)


def test_swap_isometry_is_isometry_for_any_involutions():
    rng = np.random.default_rng(4)
    w = haar_unitary(4, rng)
    z = w @ np.diag([1.0, 1.0, -1.0, -1.0]) @ w.conj().T
    x = w @ np.kron(X, np.eye(2)) @ w.conj().T
    k = swap_isometry(z, x)
    assert k.shape == (8, 4)
    assert np.allclose(k.conj().T @ k, np.eye(4), atol=1e-12)


def test_grouped_isometry_reorders_qubit_and_junk_legs():
    """The package's W: the sites' stacks [K_0, K_1], applied last site
    first, give W times each row with the qubit digits first, so on the rows
    of the identity row (q1, q2, input) holds column input of W's rows
    (q1, q2, j1, j2); and ``Extraction.basis_rows`` is W in that leg order
    contracted with the ideal basis."""
    ka = swap_isometry(Z, X)
    kb = swap_isometry(X, Z)  # a different frame on site 2
    out, dims = apply_layers(np.eye(4), (2, 2), [(kb.reshape(2, 2, 2), [1]), (ka.reshape(2, 2, 2), [0])])
    assert out.shape == (16, 4) and dims == (2, 2)
    w = out.reshape(4, 4, 4).swapaxes(1, 2).reshape(16, 4)
    assert np.allclose(w.conj().T @ w, np.eye(4), atol=1e-13)
    # output legs ordered (q1, q2, j1, j2): compare against manual regroup
    raw = np.kron(ka, kb).reshape(2, 2, 2, 2, 4)
    manual = raw.transpose(0, 2, 1, 3, 4).reshape(16, 4)
    assert np.allclose(w, manual)
    ext = Extraction(dilate(reference_realization(2, gate("cnot", 2)), junk_dim=2, seed=3), None)
    w = grouped_isometry([f.isometry() for f in ext.sites])
    want = np.tensordot(ghz_basis(2).conj(), w.reshape(4, -1, w.shape[1]), axes=(0, 0))
    assert ext.basis_rows.flags.c_contiguous
    assert np.allclose(ext.basis_rows, want, atol=1e-13)


def test_support_projector_rank():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    p = support_projector(rho)
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(p @ p, p)


def test_extract_all_reference_frames_are_pauli():
    for scheme in (ALMOST_DI, DI):
        real = reference_realization(2, gate("cnot", 2), scheme=scheme)
        frames = extract_all(real)
        groups = [frames.a, frames.l] + ([frames.r1, frames.r2] if scheme == DI else [])
        for group in groups:
            for f in group:
                assert np.allclose(f.z, Z, atol=1e-12)
                assert np.allclose(f.x, X, atol=1e-12)
                assert np.allclose(f.support, np.eye(2), atol=1e-12)


def test_extract_all_dilated_frames_satisfy_algebra():
    real = dilate(reference_realization(2, gate("cz", 2)), junk_dim=3, seed=11)
    frames = extract_all(real)
    for f in frames.a + frames.l:
        d = f.z.shape[0]
        assert d == 6
        s = f.support
        assert np.allclose(f.z @ f.z, np.eye(d), atol=1e-10)
        assert np.allclose(s @ (f.z @ f.x + f.x @ f.z) @ s, 0.0, atol=1e-10)
        k = f.isometry()
        assert np.allclose(k.conj().T @ k, np.eye(d), atol=1e-10)


def test_extract_all_rejects_degenerate_observables():
    real = reference_realization(2, gate("cz", 2))
    same = ref_observable(1, 0)
    broken = ((same, same, real.a_obs[0][2]),) + real.a_obs[1:]
    with pytest.raises(ValueError):
        extract_all(replace(real, a_obs=broken))


def test_branch_detection():
    plus = reference_realization(2, gate("cnot", 2))
    minus = reference_realization(2, gate("cnot", 2), branch=-1)
    assert branch_of(plus, extract_all(plus)) == "plus"
    assert branch_of(minus, extract_all(minus)) == "minus"
    conj = conjugate(plus)
    assert branch_of(conj, extract_all(conj)) == "minus"
    third = Operator(-plus.a_obs[1][2].entries, (2,))
    mixed = replace(plus, a_obs=(plus.a_obs[0], (plus.a_obs[1][0], plus.a_obs[1][1], third)))
    assert branch_of(mixed, extract_all(mixed)) == "mixed"


def test_extraction_checks_its_target_gate():
    """A target gate of the wrong size or not unitary is refused as
    ``certify`` refuses it.  Without a target, every check that compares
    with it raises ValueError, and the extracted gate is read as with one."""
    u = gate("cnot", 2)
    real = reference_realization(2, u, scheme=DI)
    with pytest.raises(ValueError, match=re.escape("target gate must act on 2 qubits, got dims (2, 2, 2)")):
        Extraction(real, gate("toffoli", 3))
    with pytest.raises(ValueError, match="^target gate is not unitary$"):
        Extraction(real, Operator(2 * np.eye(4, dtype=complex), (2, 2)))
    ext = Extraction(real, None)
    for check in (ext.measurement_distances, ext.unitary_certificate, ext.block_deviation, ext.fidelity):
        with pytest.raises(ValueError, match=r"^this extraction has no target gate \(u is None\)$"):
            check()
    assert ext.gate().tobytes() == Extraction(real, u).gate().tobytes()


def test_effective_elements_reference_almost(monkeypatch):
    """``_box_elements`` yields one stack per pass of ``PASS_ENTRIES // D^2``
    outcomes, each element with the bits of a single pass over all."""
    real = reference_realization(2, gate("swap", 2))
    stacks = list(extract._box_elements(real, real.eve.entries))
    assert extract.Extraction(real, None).support is None  # every L site has full support
    assert [len(stack) for stack in stacks] == [4]  # at D = 4 one pass holds every outcome
    total = sum(stacks[0])
    assert np.allclose(total, np.eye(4), atol=1e-12)
    monkeypatch.setattr(network, "PASS_ENTRIES", 2 * 4**2)
    passes = list(extract._box_elements(real, real.eve.entries))
    assert [len(stack) for stack in passes] == [2, 2]
    assert np.concatenate(passes).tobytes() == stacks[0].tobytes()


def test_teleported_elements_structure():
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    els = teleported_elements(real)
    assert len(els) == 4
    s = sum(els)
    assert np.allclose(s @ s, s, atol=1e-12)
    for a in range(4):
        assert np.allclose(els[a], els[a].conj().T, atol=1e-12)
        for b in range(a + 1, 4):
            assert np.allclose(els[a] @ els[b], 0.0, atol=1e-12)


def test_certification_identities_at_reference():
    for scheme in (ALMOST_DI, DI):
        for branch in (+1, -1):
            u = gate("cnot", 2)
            real = reference_realization(2, u, branch=branch, scheme=scheme)
            ext = Extraction(real, u)
            assert ext.branch == ("plus" if branch == 1 else "minus")
            assert ext.measurement_distances().max() <= 1e-10
            assert ext.unitary_certificate() <= 1e-10
            assert ext.block_deviation() <= 1e-10


def test_certification_identities_on_dilations():
    u = gate("random", 2, seed=6)
    for scheme in (ALMOST_DI, DI):
        real = dilate(reference_realization(2, u, scheme=scheme), junk_dim=2, seed=3)
        ext = Extraction(real, u)
        assert ext.measurement_distances().max() <= 1e-8
        assert ext.unitary_certificate() <= 1e-8
        assert ext.block_deviation() <= 1e-8
        assert ext.fidelity() >= 1.0 - 1e-9


def test_extraction_gate_equals_target_up_to_phase():
    u = gate("random", 2, seed=8)
    for branch in (+1, -1):
        real = dilate(reference_realization(2, u, branch=branch), junk_dim=2, seed=5)
        ext = Extraction(real, u)
        g = ext.gate()
        phase = np.trace(u.entries.conj().T @ g)
        phase /= abs(phase)
        assert np.allclose(g, phase * u.entries, atol=1e-8)
        assert ext.fidelity() >= 1.0 - 1e-12


def test_wrong_gate_shows_up_in_identities():
    real = reference_realization(2, gate("cnot", 2))
    ext = Extraction(real, gate("swap", 2))
    assert ext.measurement_distances().max() > 0.1
    assert ext.fidelity() < 0.9


def test_mixed_branch_has_no_comparison_target():
    real = reference_realization(2, gate("cz", 2))
    third = Operator(-real.a_obs[1][2].entries, (2,))
    mixed = replace(real, a_obs=(real.a_obs[0], (real.a_obs[1][0], real.a_obs[1][1], third)))
    with pytest.raises(ValueError):
        Extraction(mixed, gate("cz", 2)).unitary_certificate()


def test_certify_computes_shared_extraction_pieces_once(monkeypatch):
    """One ``Extraction`` serves every operator-level row of a report: the
    frames, branch, targets, effective elements and the ideal-basis rows
    of the GHZ blocks, contracted from the swap isometries W, are computed
    once, and the rows equal the steps run on their own.  The
    only support projectors are the site supports ``extract_all`` vets the
    frames on, one stacked call per collection, in both schemes; with junk
    of Schmidt rank 1 they are not full and the rows still come out once."""
    calls = Counter()

    def counted(name):
        fn = getattr(extract, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("extract_all", "branch_of", "delta_set", "_box_elements")
    for name in names + ("support_projector",):
        monkeypatch.setattr(extract, name, counted(name))
    build_rows = Extraction.basis_rows.func

    def basis_rows(self):
        calls["basis_rows"] += 1
        return build_rows(self)

    counted_rows = cached_property(basis_rows)
    counted_rows.__set_name__(Extraction, "basis_rows")
    monkeypatch.setattr(Extraction, "basis_rows", counted_rows)
    names += ("basis_rows",)
    u = gate("random", 2, seed=6)
    for scheme, junk in ((ALMOST_DI, 2), (DI, 1), (ALMOST_DI, 0), (DI, 0)):
        ref = reference_realization(2, u, scheme=scheme)
        real = dilate(ref, junk_dim=junk, seed=3) if junk else depolarize_sources(ref, 0.0)
        calls.clear()
        rows = {c.id: c.lhs for c in certify(born_table(real), u, realization=real).checks}
        assert calls.pop("support_projector") == (2 if scheme == ALMOST_DI else 4)
        assert calls == Counter({name: 1 for name in names})
        dists = Extraction(real, u).measurement_distances()
        alone = {f"extract.meas[{l:02b}]": dists[l] for l in range(4)}
        alone["extract.unitary"] = Extraction(real, u).unitary_certificate()
        alone["extract.blocks"] = Extraction(real, u).block_deviation()
        alone["extract.fidelity"] = Extraction(real, u).fidelity()
        assert all(abs(rows[key] - value) <= 1e-13 for key, value in alone.items())
        assert (Extraction(real, u).support is None) == bool(junk)


def _with_degenerate_pairs(real, parties=(), subnets=()):
    """``real`` with the first two observables of the listed parties, and
    the box observables of the listed subnets, both set to Z: their frame
    pairs commute."""
    z = Operator(Z, (2,))
    a_obs = tuple((z, z, obs[2]) if i in parties else obs for i, obs in enumerate(real.a_obs, start=1))
    if not subnets:
        return replace(real, a_obs=a_obs)
    b_obs = tuple((z, z) if i in subnets else obs for i, obs in enumerate(real.b_obs, start=1))
    return replace(real, a_obs=a_obs, b_obs=b_obs)


ANTICOMMUTE = (
    "site {}: frame operators do not anticommute on the local support (deviation 2.00e+00); "
    "the realization does not meet the extraction conditions"
)


TOFFOLI_ALMOST = reference_realization(3, gate("toffoli", 3))
TOFFOLI_DI = reference_realization(3, gate("toffoli", 3), scheme=DI)
CNOT_ALMOST = reference_realization(2, gate("cnot", 2))


@pytest.mark.parametrize(
    "real, op_tol, message",
    [
        (_with_degenerate_pairs(TOFFOLI_ALMOST, parties=(2, 3)), OP_TOL, ANTICOMMUTE.format("A2")),
        (_with_degenerate_pairs(TOFFOLI_DI, subnets=(1, 3)), OP_TOL, ANTICOMMUTE.format("L1")),
        (_with_degenerate_pairs(TOFFOLI_DI, parties=(3,), subnets=(2,)), OP_TOL, ANTICOMMUTE.format("A3")),
        (dilate(CNOT_ALMOST, junk_dim=2, seed=3), 1e-15, "site A2: z frame operator is not an involution"),
        (dilate(TOFFOLI_DI, junk_dim=2, seed=3), 1e-15, "site L2: x frame operator is not an involution"),
    ],
    ids=["almost-A2-A3", "di-L1-L3", "di-A3-L2", "involution-A2", "involution-L2"],
)
def test_extract_all_names_the_first_faulty_site(real, op_tol, message):
    """With two or more faulty sites the error names the first in site
    order (A, L, R1, R2, each by subnet) and its first failing condition."""
    with pytest.raises(ValueError) as err:
        extract_all(real, op_tol)
    assert str(err.value) == message


@pytest.mark.parametrize("scheme, junk", [(ALMOST_DI, 2), (DI, 2)])
def test_block_deviation_does_not_depend_on_the_pass_size(monkeypatch, scheme, junk):
    """One row per pass and the whole matrix in one pass give the same bits
    as the default entry budget."""
    u = gate("random", 3, seed=2)
    real = dilate(reference_realization(3, u, scheme=scheme), junk_dim=junk, seed=7)
    values = []
    for budget in (network.PASS_ENTRIES, 1, 2**40):
        monkeypatch.setattr(network, "PASS_ENTRIES", budget)
        values.append(Extraction(real, u).block_deviation())
    assert values[0] > 0.0
    assert values[1] == values[0] and values[2] == values[0]


def test_stacked_frame_helpers_give_each_site_its_own_bits():
    """On 2-D input the helpers give the bits of the single-site formulas;
    on a stack each site's result equals its own 2-D result bit for bit."""
    rng = np.random.default_rng(9)
    ws = np.stack([haar_unitary(4, rng) for _ in range(3)])
    z = ws @ np.diag([1.0, 1.0, -1.0, -1.0]) @ np.swapaxes(ws, -1, -2).conj()
    x = ws @ np.kron(X, np.eye(2)) @ np.swapaxes(ws, -1, -2).conj()
    psi = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    psi /= np.linalg.norm(psi, axis=(1, 2), keepdims=True)
    rho = psi @ np.swapaxes(psi, -1, -2).conj()
    rho[1] = psi[1][:, :2] @ psi[1][:, :2].conj().T  # rank 2

    def alone(k):
        vals, vecs = np.linalg.eigh(rho[k])
        keep = vecs[:, vals > extract.SUPPORT_TOL]
        ops = [(z[k] - x[k]) / SQ2, (z[k] + x[k]) / SQ2]
        m = [np.einsum("aA,Ab,ad->bd", op, psi[k], psi[k].conj()) for op in (z[k], x[k])]
        m += [np.einsum("bB,aB,cb->ac", op, psi[k], psi[k].conj()) for op in (z[k], x[k])]
        mirrored = [polar_factor((e + e.conj().T) / 2) for e in m]
        return [keep @ keep.conj().T] + [polar_factor(op) for op in ops] + mirrored

    def helpers(k):
        return [
            support_projector(rho[k]),
            *regularize(z[k], x[k]),
            *mirror_frame(z[k], x[k], psi[k], framed_wing=0),
            *mirror_frame(z[k], x[k], psi[k], framed_wing=1),
        ]

    stacked = [support_projector(rho), *regularize(z, x)]
    stacked += [*mirror_frame(z, x, psi, framed_wing=0), *mirror_frame(z, x, psi, framed_wing=1)]
    for k in range(3):
        for want, got_2d, got_stack in zip(alone(k), helpers(k), stacked):
            assert got_2d.tobytes() == want.tobytes()
            assert got_stack[k].tobytes() == want.tobytes()
    assert np.linalg.matrix_rank(stacked[0][1]) == 2


@pytest.mark.parametrize("scheme", [ALMOST_DI, DI])
def test_sites_of_different_dimensions_match_the_lifted_extractor(scheme):
    """Junk on the sites of subnet 2 only gives collections whose sites
    differ in dimension; they are stacked one dimension at a time, and
    every operator-level row still matches the lifted extractor."""
    u = gate("random", 2, seed=4)
    real = reference_realization(2, u, scheme=scheme)
    lay, rng = real.layout(), np.random.default_rng(12)
    second = {lay.a_site(2), lay.l_site(2)} | ({lay.r1_site(2), lay.r2_site(2)} if scheme == DI else set())
    junk = [2 if s in second else 1 for s in range(len(lay.dims))]
    sources = []
    for src, (s0, s1) in zip(real.sources, lay.source_sites()):
        j0, j1 = junk[s0], junk[s1]
        chi = rng.normal(size=(j0, j1)) + 1j * rng.normal(size=(j0, j1))
        amp = np.tensordot(src.amplitudes.reshape(src.dims), chi / np.linalg.norm(chi), axes=0)
        sources.append(StateVector(amp.transpose(0, 2, 1, 3).reshape(-1), (src.dims[0] * j0, src.dims[1] * j1)))
    real = real.map_operators(lambda op, sites: _lift(op, [junk[s] for s in sites], None), sources=tuple(sources))
    ext = Extraction(real, u)
    assert [f.z.shape[0] for f in ext.frames.a] == [2, 4]
    rows = kron_extract_rows(ext)
    assert max(v for k, v in rows.items() if k != "extract.fidelity") <= 1e-10
    assert rows["extract.fidelity"] >= 1.0 - 1e-10
    assert rows["extract.unitary"] == pytest.approx(ext.unitary_certificate(), abs=1e-13)
    assert rows["extract.blocks"] == pytest.approx(ext.block_deviation(), abs=1e-13)
    dists = ext.measurement_distances()
    assert all(abs(rows[f"extract.meas[{l:02b}]"] - dists[l]) <= 1e-13 for l in range(4))


_PRODUCT_JUNK = np.diag([1.0, 0.0]).astype(complex)  # |0>|0>: Schmidt rank 1


@pytest.mark.parametrize(
    "name, change, verdict, branch",
    [
        ("toffoli", lambda r: with_junk(r, _PRODUCT_JUNK), "certified", "plus"),
        ("random", lambda r: with_junk(r, _PRODUCT_JUNK, seed=4), "certified", "plus"),
        ("toffoli", lambda r: depolarize_sources(r, 0.0), "certified", "plus"),
        ("random", lambda r: dilate(r, junk_dim=2, seed=5), "certified", "plus"),
        ("random", conjugate, "certified", "minus"),
        ("toffoli", lambda r: perturb(r, 0.05, seed=1), "not-certified", "plus"),
    ],
    ids=["toffoli-product-junk", "random-product-junk-rotated", "depolarize-0", "dilate-2", "conjugate", "perturb"],
)
def test_realization_mode_verdicts_at_three_subnets(name, change, verdict, branch):
    """almost_di n=3 local isometries of the reference certify in
    realization mode with the reference's branch (minus when conjugated),
    whatever the junk's Schmidt rank; at eta 0 each second wing carries a
    product junk state of dimension 4.  A perturbed Eve stays refused, as
    does the depolarized realization at eta 0.05
    (``test_extract_oracle.test_depolarized_three_subnets_fit_in_memory``)."""
    u = gate(name, 3, seed=2)
    real = change(reference_realization(3, u))
    report = certify(born_table(real, rows=protocol_rows(ALMOST_DI, 3)), u, realization=real)
    assert (report.verdict, report.branch) == (verdict, branch)


@pytest.mark.parametrize("scheme, change", [(ALMOST_DI, "perturb"), (ALMOST_DI, "depolarize"), (DI, "perturb"), (DI, "depolarize")])
def test_realization_mode_refuses_noise_on_rank_deficient_junk(scheme, change):
    """At n=2 the depolarized realization's sites are rank deficient at any
    eta: at eta 0 it certifies, at eta 0.05 it does not, and neither does a
    perturbed Eve behind product junk."""
    u = gate("cnot", 2)
    real = reference_realization(2, u, scheme=scheme)
    rows = protocol_rows(scheme, 2)
    clean = depolarize_sources(real, 0.0)
    assert certify(born_table(clean, rows=rows), u, realization=clean).verdict == "certified"
    noisy = depolarize_sources(real, 0.05) if change == "depolarize" else perturb(with_junk(real, _PRODUCT_JUNK), 0.05, seed=1)
    assert Extraction(noisy, u).support is not None
    assert certify(born_table(noisy, rows=rows), u, realization=noisy).verdict == "not-certified"


@pytest.mark.parametrize("scheme, n", [(ALMOST_DI, 2), (DI, 2), (ALMOST_DI, 3), (DI, 3)])
def test_phase_gauge_is_invisible_to_the_statistics_only(scheme, n):
    """A phase gauge of the box leaves every row the protocol reads
    unchanged, so statistics-only mode certifies; realization mode does
    not, because the block deviation and the fidelity compare Eve's
    operation itself, which the gauge changes.  The measurement distances
    and the unitary certificate, which compare Eve only through the box
    elements, pass."""
    u = gate("random", n, seed=3)
    real = gauge_phase(reference_realization(n, u, scheme=scheme), np.random.default_rng(3).uniform(-np.pi, np.pi, 2**n))
    table = born_table(real, rows=protocol_rows(scheme, n))
    assert certify(table, u).verdict == "certified"
    report = certify(table, u, realization=real)
    failed = {c.id for c in report.checks if not c.passed}
    assert report.verdict == "not-certified"
    assert failed == {"extract.blocks", "extract.fidelity"}
