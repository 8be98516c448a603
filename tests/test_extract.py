"""Local frame extraction and the operator-level certification identities."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gatecert import extract
from gatecert.adversary import conjugate, dilate
from gatecert.extract import (
    Extraction,
    branch_of,
    extract_all,
    grouped_isometry,
    mirror_frame,
    regularize,
    support_projector,
    swap_isometry,
    teleported_elements,
)
from gatecert.certify import certify
from gatecert.network import ALMOST_DI, DI, born_table, reference_realization
from gatecert.primitives import gate, haar_unitary, ref_observable
from gatecert.tensor import Operator, StateVector

SQ2 = np.sqrt(2.0)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def test_regularize_tilde_pair():
    a0 = Operator((X + Z) / SQ2, (2,))
    a1 = Operator((X - Z) / SQ2, (2,))
    z, x = regularize(a0, a1, tilde=True)
    assert np.allclose(z, Z, atol=1e-14)
    assert np.allclose(x, X, atol=1e-14)
    z2, x2 = regularize(Operator(Z, (2,)), Operator(X, (2,)), tilde=False)
    assert np.allclose(z2, Z)
    assert np.allclose(x2, X)


def test_mirror_frame_through_phi_plus_is_transpose():
    src = StateVector(np.eye(2).reshape(-1) / SQ2, (2, 2))
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
    src = StateVector(psi, (2, 2))
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
    ka = swap_isometry(Z, X)
    kb = swap_isometry(X, Z)  # a different frame on site 2
    w = grouped_isometry([ka, kb])
    assert w.shape == (16, 4)
    assert np.allclose(w.conj().T @ w, np.eye(4), atol=1e-13)
    # output legs ordered (q1, q2, j1, j2): compare against manual regroup
    raw = np.kron(ka, kb).reshape(2, 2, 2, 2, 4)
    manual = raw.transpose(0, 2, 1, 3, 4).reshape(16, 4)
    assert np.allclose(w, manual)


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


def test_effective_elements_reference_almost():
    real = reference_realization(2, gate("swap", 2))
    elements, support = extract._box_elements(real), extract.Extraction(real, None).support
    assert len(elements) == 4
    assert np.allclose(support, np.eye(4), atol=1e-12)
    total = sum(elements)
    assert np.allclose(total, np.eye(4), atol=1e-12)


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
    frames, branch, targets, effective elements, support of the collective
    state (di only) and the grouped isometry W, from which the ideal-basis
    rows of the GHZ blocks are contracted, are computed once, and the rows
    equal the steps run on their own."""
    calls = Counter()
    collective = []

    def counted(name):
        fn = getattr(extract, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "_collective_state":
                collective.append(out)
            elif name == "support_projector" and any(args[0] is rho for rho in collective):
                calls["collective support"] += 1
            return out

        return wrapper

    names = ("extract_all", "branch_of", "delta_set", "_box_elements", "_collective_state", "grouped_isometry")
    for name in names + ("support_projector",):
        monkeypatch.setattr(extract, name, counted(name))
    u = gate("random", 2, seed=6)
    for scheme, junk in ((ALMOST_DI, 2), (DI, 1)):
        real = dilate(reference_realization(2, u, scheme=scheme), junk_dim=junk, seed=3)
        calls.clear()
        rows = {c.id: c.lhs for c in certify(born_table(real), u, realization=real).checks}
        once = {name: 1 for name in names}
        if scheme == ALMOST_DI:
            once["_collective_state"] = 0  # almost_di checks never restrict to the support
        else:
            once["collective support"] = 1
        site_supports = calls.pop("support_projector") - calls["collective support"]
        assert site_supports == (2 if scheme == ALMOST_DI else 4) * real.n  # one per frame in extract_all
        assert calls == Counter(once)
        dists = Extraction(real, u).measurement_distances()
        alone = {f"extract.meas[{l:02b}]": dists[l] for l in range(4)}
        alone["extract.unitary"] = Extraction(real, u).unitary_certificate()
        alone["extract.blocks"] = Extraction(real, u).block_deviation()
        alone["extract.fidelity"] = Extraction(real, u).fidelity()
        assert all(abs(rows[key] - value) <= 1e-13 for key, value in alone.items())
