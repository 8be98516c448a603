"""Families of alternative realizations and what they do to the statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from dense_oracle import listed_assemble_state, listed_conjugate, listed_depolarize_sources, listed_dilate
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecert import network
from gatecert.adversary import (
    ADVERSARY_KINDS,
    AdversarySpec,
    apply_adversary,
    conjugate,
    depolarize_sources,
    dilate,
    gauge_phase,
    load_adversary,
    perturb,
    save_adversary,
)
from gatecert.certify import certify, protocol_rows
from gatecert.extract import Extraction
from gatecert.network import (
    ALMOST_DI,
    DI,
    PERP,
    SCHEMES,
    born_table,
    reference_realization,
    validate_realization,
)
from gatecert.primitives import gate


def test_spec_record_roundtrip(tmp_path):
    """Each kind writes its record, loads back equal from its file, and the
    loaded spec applies bit for bit as the direct call does."""
    real = reference_realization(2, gate("cz", 2))
    thetas = (0.5, -1.0, 2.0, 0.0)
    cases = [
        (AdversarySpec("dilate", junk_dim=3, seed=9, rotate=False),
         {"kind": "dilate", "junk_dim": 3, "seed": 9, "rotate": False}, dilate(real, 3, seed=9, rotate=False)),
        (AdversarySpec("conjugate"), {"kind": "conjugate"}, conjugate(real)),
        (AdversarySpec("gauge_phase", thetas=thetas), {"kind": "gauge_phase", "thetas": list(thetas)},
         gauge_phase(real, thetas)),
        (AdversarySpec("perturb", epsilon=0.05, seed=3), {"kind": "perturb", "epsilon": 0.05, "seed": 3},
         perturb(real, 0.05, seed=3)),
        (AdversarySpec("depolarize", eta=0.1), {"kind": "depolarize", "eta": 0.1}, depolarize_sources(real, 0.1)),
    ]
    assert [spec.kind for spec, _, _ in cases] == list(ADVERSARY_KINDS)
    path = tmp_path / "adv.json"
    for spec, record, direct in cases:
        assert spec.to_record() == record
        assert AdversarySpec.from_record(record) == spec
        save_adversary(spec, str(path))
        loaded = load_adversary(str(path))
        assert loaded == spec
        via_spec, expected = born_table(apply_adversary(real, loaded)), born_table(direct)
        assert all(np.array_equal(via_spec.array(key), expected.array(key)) for key in expected.keys())
    assert AdversarySpec("gauge_phase").to_record() == {"kind": "gauge_phase", "thetas": []}
    with pytest.raises(ValueError, match="gauge_phase adversary needs per-outcome phases"):
        apply_adversary(real, AdversarySpec("gauge_phase"))
    with pytest.raises(ValueError):
        AdversarySpec.from_record({"kind": "unheard_of"})


def test_apply_adversary_dispatch():
    real = reference_realization(2, gate("cz", 2))
    via_spec = apply_adversary(real, AdversarySpec("dilate", junk_dim=2, seed=4))
    direct = dilate(real, junk_dim=2, seed=4)
    assert born_table(via_spec).max_difference(born_table(direct)) == 0.0
    with pytest.raises(ValueError):
        apply_adversary(real, AdversarySpec("depolarize", eta=1.5))


def test_dilate_trivial_is_identity():
    real = reference_realization(2, gate("cnot", 2))
    same = dilate(real, junk_dim=1, rotate=False)
    assert born_table(real).max_difference(born_table(same)) == 0.0
    for s, t in zip(real.sources, same.sources):
        assert np.allclose(s.amplitudes, t.amplitudes)


def test_dilate_preserves_statistics():
    u = gate("random", 2, seed=2)
    real = reference_realization(2, u)
    base = born_table(real)
    for junk, seed in ((2, 0), (3, 7)):
        big = dilate(real, junk_dim=junk, seed=seed)
        validate_realization(big)
        assert big.sources[0].dims != real.sources[0].dims
        assert base.max_difference(born_table(big)) <= 1e-12


def test_dilate_preserves_statistics_di():
    # the eight-site dilated network is the expensive case, so one seed only
    u = gate("random", 2, seed=2)
    real = reference_realization(2, u, scheme=DI)
    big = dilate(real, junk_dim=2, seed=0)
    validate_realization(big)
    assert born_table(real).max_difference(born_table(big)) <= 1e-12


def test_dilate_grows_dimensions():
    real = dilate(reference_realization(2, gate("cz", 2)), junk_dim=3, seed=1)
    assert real.a_dims() == (6, 6)
    assert real.l_dims() == (6, 6)
    assert real.eve.dims == (6, 6)


def test_conjugate_fixes_statistics_flips_branch():
    u = gate("random", 2, seed=5)
    for scheme in (ALMOST_DI, DI):
        real = reference_realization(2, u, scheme=scheme)
        conj = conjugate(real)
        validate_realization(conj)
        assert born_table(real).max_difference(born_table(conj)) <= 1e-14
        assert Extraction(real, u).branch == "plus"
        assert Extraction(conj, u).branch == "minus"
        twice = conjugate(conj)
        assert born_table(real).max_difference(born_table(twice)) == 0.0
        assert Extraction(twice, u).branch == "plus"


def test_gauge_phase_invisible_almost_di():
    real = reference_realization(2, gate("cnot", 2))
    rng = np.random.default_rng(3)
    for _ in range(3):
        gauged = gauge_phase(real, thetas=rng.uniform(0, 2 * np.pi, size=4))
        validate_realization(gauged)
        assert born_table(real).max_difference(born_table(gauged)) <= 1e-12


def test_gauge_phase_di_moves_only_unconsumed_rows():
    """The protocol reads e=0 rows and e=1 rows with the joint box; a phase
    gauge can only shuffle the leftover tomographic rows."""
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    base = born_table(real)
    gauged = born_table(gauge_phase(real, thetas=[0.3, -1.1, 0.7, 2.0]))
    moved = 0.0
    for key in base.keys():
        d = float(np.abs(base.array(key) - gauged.array(key)).max())
        x, e, y = key
        if e == 0 or y == PERP:
            assert d <= 1e-12
        else:
            moved = max(moved, d)
    assert moved > 1e-4


# di n=3 dilate and depolarize would take the perp block past MAX_AMPLITUDES,
# so di takes the two hidden-side changes that keep its dimensions.
@pytest.mark.parametrize(
    "scheme, kind",
    [(ALMOST_DI, "dilate"), (ALMOST_DI, "conjugate"), (ALMOST_DI, "gauge_phase"), (DI, "conjugate"), (DI, "gauge_phase")],
)
def test_hidden_side_changes_at_three_subnets(scheme, kind):
    """A random gate's n=3 reference realization changed on the hidden side
    only: every protocol row stays within 1e-12 of the reference table, and
    so does every other row except under the di phase gauge, which moves
    only rows the protocol does not read.  The statistics-only verdicts are
    equal, and the changed realization's protocol rows computed alone equal
    its full table's bit for bit."""
    u = gate("random", 3, seed=13)
    real = reference_realization(3, u, scheme=scheme)
    thetas = np.random.default_rng(3).uniform(-np.pi, np.pi, 8)
    changes = {"dilate": lambda r: dilate(r, junk_dim=2, seed=5), "conjugate": conjugate,
               "gauge_phase": lambda r: gauge_phase(r, thetas)}
    changed = changes[kind](real)
    base, moved, rows = born_table(real), born_table(changed), protocol_rows(scheme, 3)
    shift = {key: float(np.abs(base.array(key) - moved.array(key)).max()) for key in base.keys()}
    assert max(shift[key] for key in rows) <= 1e-12
    others = max(d for key, d in shift.items() if key not in rows)
    assert others > 1e-4 if (scheme, kind) == (DI, "gauge_phase") else others <= 1e-12
    assert certify(moved, u).verdict == certify(base, u).verdict == "certified"
    part = born_table(changed, rows=rows)
    assert all(part.array(key).tobytes() == moved.array(key).tobytes() for key in rows)


def test_gauge_phase_guards():
    real = reference_realization(2, gate("cz", 2))
    with pytest.raises(ValueError):
        gauge_phase(real, thetas=[0.1, 0.2])  # wrong length


def test_perturb_grows_with_epsilon():
    real = reference_realization(2, gate("cnot", 2))
    base = born_table(real)
    diffs = []
    for eps in (0.01, 0.05, 0.1):
        moved = perturb(real, epsilon=eps, seed=12)
        validate_realization(moved)
        diffs.append(base.max_difference(born_table(moved)))
    assert diffs[0] > 1e-6
    assert diffs[0] < diffs[1] < diffs[2]


def test_perturb_epsilon_zero_is_identity():
    real = reference_realization(2, gate("cz", 2))
    same = perturb(real, epsilon=0.0, seed=3)
    assert born_table(real).max_difference(born_table(same)) <= 1e-14


def test_depolarize_sources():
    real = reference_realization(2, gate("cnot", 2))
    base = born_table(real)
    clean = depolarize_sources(real, 0.0)
    validate_realization(clean)
    assert base.max_difference(born_table(clean)) <= 1e-14
    noisy = depolarize_sources(real, 0.05)
    validate_realization(noisy)
    d = base.max_difference(born_table(noisy))
    assert 1e-5 < d < 0.05
    with pytest.raises(ValueError):
        depolarize_sources(real, 1.5)


def test_depolarize_sources_di_widens_and_validates():
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    noisy = depolarize_sources(real, 0.1)
    validate_realization(noisy)
    assert noisy.sources[0].dims != real.sources[0].dims


@pytest.mark.parametrize("scheme", SCHEMES)
def test_depolarize_sources_refuses_oversized_lift(scheme):
    """At n=4 each lifted L element would be a 4096x4096 matrix of 256 MiB:
    the guard raises, naming the depolarization, before lifting anything.
    At n=3 the largest lift is 512x512 and is admitted."""
    real = reference_realization(4, gate("random", 4, seed=1), scheme=scheme)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^an eta=0.05 depolarization's largest matrix would hold 16777216 "):
            depolarize_sources(real, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    validate_realization(depolarize_sources(reference_realization(3, gate("toffoli", 3), scheme=scheme), 0.05))


def _parts(real):
    """Dims and bytes of every source and operator, in field order."""
    ops = [*real.sources, *(op for triple in real.a_obs for op in triple), *real.l_meas, real.eve]
    if real.scheme == DI:
        ops += [op for pair in real.b_obs for op in pair] + [el for quad in real.repeaters for el in quad]
    return [(op.dims, (op.amplitudes if hasattr(op, "amplitudes") else op.entries).tobytes()) for op in ops]


@st.composite
def adversary_pairs(draw):
    """A reference realization under an adversary, built by the package and
    by the listed oracle.  Dilations at di n=3, and dilations of depolarized
    realizations at n=3, are not drawn: their operators run to thousands of
    rows."""
    scheme, n = draw(st.sampled_from(SCHEMES)), draw(st.sampled_from((2, 3)))
    kinds = ["dilate", "conjugate", "depolarize", "dilate-depolarize", "conjugate-depolarize"]
    if n == 3:
        kinds = [k for k in kinds if k != "dilate-depolarize" and not (scheme == DI and k == "dilate")]
    kind = draw(st.sampled_from(kinds))
    junk, rotate, seed = draw(st.integers(1, 3)), draw(st.booleans()), draw(st.integers(0, 2**16))
    eta = draw(st.floats(0.0, 1.0))
    branch = draw(st.sampled_from((+1, -1)))
    real = reference_realization(n, gate("random", n, seed=seed), branch=branch, scheme=scheme)
    new, old = real, real
    if kind.endswith("depolarize"):
        new, old = depolarize_sources(real, eta), listed_depolarize_sources(real, eta)
    if kind.startswith("dilate"):
        new, old = dilate(new, junk, seed=seed, rotate=rotate), listed_dilate(old, junk, seed=seed, rotate=rotate)
    if kind.startswith("conjugate"):
        new, old = conjugate(new), listed_conjugate(old)
    return new, old


@settings(max_examples=40)
@given(adversary_pairs())
def test_adversaries_match_listed_oracle(pair):
    """``dilate``, ``conjugate`` and ``depolarize_sources`` read the site map
    and lift operators through one walk; every source and operator must
    equal the listed oracle's bit for bit, and so must the joint state the
    site map assembles where it has at most 2^18 amplitudes (a dilated,
    depolarized di state has 4e8)."""
    new, old = pair
    assert (new.scheme, new.n, new.branch) == (old.scheme, old.n, old.branch)
    assert new.layout() == old.layout()
    assert _parts(new) == _parts(old)
    if math.prod(new.layout().dims) > 2**18:
        return
    state, listed = network._source_product(new.sources, new.layout().source_sites()), listed_assemble_state(old)
    assert state.shape == listed.dims
    assert state.tobytes() == listed.amplitudes.tobytes()
