"""Exact Born-rule simulation of the two certification network scenarios.

Two scenarios are supported:

* ``almost_di``: N external parties A_1..A_N each share a bipartite source
  with a central party, who may apply a unitary V (input e=1) before the
  final party L measures all of its sites jointly with a 2^N-outcome box.
* ``di``: each subnet i has two sources, A_i -- R_{i,1} and R_{i,2} -- L_i.
  The central party applies V to the collected R_{*,1} wires (input e=1),
  then each subnet's repeater performs a four-outcome joint measurement on
  (R_{i,1}, R_{i,2}).  L either measures one binary box per site (setting
  y in {0,1}^N) or the joint 2^N-outcome box (setting ``perp``).

Canonical site order: A_1..A_N, then (di only) R_{1,1}..R_{N,1},
R_{1,2}..R_{N,2}, then L_1..L_N.  ``SiteLayout.source_sites`` (the two
sites of each source wing pair) and ``Realization.map_operators`` (every
operator with the sites it acts on) are the one map from a realization to
these sites: state assembly, the site dimensions, the frames of ``extract``
and every adversary read it.  Probability arrays are indexed by
(a_1..a_N, (r_1..r_N,) l) with the joint L outcome l as a single axis;
for the per-site boxes l is the integer b_1...b_N with b_1 most
significant.

All probabilities are exact Born values.  ``born_table(real)`` computes
every settings row, including rows no verification step reads;
``born_table(real, rows=...)`` runs only the (e, y) blocks that hold a
listed row, gives each party only the settings that block asks of it, and
keeps the listed rows, each equal bit for bit to the full table's
(realization-mode ``certify`` asks for ``certify.protocol_rows``).
``born_table`` factors every measurement element once (one ``eigh`` of each
measurement's stack) as E = K^dagger K, with K the rows
sqrt(lambda) v^dagger of the eigenpairs of E above an eps-scaled rank
cutoff (d * machine eps * max(1, |E|)); the factors of one measurement
are zero-padded to a common rank, so a zero element is a block of zero
rows.  A probability is then the squared norm ||(K_a (x) K_r (x) K_l) psi||^2,
real and non-negative by construction.  The factors of the joint box and
of each repeater are ``Realization.factors``, which validates the
realization once per object and keeps, read-only, the stacks its ``eigh``
of each POVM gives; the binary observables and boxes, which validation
checks without a diagonalization, are factored by each ``born_table``.

Each L site's wing is run at the dimension its source reaches.  Where a
source's L wing is wider than its partner (d1 > d0, as under
``depolarize``, whose purification widens the wing by 4), the wing is
compressed exactly, with no tolerance, onto the d0 columns Q of the QR of
the transposed amplitude matrix M^T = QR: the source becomes R^T and
every measurement on the wing is factored as Q^dagger E Q, the joint box
on the product of the Q (in almost_di for e = 1 on V Q, Eve folded into
the basis) and, in di, each box.  Positivity of the full joint-box
elements is then checked by Cholesky factorizations, and ``eigh`` runs on
the compressed elements only.  A wing no wider than its partner (the
reference, ``conjugate``, ``gauge_phase``, ``perturb`` and ``dilate``) is
not compressed, and its table keeps every bit.  The R_{i,1} wings in di,
on which Eve acts collectively, are never compressed.

The kernel contracts along the network.  Eve acts on the collective state
Phi_e = (1_A (x) V^e) (x)_i psi_i of the first N sources A_i -- V_i, on
(A_1..A_N, V_1..V_N) with V the L sites (almost_di, where these are every
source) or the R_{*,1} sites (di: 256 amplitudes at di n=2 dilated by 2).
In di each repeater is folded with its second source phi_i into one swap
map T_i[r, rho, l, j] = sum_k K_i[r, rho, (j, k)] phi_i[k, l] from
R_{i,1} onto (rank rho, L_i).  For a box setting y, box i folds into the
map too, and each outcome's (rho beta x d_R1) matrix W is replaced by its
triangular factor from ``np.linalg.qr(W, mode="r")`` where that has fewer
rows: a probability sees W only through W^dagger W = R^dagger R.  For
``perp`` the joint box measures the L_i parts of the mapped rows; in
almost_di it measures the L sites of Phi_e.  The A layer comes last;
before it, a row M (A sites by collapsed rank sites) with more rank than
A amplitudes is replaced by R^T, R the triangular factor of M^T = QR.  As
M M^dagger = R^T conj(R), every squared norm the A layer takes is kept.

The compression and the A layer run in passes bounded by ``PASS_ENTRIES``,
the entry budget ``extract`` uses too, each as many rows as keep the
largest array built within the budget.  A pass writes its probabilities
straight into the arrays of the rows the call returns, so the kernel holds
the collective state, one (e, y) block's rows before the A layer, one pass
and the returned rows: 3.3 MiB traced for di n=2 dilated by 2 (1 MiB of
``perp`` rows before the joint box), 0.9 MiB depolarized, and 53 MiB for
the 50.5 MiB of the 101 di n=4 protocol rows.  A pass has a multiple of
the rows that give every matrix product of the A layer a multiple of four
columns, which OpenBLAS's complex product takes four at a time (any last
few another way); so each row's arithmetic, and every bit of the table,
is the same whatever the budget.

A settings row is keyed ``(x, e)`` for almost_di and ``(x, e, y)`` for di;
``ScenarioSpec.row`` is the only code that validates and normalizes such
a key, and ``ScenarioSpec.settings()`` lists every key in order.  An
operator reaches its sites only through ``tensor.apply_raw_batch``, which
extraction shares: Eve's layer applies a one-element stack, whose V sites
are contiguous and ascending, so the flat layout is kept, and every other
layer goes through ``tensor.apply_layers``.

Table files (``write_table``/``read_table``) hold a header line
``{"kind": "probability_table", "n": N, "scheme": S}``, then one JSON
record per settings row, in ``ScenarioSpec.settings()`` order:
``{"e": e, "p": [...], "x": [x_1..x_N]}``, plus ``"y"`` (a bit list or
``"perp"``) for di.  ``p`` is the row's outcome array flattened in C order
over (a_1..a_N, (r_1..r_N,) l); float repr makes the round trip exact.
Beyond the JSON text itself, a file costs array operations over the whole
table, not Python work per entry or per row.  Tables hold few distinct
values (247 among the 2.0e6 floats of di n=3 toffoli), so the writer
formats each distinct value once per pass of a quarter of ``PASS_ENTRIES``
entries and writes each pass at once; the reader decodes every line with
one ``json.JSONDecoder``, whose memo parses each distinct number text once
and is cleared before a line once it holds more than one row's texts, so
it never holds more than about two rows' texts.  Each record's ``p``
becomes a row of one stacked array, grown in place as records arrive,
never sized from the header and trimmed to the rows read, so that loading
holds about one copy of the table.  The entry and sum checks and the
no-signalling check run on that array, and the table holds read-only views
of its rows.  The format is unchanged: the text is the record's JSON with
sorted keys, and the parsed values are the ones ``json.loads`` gives.
``save_table`` and ``load_table`` go through the file layer of
``primitives``: the file is replaced atomically, and a load error names
the file.
The reader rejects, with a ValueError naming the line, a record that lacks
a field, has settings outside the scenario, repeats a row, or whose ``p``
has the wrong length, a negative or non-finite entry, or a sum more than
``SUM_TOL`` from one; of several faulty lines it names the first, however
late the stacked checks run.  A file missing rows is rejected naming the
first, and a header whose n is not an integer from 2 to ``MAX_TABLE_N``
before any row is read.  A complete table is rejected if it signals, by more than
``SIGNALLING_TOL``: if party A_i's marginal depends on more than x_i,
repeater i's on x or y, L's on more than e (almost_di) or y (di), or, on
the rows y != perp, box i's on more than y_i; the message names the party
and two rows.

Every table-level check is weights on rows.  ``party_matrix``, the one
reader of ``EXPANSION``, gives each symbol's weights on settings and
outcomes; ``coefficients`` reads a Bell functional into one tensor W over
``SLOT_SYMBOLS``; ``contract`` gives ``sum_i W[i] prod_p M_p[i_p, x_p,
a_p]`` with ``party_matrix`` M_p along ``einsum_path``'s path, as every
contraction does; ``row_weights`` lays it onto the rows each term's
symbols reach, over the outcomes ``event_index`` selects.  ``row_weights``
is memoized, so ``expectation``, ``terms_value`` (and through it
``bell.evaluate``) and ``certify``'s check matrix build each functional's
weights once per condition and share one read-only mapping.

``tensor.check_size`` refuses the collective state before it is built and
``tensor.apply_raw_batch`` every layer, so a realization is refused at its
first array of more than ``tensor.MAX_AMPLITUDES`` entries.  Each e runs
its ``perp`` block, the largest, first, and in di the sizes of its layers
up to the joint box are checked before the joint box is (``born_table``):
di n=3 dilated by 2 is refused within 0.01 s of CPU at 40 MB peak RSS.
di n=3 depolarized, whose ``perp`` block holds 4^3 * 8 * (4 * 2)^3 =
262144 amplitudes with its L wings compressed, is admitted;
its full table takes 2.2 s of CPU and 158 MB peak RSS.  A full table of di
n=2 dilated by 3, whose ``perp`` block holds 1.7e6 amplitudes, takes
0.23-0.28 s and 118 MB peak RSS in a fresh process (2-vCPU VM, one BLAS
thread).
"""

from __future__ import annotations

import io
import json
import math
import re
from collections import abc
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .primitives import EXPANSION, SettingSymbol, ghz_basis, ghz_bits, json_object, phi_plus, read_file
from .primitives import ref_b_observable, ref_observable, write_file
from .tensor import IDENTITY_TOL, Operator, StateVector, apply_layers, apply_raw_batch, check_size

ALMOST_DI = "almost_di"
DI = "di"
PERP = "perp"

SCHEMES = (ALMOST_DI, DI)

SUM_TOL = 1e-12
ZERO_WEIGHT_TOL = 1e-14
MAX_TABLE_N = 8  # an almost_di table at n=9 holds 1e10 probabilities
SIGNALLING_TOL = 1e-11  # exact tables deviate by at most about 1e-15
# Entries of the largest array one stacked pass holds, for three users: the
# Born kernel's A layer and ``extract`` (complex entries; a pass takes as
# many rows or outcomes as fit, always at least one), and ``write_table``,
# which formats each distinct value of a pass of table rows once.  A table
# entry in a writer pass holds about four times the 16 bytes of a complex
# entry (its value, sort keys, a reference and its text), so the writer
# takes a quarter of the budget: 16 rows at di n=2, one at di n=3.  Writer
# passes of the whole budget run no faster and leave 1 MB more peak RSS in
# the ``roundtrip`` benchmark.
# In ``extract``, at almost_di n=3 without junk (D = 8) one pass holds
# every outcome and every GHZ-block row; with junk of dimension 2 (D = 64)
# a pass holds 4 outcomes or 32 rows.  2^14 entries (256 KiB): extraction
# passes of 2^13 to 2^16 entries run about equally fast, while 2^18 slows
# the D = 64 residuals and blocks by 40-50%.
PASS_ENTRIES = 2**14


@dataclass(frozen=True)
class ScenarioSpec:
    """Settings and outcome structure of one scenario."""

    scheme: str
    n: int

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n={self.n!r} is not an integer")
        if self.n < 2:
            raise ValueError("at least two subnets are required")

    def x_settings(self) -> Iterator[tuple[int, ...]]:
        return product(range(3), repeat=self.n)

    def y_settings(self) -> list:
        if self.scheme == ALMOST_DI:
            return []
        return [bits for bits in product(range(2), repeat=self.n)] + [PERP]

    def settings(self) -> Iterator[tuple]:
        for x in self.x_settings():
            for e in (0, 1):
                if self.scheme == ALMOST_DI:
                    yield (x, e)
                else:
                    for y in self.y_settings():
                        yield (x, e, y)

    def row(self, x, e, y) -> tuple:
        """The key of settings row (x, e, y): ``(x, e)`` for almost_di, where
        ``y`` must be ``PERP``, and ``(x, e, y)`` for di, ``y`` a bit
        sequence or ``PERP``; x and the bits become int tuples.  The only
        code that validates and normalizes a settings key: settings outside
        the scenario raise ValueError naming them as given."""
        xs, perp = tuple(x), isinstance(y, str) and y == PERP
        inside = len(xs) == self.n and all(_setting(v, 3) for v in xs) and _setting(e, 2)
        if self.scheme == ALMOST_DI:
            if not (inside and perp):
                raise ValueError(f"settings x={x!r}, e={e!r}{'' if perp else f', y={y!r}'} lie outside the scenario")
            return (tuple(int(v) for v in xs), int(e))
        ys = () if perp else tuple(y)
        if not (inside and (perp or (len(ys) == self.n and all(_setting(b, 2) for b in ys)))):
            raise ValueError(f"settings x={x!r}, e={e!r}, y={y!r} lie outside the scenario")
        return (tuple(int(v) for v in xs), int(e), PERP if perp else tuple(int(b) for b in ys))

    def key(self, key: tuple) -> tuple:
        """``row`` of a settings key as tables hold it: ``(x, e)`` for
        almost_di, ``(x, e, y)`` for di."""
        if len(key) != (2 if self.scheme == ALMOST_DI else 3):
            raise ValueError(f"settings key {key!r} lies outside the scenario")
        x, e, y = (*key, PERP) if self.scheme == ALMOST_DI else key
        return self.row(x, e, y)

    def outcome_shape(self) -> tuple[int, ...]:
        if self.scheme == ALMOST_DI:
            return (2,) * self.n + (2**self.n,)
        return (2,) * self.n + (4,) * self.n + (2**self.n,)


def _setting(v, count: int) -> bool:
    """Whether ``v`` is a Python or numpy integer, not a bool, in range(count)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < count


@dataclass(frozen=True)
class SiteLayout:
    """Site bookkeeping for the canonical ordering."""

    scheme: str
    n: int
    dims: tuple[int, ...]

    def a_site(self, i: int) -> int:
        return i - 1

    def r1_site(self, i: int) -> int:
        if self.scheme != DI:
            raise ValueError("repeater sites exist only in the di scheme")
        return self.n + i - 1

    def r2_site(self, i: int) -> int:
        if self.scheme != DI:
            raise ValueError("repeater sites exist only in the di scheme")
        return 2 * self.n + i - 1

    def l_site(self, i: int) -> int:
        return (self.n if self.scheme == ALMOST_DI else 3 * self.n) + i - 1

    def l_sites(self) -> list[int]:
        return [self.l_site(i) for i in range(1, self.n + 1)]

    def r1_sites(self) -> list[int]:
        return [self.r1_site(i) for i in range(1, self.n + 1)]

    def v_sites(self) -> list[int]:
        return self.l_sites() if self.scheme == ALMOST_DI else self.r1_sites()

    def source_sites(self) -> tuple[tuple[int, int], ...]:
        """The two sites of each source, in source order: (A_i, L_i) for
        almost_di; (A_i, R_{i,1}) for the first N and (R_{i,2}, L_i) for the
        next N in di.  Depends on the scheme and n only."""
        subnets = range(1, self.n + 1)
        if self.scheme == ALMOST_DI:
            return tuple((self.a_site(i), self.l_site(i)) for i in subnets)
        first = tuple((self.a_site(i), self.r1_site(i)) for i in subnets)
        return first + tuple((self.r2_site(i), self.l_site(i)) for i in subnets)


@dataclass(frozen=True)
class Realization:
    """Concrete states and measurement operators for one scenario.

    ``sources`` lists two-site pure states on the sites
    ``SiteLayout.source_sites`` gives.  ``eve`` acts on the L collective
    (``almost_di``) or the R_{*,1} collective (``di``).  ``branch`` records
    the sign of the third reference setting this realization is built for.
    """

    scheme: str
    n: int
    sources: tuple[StateVector, ...]
    a_obs: tuple[tuple[Operator, Operator, Operator], ...]
    l_meas: tuple[Operator, ...]
    eve: Operator
    branch: int = +1
    b_obs: tuple[tuple[Operator, Operator], ...] | None = None
    repeaters: tuple[tuple[Operator, Operator, Operator, Operator], ...] | None = None

    def scenario(self) -> ScenarioSpec:
        return ScenarioSpec(self.scheme, self.n)

    def a_dims(self) -> tuple[int, ...]:
        return self._dims(SiteLayout.a_site)

    def l_dims(self) -> tuple[int, ...]:
        return self._dims(SiteLayout.l_site)

    def r1_dims(self) -> tuple[int, ...]:
        return self._dims(SiteLayout.r1_site)

    def r2_dims(self) -> tuple[int, ...]:
        return self._dims(SiteLayout.r2_site)

    def _dims(self, site) -> tuple[int, ...]:
        lay = self.layout()
        return tuple(lay.dims[site(lay, i)] for i in range(1, self.n + 1))

    def layout(self) -> SiteLayout:
        pairs = SiteLayout(self.scheme, self.n, ()).source_sites()
        dims = dict(zip(sum(pairs, ()), (d for src in self.sources for d in src.dims)))
        return SiteLayout(self.scheme, self.n, tuple(dims[s] for s in sorted(dims)))

    def map_operators(self, fn, **fields) -> "Realization":
        """This realization with every operator ``op`` of ``a_obs``,
        ``l_meas``, ``eve``, ``b_obs`` and ``repeaters`` replaced by
        ``fn(op, sites)``, ``sites`` being the canonical sites it acts on, in
        its own site order; ``fields`` replace other fields as well."""
        lay, subnets = self.layout(), range(1, self.n + 1)
        ops = {
            "a_obs": tuple(tuple(fn(op, (lay.a_site(i),)) for op in self.a_obs[i - 1]) for i in subnets),
            "l_meas": tuple(fn(m, tuple(lay.l_sites())) for m in self.l_meas),
            "eve": fn(self.eve, tuple(lay.v_sites())),
        }
        if self.scheme == DI:
            ops["b_obs"] = tuple(tuple(fn(op, (lay.l_site(i),)) for op in self.b_obs[i - 1]) for i in subnets)
            pairs = [(lay.r1_site(i), lay.r2_site(i)) for i in subnets]
            ops["repeaters"] = tuple(tuple(fn(el, pair) for el in quad) for quad, pair in zip(self.repeaters, pairs))
        return replace(self, **ops, **fields)

    @cached_property
    def factors(self) -> tuple[np.ndarray, ...]:
        """The read-only square-root factor stacks (``_factor_stack``) of the
        joint box as the state reaches it for e = 0 and for e = 1, then, in
        di, of repeaters 1..n: the ones the check of this realization
        computes.  The joint box is checked and factored last (``_check_povm``),
        after every other check (``_checked``), on the wing of each L site
        the state reaches: where a source's L wing is wider than its partner
        (d1 > d0), only the d0 columns Q of the QR of the transposed amplitude
        matrix carry the state, so the box is factored as Q^dagger E Q with
        Q the product of the L sites' Q (identity on the others), and, in
        almost_di for e = 1, as (V Q)^dagger E (V Q), Eve folded into the
        basis; its positivity is then checked by Cholesky on the full
        elements.  Without such a wing the two stacks are one, and one
        ``eigh`` both checks and factors.  A realization and its operators
        are frozen and read-only, so the check runs once per object; a
        refused realization raises ValueError on every read."""
        _, wings, repeaters = self._checked
        return _joint_factors(self, wings) + repeaters

    @cached_property
    def _checked(self) -> tuple:
        """Every check but the joint box's (``_validate``): the sources with
        each wider L wing compressed, the wing isometries Q (None where not
        compressed) and the repeaters' factor stacks."""
        return _validate(self)


def validate_realization(real: Realization) -> None:
    """Check structural and operator invariants to ``tensor.IDENTITY_TOL``; raises
    ValueError on failure.  The check is ``real.factors``, so each realization
    object is checked once, and one that passed keeps the factors of its
    joint box and repeaters for ``born_table``."""
    real.factors


def _validate(real: Realization) -> tuple:
    """``validate_realization``'s checks but the joint box's; returns ``Realization._checked``."""
    n = real.n
    if real.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {real.scheme!r}")
    if real.branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {real.branch}")
    want_sources = n if real.scheme == ALMOST_DI else 2 * n
    if len(real.sources) != want_sources:
        raise ValueError(f"expected {want_sources} sources, got {len(real.sources)}")
    for k, src in enumerate(real.sources):
        if src.n_sites != 2:
            raise ValueError(f"source {k} must be bipartite, has {src.n_sites} sites")
        if not abs(src.norm() - 1.0) <= 1e-12:
            raise ValueError(f"source {k} is not normalized (norm {src.norm():.2e})")
    if len(real.a_obs) != n:
        raise ValueError(f"expected observables for {n} parties, got {len(real.a_obs)}")
    a_dims = real.a_dims()
    for i, triple in enumerate(real.a_obs, start=1):
        if len(triple) != 3:
            raise ValueError(f"party {i} needs 3 observables, got {len(triple)}")
        for x, obs in enumerate(triple):
            _check_binary(f"observable A[{i},{x}]", obs, a_dims[i - 1])
    l_dims = real.l_dims()
    if len(real.l_meas) != 2**n:
        raise ValueError(f"joint box needs {2**n} elements, got {len(real.l_meas)}")
    v_dims = real.l_dims() if real.scheme == ALMOST_DI else real.r1_dims()
    if real.eve.dims != v_dims:
        raise ValueError(f"eve operation has dims {real.eve.dims}, expected {v_dims}")
    if not real.eve.is_unitary():
        raise ValueError("eve operation is not unitary")
    # the last n sources end at L_1..L_n in both schemes; a wider L wing keeps the d0 columns Q of
    # M^T = QR, and the source becomes R^T, since M = R^T Q^T: exact, no tolerance
    sources, wings = list(real.sources), []
    for k in range(len(sources) - n, len(sources)):
        (d0, d1), q = sources[k].dims, None
        if d1 > d0:
            q, r = np.linalg.qr(sources[k].amplitudes.reshape(d0, d1).T)
            sources[k] = StateVector(r.T, (d0, d0))
        wings.append(q)
    if real.scheme == ALMOST_DI:
        if real.b_obs is not None or real.repeaters is not None:
            raise ValueError("almost_di realizations carry no box observables or repeaters")
        return tuple(sources), tuple(wings), ()
    if real.b_obs is None or len(real.b_obs) != n:
        raise ValueError(f"di realization needs binary boxes for {n} subnets")
    for i, pair in enumerate(real.b_obs, start=1):
        if len(pair) != 2:
            raise ValueError(f"subnet {i} needs 2 box observables")
        for y, obs in enumerate(pair):
            _check_binary(f"box B[{i},{y}]", obs, l_dims[i - 1])
    if real.repeaters is None or len(real.repeaters) != n:
        raise ValueError(f"di realization needs repeaters for {n} subnets")
    r1_dims, r2_dims = real.r1_dims(), real.r2_dims()
    factors = []
    for i, quad in enumerate(real.repeaters, start=1):
        if len(quad) != 4:
            raise ValueError(f"repeater {i} needs 4 elements")
        pair_dims = (r1_dims[i - 1], r2_dims[i - 1])
        for k, el in enumerate(quad):
            if el.dims != pair_dims:
                raise ValueError(f"repeater element R[{i},{k}] has dims {el.dims}, expected {pair_dims}")
        factors += _check_povm(quad, int(np.prod(pair_dims)), f"repeater {i}", None)
    return tuple(sources), tuple(wings), tuple(factors)


def _joint_factors(real: Realization, wings: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The joint box checked by ``_check_povm`` and factored for e = 0 and
    e = 1 on the wings (see ``Realization.factors``)."""
    dl = int(np.prod(real.l_dims()))
    if all(q is None for q in wings):
        joint = _check_povm(real.l_meas, dl, "joint box", None)[0]
        return joint, joint
    q = reduce(np.kron, [np.eye(d) if w is None else w for w, d in zip(wings, real.l_dims())])
    bases = [q, real.eve.entries @ q] if real.scheme == ALMOST_DI else [q]
    stacks = _check_povm(real.l_meas, dl, "joint box", bases)
    return stacks[0], stacks[-1]


def _check_binary(name: str, obs: Operator, dim: int) -> None:
    """A binary observable: one site of dimension ``dim``, Hermitian, squaring to 1."""
    if obs.dims != (dim,):
        raise ValueError(f"{name} has dims {obs.dims}, site needs {(dim,)}")
    if not obs.is_hermitian():
        raise ValueError(f"{name} is not Hermitian")
    dev = np.max(np.abs(obs.entries @ obs.entries - np.eye(obs.dim)))
    if not dev <= IDENTITY_TOL:
        raise ValueError(f"{name} does not square to identity (dev {dev:.2e})")


def _check_povm(elements: Sequence[Operator], dim: int, what: str, bases: list | None) -> list[np.ndarray]:
    """Each element, in order, of dimension ``dim``, Hermitian and positive,
    the first fault named; then the sum the identity.  Returns read-only
    ``_factor_stack``s.  Without ``bases`` the elements before the first
    dimension or Hermitian fault are diagonalized as one stack by ``eigh``,
    which checks them and gives the one stack returned.  With ``bases``,
    isometries B, each such element E is positive when the Cholesky
    factorization of E + tol I exists (an element's eigenvalues are
    computed only to name its fault), and the stacks returned factor
    B^dagger E B for each B."""
    tol = IDENTITY_TOL
    k = next((k for k, el in enumerate(elements) if el.dim != dim or not el.is_hermitian()), len(elements))
    if bases is not None:
        for j, el in enumerate(elements[:k]):
            if not _cholesky_exists(el.entries + tol * np.eye(dim)):
                low = np.linalg.eigvalsh(el.entries)[0]
                if low < -tol:
                    raise ValueError(f"{what} element {j} is not positive (min eig {low:.2e})")
    elif k:
        vals, vecs = _eigh([el.entries for el in elements[:k]])
        lows = vals[:, 0]
        j = int(np.argmax(lows < -tol))
        if lows[j] < -tol:
            raise ValueError(f"{what} element {j} is not positive (min eig {lows[j]:.2e})")
    if k < len(elements):
        if elements[k].dim != dim:
            raise ValueError(f"{what} element {k} has dimension {elements[k].dim}, expected {dim}")
        raise ValueError(f"{what} element {k} is not Hermitian")
    total = np.zeros((dim, dim), dtype=complex)
    for el in elements:
        total += el.entries
    if np.max(np.abs(total - np.eye(dim))) > tol:
        raise ValueError(f"{what} elements do not sum to identity")
    if bases is None:
        stacks = [_factor_stack(vals, vecs)]
    else:
        stacks = [_factor_stack(*_eigh([b.conj().T @ el.entries @ b for el in elements])) for b in bases]
    for stack in stacks:
        stack.setflags(write=False)
    return stacks


def _cholesky_exists(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def reference_realization(n: int, u: Operator, branch: int = +1, scheme: str = ALMOST_DI) -> Realization:
    """Ideal realization for the target gate: maximally entangled sources,
    reference observables, GHZ-basis boxes, Bell-basis repeaters, and
    V = conj(U) for branch +1 (V = U for branch -1)."""
    check_gate(u, n)
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    a_obs = tuple(
        tuple(ref_observable(i, x, branch) for x in range(3)) for i in range(1, n + 1)
    )
    l_meas = tuple(_projector(phi, (2,) * n) for phi in ghz_basis(n).T)
    v = Operator(u.entries.conj() if branch == +1 else u.entries, (2,) * n)
    if scheme == ALMOST_DI:
        sources = tuple(phi_plus() for _ in range(n))
        return Realization(ALMOST_DI, n, sources, a_obs, l_meas, v, branch)
    if scheme != DI:
        raise ValueError(f"unknown scheme {scheme!r}")
    sources = tuple(phi_plus() for _ in range(2 * n))
    b_obs = tuple(
        tuple(ref_b_observable(i, y) for y in range(2)) for i in range(1, n + 1)
    )
    bell = tuple(_projector(phi, (2, 2)) for phi in ghz_basis(2).T)
    repeaters = tuple(bell for _ in range(n))
    return Realization(DI, n, sources, a_obs, l_meas, v, branch, b_obs, repeaters)


def check_gate(u: Operator, n: int) -> None:
    """Raise ValueError unless the target gate ``u`` is a unitary on ``n`` qubits."""
    if u.dims != (2,) * n:
        raise ValueError(f"target gate must act on {n} qubits, got dims {u.dims}")
    if not u.is_unitary():
        raise ValueError("target gate is not unitary")


def _projector(amplitudes: np.ndarray, dims: tuple[int, ...]) -> Operator:
    return Operator(np.outer(amplitudes, amplitudes.conj()), dims)


def _source_product(sources: Sequence[StateVector], pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The tensor product of ``sources``, each on the two sites of its entry
    of ``pairs``, with one axis per site in ascending site order."""
    check_size(math.prod(src.amplitudes.size for src in sources), "the collective state")
    listed = sum(pairs, ())
    order = sorted(range(len(listed)), key=listed.__getitem__)  # the k-th smallest site is the product's axis order[k]
    return reduce(np.multiply.outer, [src.amplitudes.reshape(src.dims) for src in sources]).transpose(order)


def _binary_elements(obs: Operator) -> np.ndarray:
    eye = np.eye(obs.dim)
    return np.stack([(eye + obs.entries) / 2, (eye - obs.entries) / 2])


def _eigh(elements: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(np.stack(elements))


def _factor_stack(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Square-root factors K with K^dagger K = E of each element of a stack,
    from its eigenpairs (``vals``, ``vecs``) as ``np.linalg.eigh`` gives
    them, as a ``(k, rank, d)`` stack padded with zero rows to the largest
    rank."""
    factors = []
    for val, vec in zip(vals, vecs):
        keep = val > len(val) * np.finfo(float).eps * max(1.0, float(np.abs(val).max()))
        factors.append(np.sqrt(val[keep])[:, None] * vec[:, keep].conj().T)
    rank = max(f.shape[0] for f in factors)
    stack = np.zeros((len(factors), rank, factors[0].shape[1]), dtype=complex)
    for k, f in enumerate(factors):
        stack[k, : f.shape[0]] = f
    return stack


def _layer_sizes(size: int, dims: tuple[int, ...], layers) -> list[tuple[int, int]]:
    """For one row of ``size`` entries to which ``layers`` are applied in
    turn, ``dims`` the dimensions of their sites: the columns each layer's
    matrix product takes and the entries of the rows it yields."""
    sizes, rows = [], 1
    for stack, sites in layers:
        rest = size // math.prod(dims[s] for s in sites)
        size = rest * stack.shape[1]
        sizes.append((rows * rest, rows * len(stack) * size))
        rows *= len(stack)
    return sizes


def born_table(real: Realization, rows=None) -> "ProbabilityTable":
    """Exact probability table over the settings rows ``rows`` (every row of
    the scenario when None).

    ``rows`` holds settings keys as tables hold them, each normalized by
    ``ScenarioSpec.key``, so a key outside the scenario raises ValueError
    naming it.  A layer of more than ``tensor.MAX_AMPLITUDES`` entries is
    refused (see the module docstring).  Layers on disjoint sites commute,
    so Eve acts once per e, the joint box or the swap maps once per (e, y)
    block, and, after each row is compressed onto the A sites where that
    shrinks it, the A layer with one stacked factor per party that covers
    the settings the block asks of that party; a block that holds no
    requested row is skipped.  The A layer runs in passes of about
    ``PASS_ENTRIES`` entries (``_fill_rows``).  The rows a block computes
    are every combination of those party settings, each checked to sum to
    one within ``SUM_TOL``; the table keeps the requested ones, each its
    own array and equal to the full table's row bit for bit.

    The realization is checked in the order that refuses an oversized one
    first: every check but the joint box's, the repeater factors and the
    swap maps, then the size rule on the layers of the ``perp`` block up to
    the joint box, and only then the joint box's positivity and factors
    (``Realization.factors``).  So a realization both oversized and invalid
    gets the size message."""
    sources, wings, _ = real._checked
    lay = real.layout()
    n = real.n
    scen = real.scenario()
    wanted = set(scen.settings()) if rows is None else {scen.key(key) for key in rows}
    needs: dict = {}  # (e, y) -> the settings of each party that block computes
    for key in wanted:
        x, e, y = (*key, PERP) if real.scheme == ALMOST_DI else key
        for need, xi in zip(needs.setdefault((e, y), [set() for _ in range(n)]), x):
            need.add(xi)
    a_stacks = [_factor_stack(*_eigh([el for obs in triple for el in _binary_elements(obs)])) for triple in real.a_obs]
    # the collective's sites A_1..A_n, V_1..V_n are the first 2n, each L wing as compressed
    psi = _source_product(sources[:n], lay.source_sites()[:n])
    dims, psi = psi.shape, psi.reshape(1, -1)
    if real.scheme == DI:
        maps = _swap_maps(real)
        if any(y == PERP for _, y in needs):
            for _, size in _layer_sizes(psi.size, dims, _map_layers(maps[PERP])):
                check_size(size, "a layer's output")
    joints = real.factors  # the joint box's checks come last
    folded = real.scheme == ALMOST_DI and any(q is not None for q in wings)  # Eve is in the e = 1 stack
    entries: dict = {}
    for e in (0, 1):
        blocks = []
        for y in [y for y in scen.y_settings() or [PERP] if (e, y) in needs]:
            settings = [sorted(need) for need in needs[(e, y)]]
            # settings come from normalized keys, so each key is built as ``ScenarioSpec.row`` would
            keys = [(x, e) if real.scheme == ALMOST_DI else (x, e, y) for x in product(*settings)]
            for key in keys:
                if key in wanted:
                    entries[key] = np.empty(scen.outcome_shape())
            # setting x of party i is the stack's elements 2x and 2x + 1
            a_layers = [
                (a_stacks[i - 1][[2 * x + a for x in settings[i - 1] for a in (0, 1)]], [lay.a_site(i)])
                for i in range(n, 0, -1)
            ]
            blocks.append((y, a_layers, keys, np.zeros(len(keys))))
        if not blocks:
            continue
        if e and not folded:
            # Eve's V sites are contiguous and ascending, so collapsing them keeps the flat layout
            psi = apply_raw_batch(psi, dims, real.eve.entries[None], lay.v_sites())
        # the perp block, the largest, runs first, so an oversized realization is refused at its first block
        for y, a_layers, keys, totals in sorted(blocks, key=lambda block: block[0] != PERP):
            if real.scheme == ALMOST_DI:
                rows_in = apply_layers(psi, dims, [(joints[e], lay.l_sites())])
            else:
                rows_in = _swapped(psi, dims, maps[y], joints[e] if y == PERP else None)
            _fill_rows(*rows_in, a_layers, keys, totals, entries)
            del rows_in  # the next block's rows are built without this one's
            for key, total in zip(keys, totals):
                if not abs(total - 1.0) <= SUM_TOL:  # NaN fails too
                    raise ValueError(f"setting {key}: probabilities sum to {float(total)!r}")
    return ProbabilityTable._adopt(real.scheme, n, entries)


def _swap_maps(real: Realization) -> dict:
    """The swap maps of subnets 1..n (see the module docstring), from the
    repeaters' factor stacks and the sources and L wings as compressed
    (``Realization._checked``), per y of the scenario: for ``perp`` each T
    as a ``(4, rank, d_L, d_R1)`` array, for a box setting each map folded
    with its box, factored on the L wing, W[(r, b), (rho, beta), j] =
    sum_l B[b, beta, l] T[r, rho, l, j], or its triangular factor where
    that has fewer rows, as an ``(8, rank, d_R1)`` stack."""
    n, (sources, wings, repeaters) = real.n, real._checked
    maps: dict = {PERP: []}
    folded = []  # per subnet, the stack for each box setting
    for i in range(1, n + 1):
        k, src, q = repeaters[i - 1], sources[n + i - 1], wings[i - 1]
        d_r1 = k.shape[2] // src.dims[0]
        t = (k.reshape(4, -1, d_r1, src.dims[0]) @ src.amplitudes.reshape(src.dims)).swapaxes(2, 3)
        maps[PERP].append(t)
        elements = [_binary_elements(obs) for obs in real.b_obs[i - 1]]
        boxes = [_factor_stack(*_eigh(els if q is None else q.conj().T @ els @ q)) for els in elements]
        ws = [(box[None, :, None] @ t[:, None]).reshape(8, -1, d_r1) for box in boxes]
        folded.append([np.linalg.qr(w, mode="r") if w.shape[1] > d_r1 else w for w in ws])
    for y in real.scenario().y_settings()[:-1]:
        maps[y] = [folded[i][b] for i, b in enumerate(y)]
    return maps


def _map_layers(maps: list) -> list:
    """The swap maps ``maps`` of subnets 1..n as layers of ``apply_layers``
    on the collective's R_{i,1} sites, subnet n's first."""
    n = len(maps)
    return [(m.reshape(len(m), -1, m.shape[-1]), [n + i]) for i, m in reversed(list(enumerate(maps)))]


def _swapped(psi: np.ndarray, dims: tuple[int, ...], maps: list, joint: np.ndarray | None) -> tuple:
    """The di collective block ``psi`` on ``dims`` after each swap map of
    ``maps`` (subnet n's first) and, for ``perp``, the joint box ``joint``
    on the L_i: rows (r_1..r_n, l) and the sites of a row, A_1..A_n first."""
    n = len(maps)
    block, rdims = apply_layers(psi, dims, _map_layers(maps))
    if joint is None:
        # rows (r_1, b_1, .., r_n, b_n) -> (r_1..r_n, b_1..b_n), whose box bits are l
        order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n]
        return block.reshape(*(4, 2) * n, -1).transpose(order).reshape(len(block), -1), rdims
    # each map's site holds (rank, L_i); rows (l, r_1..r_n) -> (r_1..r_n, l)
    rdims = rdims[:n] + sum((m.shape[1:3] for m in maps), ())
    block, rdims = apply_layers(block, rdims, [(joint, list(range(n + 1, 3 * n, 2)))])
    return block.reshape(len(joint), -1, block.shape[1]).swapaxes(0, 1).reshape(len(block), -1), rdims


def _fill_rows(out: np.ndarray, rdims: tuple[int, ...], a_layers: list, keys: list, totals: np.ndarray, entries: dict) -> None:
    """Measure each row of ``out``, with sites of dimensions ``rdims``
    (A_1..A_n first) and rows (r_1..r_n, l) in di and l in almost_di, by
    ``a_layers``: write the probabilities of row ``keys[c]`` into
    ``entries[keys[c]]`` where ``entries`` holds the key, and add them up
    into ``totals[c]``.

    The rows enter the compression and the A layer in passes as large as
    ``PASS_ENTRIES`` allows, so no array of the A layer holds much more
    than one pass; every row's arithmetic is the one of a single pass over
    all of them."""
    n = len(a_layers)
    d_a, rest = math.prod(rdims[:n]), math.prod(rdims[n:])
    sizes = _layer_sizes(d_a * min(d_a, rest), rdims, a_layers)
    # a matrix product takes its columns four at a time and the last few otherwise: passes
    # of a multiple of `unit` rows give every product a multiple of four columns, so each
    # row keeps the bits of one pass over all rows
    unit = 4 // math.gcd(4, *(cols for cols, _ in sizes))
    fit = unit * max(1, PASS_ENTRIES // (unit * max(out.shape[1], *(size for _, size in sizes))))
    counts = [len(stack) // 2 for stack, _ in reversed(a_layers)]  # settings of parties 1..n
    views = {c: entries[key].reshape(2**n, -1) for c, key in enumerate(keys) if key in entries}
    for r0 in range(0, len(out), fit):
        part, pdims = out[r0 : r0 + fit], rdims
        m = len(part)
        if rest > d_a:
            # M = R^T Q^T, Q with orthonormal columns: R^T keeps every norm the A layer takes
            r = np.linalg.qr(part.reshape(-1, d_a, rest).transpose(0, 2, 1), mode="r")
            part = r.transpose(0, 2, 1).reshape(m, -1)
            pdims = rdims[:n] + (d_a,) + (1,) * (len(rdims) - n - 1)
        part, _ = apply_layers(part, pdims, a_layers)
        probs = (part.real**2 + part.imag**2).sum(axis=1)
        # rows (x_1 a_1 .. x_n a_n, pass row) -> (settings, a_1..a_n, pass row)
        probs = probs.reshape(*(k for count in counts for k in (count, 2)), m)
        probs = probs.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n).reshape(len(keys), 2**n, m)
        totals += probs.sum(axis=(1, 2))
        for c, view in views.items():
            view[:, r0 : r0 + m] = probs[c]


class ProbabilityTable:
    """Exact joint conditional distribution p(outcomes | settings).

    ``entries`` maps a settings key to an outcome array.  Keys are
    ``(x, e)`` for ``almost_di`` and ``(x, e, y)`` for ``di`` with
    ``y`` either a bit tuple or the string ``"perp"``, as
    ``ScenarioSpec.row`` normalizes them.  The constructor copies the
    arrays and refuses a key outside the scenario, an array of the wrong
    shape and a NaN or infinite entry; negative entries and rows that do
    not sum to one are kept (tests build corrupted rows on purpose; the
    squared norms of ``born_table`` are never negative), and ``read_table``
    refuses them.
    """

    def __init__(self, scheme: str, n: int, entries: Mapping[tuple, np.ndarray]):
        self.scheme = scheme
        self.n = n
        self._scen = ScenarioSpec(scheme, n)
        shape = self._scen.outcome_shape()
        norm: dict = {}
        for key, arr in entries.items():
            arr = np.array(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"outcome array for {key} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"outcome array for {key} has a NaN or infinite entry")
            arr.setflags(write=False)
            norm[self._norm_key(key)] = arr
        self.entries = norm

    @classmethod
    def _adopt(cls, scheme: str, n: int, entries: dict) -> "ProbabilityTable":
        """Table over arrays built for it alone, under normalized keys and
        of the outcome shape: stored without a copy, made read-only."""
        table = cls.__new__(cls)
        table.scheme, table.n, table._scen = scheme, n, ScenarioSpec(scheme, n)
        for arr in entries.values():
            arr.setflags(write=False)
        table.entries = entries
        return table

    def _norm_key(self, key: tuple) -> tuple:
        return self._scen.key(key)

    def scenario(self) -> ScenarioSpec:
        return self._scen

    def keys(self):
        return self.entries.keys()

    def array(self, key: tuple) -> np.ndarray:
        return self.rows((self._norm_key(key),))[0]

    def rows(self, keys: Iterable[tuple]) -> list[np.ndarray]:
        """The arrays of settings keys already in the normalized form
        ``ScenarioSpec.row`` builds, read without validating the keys
        again; a missing row raises ValueError naming it."""
        try:
            return [self.entries[key] for key in keys]
        except KeyError as err:
            raise ValueError(f"settings row {err.args[0]} is missing from the table") from None

    def signed_sum(self, key: tuple, l: int | None = None, r: Mapping[int, int] | None = None) -> float:
        """Sum of the row's probabilities restricted to a fixed joint
        outcome ``l`` and/or fixed repeater outcomes ``r`` (mapping subnet
        -> outcome).  No renormalization."""
        arr = self.array(key)
        weight = np.zeros(arr.shape)
        weight[event_index(self.scheme, self.n, l=l, r=r)] = 1.0
        # Summing over the whole row keeps the summation order, and so every
        # bit, of the marginals that ``gatecert simulate`` writes.
        return float((arr * weight).sum())

    def max_difference(self, other: "ProbabilityTable") -> float:
        """Largest entrywise deviation over the union of settings rows."""
        if (self.scheme, self.n) != (other.scheme, other.n):
            raise ValueError("tables describe different scenarios")
        keys = set(self.entries) | set(other.entries)
        worst = 0.0
        for key in keys:
            if key not in self.entries or key not in other.entries:
                raise ValueError(f"settings row {key} present in only one table")
            worst = max(worst, float(np.max(np.abs(self.entries[key] - other.entries[key]))))
        return worst


_PARTY_RE = re.compile(r"^([AB])([0-9]+)$")


def _check_label(label: str, sym, n: int, scheme: str) -> None:
    """Refuse a label and symbol a (scheme, n) table cannot read: labels "A1".."AN"
    and, for di, "B1".."BN"; rotated combinations on A1 only; two box settings."""
    m = _PARTY_RE.match(label)
    if not m:
        raise ValueError(f"unknown party label {label!r}")
    kind, num = m.group(1), int(m.group(2))
    if not 1 <= num <= n:
        raise ValueError(f"party {label!r} out of range for n={n}")
    if not isinstance(sym, SettingSymbol):
        raise ValueError(f"setting for {label!r} must be a SettingSymbol")
    if kind == "A":
        if sym in (SettingSymbol.T0, SettingSymbol.T1) and num != 1:
            raise ValueError("rotated combinations are defined for party A1 only")
    elif scheme != DI:
        raise ValueError("box parties exist only in the di scheme")
    elif sym is SettingSymbol.S2 or sym is SettingSymbol.T2:
        raise ValueError("boxes have two settings; S2/T2 are not available")


class ZeroProbabilityEvent(ValueError):
    """A conditional value was asked for an event of (numerically) zero
    probability; ``event`` names it, e.g. ``r_1=1`` or ``l=00, r_1=0``."""

    def __init__(self, event: str, probability: float):
        super().__init__(f"conditioning event {event} has probability {probability!r}")
        self.event = event
        self.probability = probability


def event_label(n: int, *, l: int | None = None, r: Mapping[int, int] | None = None) -> str:
    """Conditioning event as text, e.g. ``r_1=1`` or ``l=00, r_1=0, r_2=0``."""
    parts = [] if l is None else ["l=" + "".join(str(b) for b in ghz_bits(int(l), n))]
    parts += [f"r_{i}={int(k)}" for i, k in sorted((r or {}).items())]
    return ", ".join(parts)


@lru_cache(maxsize=None)
def party_matrix(symbols: tuple[SettingSymbol, ...]) -> np.ndarray:
    """``M[s, x, o]``: the weight a party measuring ``symbols[s]`` puts on
    outcome ``o`` of its base setting ``x`` in 0..2 (a box's matrix is the
    first two settings, its outcome its bit of ``l``).

    A symbol spreads over its base settings as ``EXPANSION`` says, each
    term carrying the outcome sign (-1)^o; ``ID`` reads setting 0 with no
    sign.  The array is read-only and cached per argument.
    """
    m = np.zeros((len(symbols), 3, 2))
    for s, sym in enumerate(symbols):
        if sym is SettingSymbol.ID:
            m[s, 0] = 1.0
            continue
        for coeff, x in EXPANSION[sym]:
            m[s, x] += (coeff, -coeff)
    m.setflags(write=False)
    return m


# The slots of a coefficient tensor's axis: base settings 0..2, then the identity.
SLOT_SYMBOLS = (SettingSymbol.S0, SettingSymbol.S1, SettingSymbol.S2, SettingSymbol.ID)


def event_index(scheme: str, n: int, *, l: int | None = None, r: Mapping[int, int] | None = None) -> tuple:
    """Index selecting, on a row's outcome array, the outcomes of the
    conditioning event: joint outcome ``l`` and repeater outcomes ``r``
    (subnet -> outcome); unconditioned axes are kept whole.  Raises
    ValueError naming an ``l`` that is not an integer in 0..2^n-1, and an
    outcome of ``r`` that is not one in 0..3."""
    if r and scheme != DI:
        raise ValueError("repeater conditions apply only to di tables")
    r = r or {}
    if not set(r) <= set(range(1, n + 1)):
        raise ValueError(f"repeater conditions name subnets {sorted(r)}, not all in 1..{n}")
    if l is not None and not _setting(l, 2**n):
        raise ValueError(f"joint outcome l={l!r} is not an integer in 0..{2**n - 1}")
    for i, k in sorted(r.items()):
        if not _setting(k, 4):
            raise ValueError(f"repeater outcome r_{i}={k!r} is not an integer in 0..3")
    index: list = [slice(None)] * n
    if scheme == DI:
        index += [int(r[i]) if i in r else slice(None) for i in range(1, n + 1)]
    index.append(slice(None) if l is None else int(l))
    return tuple(index)


def coefficients(terms, scen: ScenarioSpec | None) -> tuple[list[str], np.ndarray]:
    """The parties a Bell functional's ``(coeff, assignment)`` terms measure,
    in party order (A2 before A10, the boxes last), and its tensor ``W``, an
    axis per party over ``SLOT_SYMBOLS``: each term's coefficient times its
    parties' slot vectors (``party_matrix`` on outcome 0, the identity slot
    where it omits one), summed in term order.  With a scenario every label
    must be one its tables read (``_check_label``)."""
    used = [(label, sym) for _, assignment in terms for label, sym in assignment.items()]
    if scen is not None:
        for label, sym in used:
            _check_label(label, sym, scen.n, scen.scheme)
    labels = sorted({label for label, sym in used if sym is not SettingSymbol.ID}, key=lambda x: (x[:1], len(x), x))
    w, identity = np.zeros((4,) * len(labels)), np.eye(4)[3]
    for coeff, assignment in terms:
        vecs = [identity] * len(labels)
        measured = [(label, sym) for label, sym in assignment.items() if sym is not SettingSymbol.ID]
        for (label, _), row in zip(measured, party_matrix(tuple(sym for _, sym in measured))[:, :, 0]):
            vecs[labels.index(label)] = np.append(row, 0.0)
        w = w + coeff * reduce(np.multiply.outer, vecs, np.ones(()))
    return labels, w


def contract(w: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_i W[..., i] prod_p M_p[i_p, x_p, a_p]`` over (..., x_1..x_m,
    a_1..a_m), W's leading axes kept, contracted pairwise along
    ``einsum_path``'s path."""
    operands = _contract_operands(w, matrices)
    return np.einsum(*operands, optimize=einsum_path(operands))


_PATHS: dict[tuple, list] = {}  # einsum_path's paths, by subscripts and shapes


def einsum_path(operands: list) -> list:
    """numpy's greedy contraction path, the one ``optimize=True`` searches
    for, of the interleaved einsum ``operands`` (arrays and subscript
    lists, then the output's): searched once per subscripts and shapes."""
    key = tuple(tuple(op) if isinstance(op, list) else op.shape for op in operands)
    if key not in _PATHS:
        _PATHS[key] = np.einsum_path(*operands, optimize="greedy")[0]
    return _PATHS[key]


def _contract_operands(w: np.ndarray, matrices: Sequence[np.ndarray]) -> list:
    lead, m = w.ndim - len(matrices), len(matrices)
    # subscripts: leading axes first, then slot i_p = lead + p, setting x_p = w.ndim + p, outcome a_p = w.ndim + m + p
    operands: list = [w, list(range(w.ndim))]
    for p, mat in enumerate(matrices):
        operands += [mat, [lead + p, w.ndim + p, w.ndim + m + p]]
    return operands + [[*range(lead), *range(w.ndim, w.ndim + 2 * m)]]


def row_weights(terms, scheme: str, n: int, *, e: int, l=None, r=None) -> Mapping[tuple, np.ndarray]:
    """Weight array of a Bell functional's ``(coeff, assignment)`` terms on
    each settings row they read, over the outcomes ``event_index(scheme, n,
    l=l, r=r)`` selects: ``contract`` of ``coefficients`` with each measured
    party's ``party_matrix``, constant on every other axis.  A term reads
    the settings its symbols reach (``party_matrix`` nonzero on outcome 0),
    setting 0 where it omits a party, and the y rows if it measures a box,
    else the ``perp`` rows, which weigh W at the identity of every box.
    Rows are listed by the first term that reads them, then with the first
    party's setting varying slowest.

    Memoized: equal arguments, compared with their types and in their
    order, give the same read-only mapping of read-only arrays.  A refused
    argument raises on every call.
    """
    return _memo_row_weights(_frozen((terms, scheme, n, e, l, r)))


def _frozen(value):
    """A hashable copy of nested tuples, lists and mappings: each scalar as
    (type, value), so that 1, 1.0 and True stay apart; ``_thawed`` inverts it."""
    if isinstance(value, (tuple, list)):
        return (tuple, tuple(_frozen(v) for v in value))
    if isinstance(value, abc.Mapping):
        return (abc.Mapping, tuple((_frozen(k), _frozen(v)) for k, v in value.items()))
    return (type(value), value)


def _thawed(value):
    kind, inner = value
    if kind is abc.Mapping:
        return {_thawed(k): _thawed(v) for k, v in inner}
    return tuple(_thawed(v) for v in inner) if kind is tuple else inner


@lru_cache(maxsize=1024)
def _memo_row_weights(args) -> Mapping[tuple, np.ndarray]:
    terms, scheme, n, e, l, r = _thawed(args)
    weights = _build_row_weights(terms, scheme, n, e, l, r)
    for w in weights.values():
        w.setflags(write=False)
    return MappingProxyType(weights)


def _build_row_weights(terms, scheme: str, n: int, e: int, l, r) -> dict[tuple, np.ndarray]:
    """``row_weights`` without the memo."""
    scen = ScenarioSpec(scheme, n)
    labels, w = coefficients(terms, scen)
    if l is not None and any(label.startswith("B") for _, assignment in terms for label in assignment):
        raise ValueError("cannot combine box observables with a joint-outcome condition")
    # the conditioned row, with l split into the box bits b_1..b_n while it is free
    shape = np.broadcast_to(0.0, scen.outcome_shape())[event_index(scheme, n, l=l, r=r)].shape
    full = shape[:-1] + (2,) * n if l is None else shape
    parties = [f"A{i}" for i in range(1, n + 1)] + [f"B{i}" for i in range(1, n + 1)]
    rows: dict = {}  # key -> whether it is a y row, and the settings of A_1..A_n (and of B_1..B_n if so)
    for _, assignment in terms:
        symbols = tuple(assignment.get(party, SettingSymbol.ID) for party in parties)
        boxed = any(sym is not SettingSymbol.ID for sym in symbols[n:])
        reach = party_matrix(symbols)[: 2 * n if boxed else n, :, 0] != 0
        for xs in product(*map(np.flatnonzero, reach)):
            rows.setdefault(scen.row(xs[:n], e, xs[n:] if boxed else PERP), (boxed, xs))
    boxes = sum(label.startswith("B") for label in labels)
    perp = (..., *(3,) * boxes)  # every box at the identity
    values = {}  # for y rows and perp rows: the contraction, the parties it measures, their axes in `full`
    for boxed in {boxed for boxed, _ in rows.values()}:
        who, part = (labels, w.copy()) if boxed else (labels[: len(labels) - boxes], w[perp])
        if boxed:
            part[perp] = 0.0
        mats = [party_matrix(SLOT_SYMBOLS)[:, : 3 if label[0] == "A" else 2] for label in who]
        at = [parties.index(label) for label in who]
        dims = np.ones(len(full), int)  # A_1..A_n's outcomes, the free repeaters, the box bits b_1..b_n
        dims[[p if p < n else p - 2 * n for p in at]] = 2
        values[boxed] = contract(part, mats), at, dims
    ones, weights = np.ones(full), {}
    for key, (boxed, xs) in rows.items():
        value, at, dims = values[boxed]
        weights[key] = (value[tuple(xs[p] for p in at)].reshape(dims) * ones).reshape(shape)
    return weights


def weighted_sum(
    rows: Mapping[tuple, np.ndarray],
    index: tuple,
    weights: Mapping[tuple, np.ndarray],
    event: str | None = None,
) -> float:
    """``sum over rows of <weights[row], rows[row][index]>``.

    With ``event`` (the conditioning event's label) each row's term is
    divided by the row's probability of the event, ``rows[row][index].sum()``,
    and a probability of at most ``ZERO_WEIGHT_TOL`` raises
    ``ZeroProbabilityEvent`` naming the event, for the first such row.
    """
    total = 0.0
    for key, w in weights.items():
        block = rows[key][index]
        value = float(np.vdot(w, block))
        if event is not None:
            prob = float(block.sum())
            if prob <= ZERO_WEIGHT_TOL:
                raise ZeroProbabilityEvent(event, prob)
            value /= prob
        total += value
    return total


def expectation(
    table: ProbabilityTable,
    assignment: Mapping[str, SettingSymbol],
    *,
    e: int,
    l: int | None = None,
    r: Mapping[int, int] | None = None,
    renormalize: bool = True,
) -> float:
    """Correlator of a product of labeled observables, from table rows.

    ``assignment`` maps party labels ("A1".."AN", and "B1".."BN" for di
    tables) to setting symbols; omitted parties act as identity.  ``l``
    restricts to one joint L outcome (di: within ``perp`` rows), ``r``
    restricts repeater outcomes per subnet.  With ``renormalize`` the signed
    sum is divided by the probability of the restriction, yielding a
    conditional expectation, and a restriction of probability at most
    ``ZERO_WEIGHT_TOL`` raises ``ZeroProbabilityEvent``; without it the
    joint (unnormalized) value is returned.  The value is ``terms_value``
    of the one term.
    """
    return terms_value(table, ((1.0, assignment),), e=e, l=l, r=r, renormalize=renormalize)


def terms_value(table: ProbabilityTable, terms, *, e: int, l, r, renormalize: bool) -> float:
    """Value of a Bell functional's ``(coeff, assignment)`` terms on a table:
    ``weighted_sum`` over their ``row_weights``, conditioned on the event
    (``l``, ``r``) with ``renormalize``."""
    weights = row_weights(terms, table.scheme, table.n, e=e, l=l, r=r)
    rows = dict(zip(weights, table.rows(weights)))
    event = event_label(table.n, l=l, r=r) if renormalize else None
    return weighted_sum(rows, event_index(table.scheme, table.n, l=l, r=r), weights, event)


# --- serialization ---------------------------------------------------------


def _float_texts(values: np.ndarray) -> list:
    """``values.tolist()`` with each entry replaced by its JSON text, each
    distinct value formatted once: distinct by bit pattern, so -0.0 stays
    apart from 0.0.  Tables hold finite values only, whose repr is their
    JSON text."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse.reshape(values.shape)].tolist()


def write_table(table: ProbabilityTable, stream: io.TextIOBase) -> None:
    """A header line, then one record per settings row the table holds, in
    ``ScenarioSpec.settings()`` order, each the JSON text of the record with
    sorted keys.  Settings are Python ints, whose list text is their JSON.
    Rows go in passes of about ``PASS_ENTRIES // 4`` entries, one write each."""
    stream.write(f'{{"kind": "probability_table", "n": {table.n}, "scheme": "{table.scheme}"}}\n')
    keys = [key for key in table.scenario().settings() if key in table.entries]
    step = max(1, PASS_ENTRIES // 4 // math.prod(table.scenario().outcome_shape()))
    for r0 in range(0, len(keys), step):
        part = keys[r0 : r0 + step]
        pieces = []
        for key, p in zip(part, _float_texts(np.array([table.entries[key].ravel() for key in part]))):
            y = "" if table.scheme != DI else ', "y": ' + (f'"{PERP}"' if key[2] == PERP else str(list(key[2])))
            pieces += (f'{{"e": {key[1]}, "p": [', ", ".join(p), f'], "x": {list(key[0])}{y}}}\n')
        stream.write("".join(pieces))


def save_table(table: ProbabilityTable, path: str) -> None:
    write_file(path, lambda fh: write_table(table, fh))


def _check_rows(values: np.ndarray, linenos: list[int]) -> None:
    """Raise ValueError naming the line of the first row of ``values`` with
    a negative or non-finite entry, or a sum more than ``SUM_TOL`` from one."""
    ok = np.isfinite(values) & (values >= 0)
    bad = ~ok.all(axis=1) | (np.abs(values.sum(axis=1) - 1.0) > SUM_TOL)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    p = values[k]
    if not ok[k].all():
        j = int(np.argmin(ok[k]))
        raise ValueError(f"line {linenos[k]}: p[{j}] = {float(p[j])!r} is negative or not finite")
    raise ValueError(f"line {linenos[k]}: p sums to {float(p.sum())!r}, not 1")


def _check_no_signalling(scen: ScenarioSpec, index: Mapping[tuple, int], values: np.ndarray) -> None:
    """Raise ValueError if a marginal depends, by more than ``SIGNALLING_TOL``,
    on a setting that cannot reach it: A_i's p(a_i) on more than x_i,
    repeater i's p(r_i) on x or y (the central party acts before it), L's
    p(l) on more than e (almost_di) or y (di), or box i's bit on more than
    y_i on the rows y != perp.  ``values`` stacks the flat rows of a
    complete table, settings key ``key`` at row ``index[key]``; the message
    names the party and two rows."""
    keys = list(scen.settings())
    n, order = scen.n, [index[key] for key in keys]
    # (row, a_1..a_N, (r_1..r_N)) and (row, l), summed as matrix products: a numpy
    # sum over an axis as short as l's runs ten times slower
    ls = 2**n
    core = (values.reshape(-1, ls) @ np.ones(ls)).reshape(len(values), *scen.outcome_shape()[:-1])[order]
    joint = (np.ones(values.shape[1] // ls) @ values.reshape(len(values), -1, ls))[order]

    def marginal(arr, axis):
        return arr.sum(axis=tuple(a for a in range(1, arr.ndim) if a != axis))

    groups = [(f"party A_{i}", keys, marginal(core, i), [key[0][i - 1] for key in keys]) for i in range(1, n + 1)]
    if scen.scheme == DI:
        groups += [(f"repeater {i}", keys, marginal(core, n + i), [key[1] for key in keys]) for i in range(1, n + 1)]
        boxed = [k for k, key in enumerate(keys) if key[2] != PERP]
        bits, ys = joint[boxed].reshape(len(boxed), *(2,) * n), [keys[k] for k in boxed]
        groups += [(f"box {i}", ys, marginal(bits, i), [key[2][i - 1] for key in ys]) for i in range(1, n + 1)]
    groups.append(("party L", keys, joint, [key[-1] for key in keys]))  # by e in almost_di, y in di
    for who, rows, marg, labels in groups:
        first: dict = {}
        # each row's first row with the same setting
        ref = np.array([first.setdefault(label, k) for k, label in enumerate(labels)])
        dev = np.abs(marg - marg[ref]).max(axis=1)
        k = int(np.argmax(dev))
        if dev[k] > SIGNALLING_TOL:
            raise ValueError(
                f"signalling: {who}'s marginal differs by {dev[k]:.2e} between settings rows {rows[ref[k]]} and {rows[k]}"
            )


class _FloatMemo(dict):
    """``float(text)`` per number text, each computed once."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def read_table(stream: io.TextIOBase) -> ProbabilityTable:
    """Parse a table file line by line.  A malformed or unphysical record
    raises ValueError naming its line, and a JSON error its column within
    that line; the first faulty line is named.  A missing settings row
    raises ValueError naming the first one missing, and a signalling table
    one naming the party and two rows (``_check_no_signalling``).

    Each record's ``p`` becomes a row of one stacked array, grown in place as
    records arrive; the entry and sum checks run on it once a line is faulty
    or the file has ended, and the table holds read-only views of its rows."""
    lines = enumerate(stream, start=1)
    for lineno, ln in lines:
        if ln.strip():
            break
    else:
        raise ValueError("empty table file")
    try:
        header = json.loads(ln.rstrip("\n"))
        if header.get("kind") != "probability_table":
            raise ValueError("not a probability table file")
        n = header["n"]
        if type(n) is not int or not 2 <= n <= MAX_TABLE_N:
            raise ValueError(f"header n={n!r} is not an integer from 2 to {MAX_TABLE_N}")
        json_object(header, ("kind", "n", "scheme"), "header")
        scen = ScenarioSpec(header["scheme"], n)
    except KeyError as err:
        raise ValueError(f"line {lineno}: header lacks field {err.args[0]!r}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"line {lineno}, column {err.colno}: {err.msg}") from None
    except (AttributeError, TypeError, ValueError) as err:
        raise ValueError(f"line {lineno}: {err}") from None
    shape = scen.outcome_shape()
    size = math.prod(shape)
    fields = ("e", "p", "x", "y") if scen.scheme == DI else ("e", "p", "x")
    memo = _FloatMemo()
    decode = json.JSONDecoder(parse_float=memo.__getitem__).decode
    index: dict[tuple, int] = {}  # settings key -> row of the stack
    linenos: list[int] = []
    # grown in place as records arrive, never sized from the header.  No view of
    # it exists before the final trim, so ``resize`` skips its reference check,
    # which a tracer's or debugger's snapshot of this frame's locals would fail
    values = np.empty((1, size))
    for lineno, ln in lines:
        if not ln.strip():
            continue
        if len(memo) > size:
            # kept across lines, as tables repeat their values; it holds at most about two rows' texts
            memo.clear()
        try:
            rec = decode(ln.rstrip("\n"))
            key = scen.row(rec["x"], rec["e"], rec["y"] if scen.scheme == DI else PERP)
            if key in index:
                raise ValueError(f"duplicate settings row {key}")
            p = np.array(rec["p"], dtype=float)
            if p.shape != (size,):
                raise ValueError(f"p has shape {p.shape}, expected a list of {size} probabilities")
            if not set(map(type, rec["p"])) <= {float, int}:
                raise ValueError("p holds an entry that is not a JSON number")
            json_object(rec, fields, "record")
        except KeyError as err:
            fault = f"line {lineno}: record lacks field {err.args[0]!r}"
        except json.JSONDecodeError as err:
            fault = f"line {lineno}, column {err.colno}: {err.msg}"
        except (OverflowError, TypeError, ValueError) as err:
            fault = f"line {lineno}: {err}"
        else:
            if len(linenos) == len(values):
                values.resize((2 * len(values), size), refcheck=False)
            values[len(linenos)] = p
            index[key] = len(linenos)
            linenos.append(lineno)
            continue
        _check_rows(values[: len(linenos)], linenos)  # an earlier line's fault comes first
        raise ValueError(fault)
    values.resize((len(linenos), size), refcheck=False)  # no spare rows
    values.setflags(write=False)
    _check_rows(values, linenos)
    missing = [key for key in scen.settings() if key not in index]
    if missing:
        rows = len(missing) + len(index)
        raise ValueError(f"table lacks {len(missing)} of {rows} settings rows, the first is {missing[0]}")
    _check_no_signalling(scen, index, values)
    return ProbabilityTable._adopt(scen.scheme, n, {key: values[k].reshape(shape) for key, k in index.items()})


def load_table(path: str) -> ProbabilityTable:
    return read_file(path, "table file", read_table)
