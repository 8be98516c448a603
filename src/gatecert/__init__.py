"""Certification of quantum gates from the statistics of small networks.

The package simulates two network schemes in which distant parties probe
an uncharacterized operation applied to one side of shared entangled
pairs, evaluates the Bell-type functionals whose maximal violation pins
down states and measurements, checks the full set of protocol conditions
on a probability table, and extracts the implemented gate through local
SWAP isometries when the underlying realization is available.
"""

from .adversary import (
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
from .bell import (
    BellFunctional,
    BellTerm,
    SeesawResult,
    classical_bound,
    evaluate,
    functional_I,
    functional_K,
    k_sign_bits,
    seesaw_max,
)
from .certify import (
    CertificationReport,
    CheckRow,
    certify,
)
from .extract import Extraction
from .network import (
    ALMOST_DI,
    DI,
    PERP,
    ProbabilityTable,
    Realization,
    ScenarioSpec,
    born_table,
    load_table,
    read_table,
    reference_realization,
    save_table,
    validate_realization,
    write_table,
)
from .primitives import (
    SettingSymbol,
    gate,
    gate_from_record,
    ghz_basis,
    ghz_bits,
    ghz_state,
    haar_unitary,
    pauli,
    phi_plus,
    ref_b_observable,
    ref_observable,
)
from .tensor import Operator, StateVector

__version__ = "0.1.0"

__all__ = [
    "ADVERSARY_KINDS",
    "ALMOST_DI",
    "AdversarySpec",
    "BellFunctional",
    "BellTerm",
    "CertificationReport",
    "CheckRow",
    "DI",
    "Extraction",
    "Operator",
    "PERP",
    "ProbabilityTable",
    "Realization",
    "ScenarioSpec",
    "SeesawResult",
    "SettingSymbol",
    "StateVector",
    "apply_adversary",
    "born_table",
    "certify",
    "classical_bound",
    "conjugate",
    "depolarize_sources",
    "dilate",
    "evaluate",
    "functional_I",
    "functional_K",
    "gate",
    "gate_from_record",
    "gauge_phase",
    "ghz_basis",
    "ghz_bits",
    "ghz_state",
    "haar_unitary",
    "k_sign_bits",
    "load_adversary",
    "load_table",
    "pauli",
    "perturb",
    "phi_plus",
    "read_table",
    "ref_b_observable",
    "ref_observable",
    "reference_realization",
    "save_adversary",
    "save_table",
    "seesaw_max",
    "validate_realization",
    "write_table",
]
