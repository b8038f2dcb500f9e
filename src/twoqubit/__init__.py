"""Nonlocal structure of two-qubit gates.

Canonical (Weyl-chamber) coordinates, Makhlin local invariants by three
independent routes, operator-Schmidt decomposition with Schmidt number and
strength, perfect-entangler classification, and closed-form sweeps along
the fifteen named chamber and polyhedron edges.
"""

__version__ = "0.1.0"

from .errors import (
    ExtractionError,
    NumericalError,
    ParseError,
    SchmidtNumberError,
    ValidationError,
)
from .linops import DEFAULT_TOL, Tolerance, kron
from .gates import (
    Gate,
    PAULI_BASIS,
    Q_MAGIC,
    bell_transform,
    catalog,
    catalog_names,
    gate_from_json_data,
    gate_to_json_data,
    make_gate,
)
from .sampling import haar_gate, haar_unitary, random_local_unitary
from .invariants import (
    LocalInvariants,
    invariants_from_point,
    invariants_from_unitary,
    invariants_from_z,
    locally_equivalent,
)
from .canonical import (
    POLYHEDRON_VERTICES,
    TETRAHEDRON_VERTICES,
    canonical_gate,
    canonical_point,
    in_weyl_chamber,
    is_perfect_entangler,
    schmidt_number_line,
    weyl_reduce,
)
from .schmidt import (
    SchmidtData,
    controlled_unitary_gate,
    schmidt_decompose,
    schmidt_number_of,
    schmidt_strength,
    z_from_point,
)
from .edges import (
    EdgeSpec,
    Sweep,
    TableReport,
    edge,
    edge_names,
    emit_figure_data,
    figure_svg,
    sweep,
    verify_tables,
)
from .audit import AuditResult, run_audit

__all__ = [
    "__version__",
    "ParseError",
    "ValidationError",
    "NumericalError",
    "ExtractionError",
    "SchmidtNumberError",
    "Tolerance",
    "DEFAULT_TOL",
    "kron",
    "Gate",
    "PAULI_BASIS",
    "Q_MAGIC",
    "make_gate",
    "bell_transform",
    "catalog",
    "catalog_names",
    "gate_from_json_data",
    "gate_to_json_data",
    "haar_unitary",
    "haar_gate",
    "random_local_unitary",
    "LocalInvariants",
    "invariants_from_unitary",
    "invariants_from_point",
    "invariants_from_z",
    "locally_equivalent",
    "TETRAHEDRON_VERTICES",
    "POLYHEDRON_VERTICES",
    "weyl_reduce",
    "in_weyl_chamber",
    "canonical_point",
    "canonical_gate",
    "is_perfect_entangler",
    "schmidt_number_line",
    "SchmidtData",
    "z_from_point",
    "schmidt_decompose",
    "schmidt_strength",
    "schmidt_number_of",
    "controlled_unitary_gate",
    "EdgeSpec",
    "Sweep",
    "TableReport",
    "edge",
    "edge_names",
    "sweep",
    "verify_tables",
    "emit_figure_data",
    "figure_svg",
    "AuditResult",
    "run_audit",
]
