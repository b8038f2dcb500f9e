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
    ValidationError,
)
from .linops import DEFAULT_TOL, Check, Report, Tolerance, kron
from .gates import (
    PAULI_BASIS,
    Q_MAGIC,
    catalog,
    catalog_names,
    gate_from_json_data,
    gate_to_json_data,
    make_gate,
)
from .sampling import haar_unitary, random_local_unitary
from .invariants import (
    invariants_from_point,
    invariants_from_unitary,
    invariants_from_z,
)
from .canonical import (
    ClassData,
    POLYHEDRON_VERTICES,
    TETRAHEDRON_VERTICES,
    canonical_gate,
    canonical_point,
    controlled_unitary_gate,
    in_weyl_chamber,
    is_perfect_entangler,
    locally_equivalent,
    weyl_reduce,
)
from .schmidt import (
    SchmidtData,
    schmidt_decompose,
    schmidt_strength,
    z_from_point,
)
from .edges import (
    EdgeSpec,
    Sweep,
    edge,
    edge_names,
    emit_figure_data,
    figure_svg,
    sweep,
    verify_tables,
)
from .audit import run_audit

__all__ = [
    "__version__",
    "ParseError",
    "ValidationError",
    "NumericalError",
    "ExtractionError",
    "Tolerance",
    "DEFAULT_TOL",
    "kron",
    "Check",
    "Report",
    "PAULI_BASIS",
    "Q_MAGIC",
    "make_gate",
    "catalog",
    "catalog_names",
    "gate_from_json_data",
    "gate_to_json_data",
    "haar_unitary",
    "random_local_unitary",
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
    "ClassData",
    "is_perfect_entangler",
    "SchmidtData",
    "z_from_point",
    "schmidt_decompose",
    "schmidt_strength",
    "controlled_unitary_gate",
    "EdgeSpec",
    "Sweep",
    "edge",
    "edge_names",
    "sweep",
    "verify_tables",
    "emit_figure_data",
    "figure_svg",
    "run_audit",
]
