"""CSS entanglement-assisted quantum convolutional codes.

Builds an [[n, k; c]] entanglement-assisted quantum convolutional code from
two arbitrary classical binary convolutional check matrices, synthesizes the
encoding and decoding circuits (finite depth where possible, sliding-window
infinite-depth operations where not), and verifies every step with exact
polynomial algebra plus a truncated stream simulator.
"""

from .construct import (
    CLASS1,
    CLASS2,
    CLASS2_SPECIAL,
    CodeSpec,
    DecompositionRecord,
    build_code,
    decompose_general,
    validate_inputs,
)
from .gates import (
    Circuit,
    Gate,
    QuantumCheckMatrix,
    SlidingWindowRule,
    apply_gate,
    synthesize_infinite_depth,
    time_reversed_rule,
)
from .pauli import CheckRow, shifted_symplectic
from .poly import LaurentPoly, RationalPoly, parse_poly, parse_rational, series_expand
from .polymat import PolyMatrix, parse_matrix
from .simulate import BinarySymplecticWindow, expand, run_circuit, verify_code

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
