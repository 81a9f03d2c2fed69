"""Gate-level simulator and verification suite for the quantized baker map.

The map lives on L qubits (D = 2^L position states) and is built from
three gate types; dense matrix oracles, displacement-operator checks, and
chaos diagnostics (iteration, distributions, spectral form factor,
perturbation echoes) sit alongside the O(D)-per-gate simulation path.
"""

__version__ = "0.1.0"

from .baker import (
    ClassicalPoint,
    baker_circuit,
    baker_matrix,
    baker_reference_3q,
    classical_orbit,
    classical_step,
)
from .dynamics import (
    EchoConfig,
    TrajectoryRecord,
    distribution_entropy,
    echo_initial_state,
    form_factor,
    iterate,
    loschmidt_echo,
    momentum_distribution,
    phase_kick,
    position_distribution,
)
from .errors import DomainError, ParseError, SizeError
from .gates import (
    MAX_DENSE_QUBITS,
    Circuit,
    Gate,
    GateCounts,
    GateKind,
    a_gate,
    apply_circuit,
    apply_gate,
    b_angle,
    b_gate,
    circuit_to_matrix,
    concat,
    dagger,
    elide_swaps,
    gate_count,
    swap_gate,
)
from .kernels import get_num_threads, set_num_threads
from .qft import (
    dft_matrix,
    qft_block_circuit,
    qft_circuit,
    qft_residual,
)
from .state import StateVector, basis_state, random_state
from .weyl import PhaseSpaceOperators, WeylReport, build_operators, check_weyl

__all__ = [
    "__version__",
    "Circuit",
    "ClassicalPoint",
    "DomainError",
    "EchoConfig",
    "Gate",
    "GateCounts",
    "GateKind",
    "MAX_DENSE_QUBITS",
    "ParseError",
    "PhaseSpaceOperators",
    "SizeError",
    "StateVector",
    "TrajectoryRecord",
    "WeylReport",
    "a_gate",
    "apply_circuit",
    "apply_gate",
    "b_angle",
    "b_gate",
    "baker_circuit",
    "baker_matrix",
    "baker_reference_3q",
    "basis_state",
    "build_operators",
    "check_weyl",
    "circuit_to_matrix",
    "classical_orbit",
    "classical_step",
    "concat",
    "dagger",
    "dft_matrix",
    "distribution_entropy",
    "echo_initial_state",
    "elide_swaps",
    "form_factor",
    "gate_count",
    "get_num_threads",
    "iterate",
    "loschmidt_echo",
    "momentum_distribution",
    "phase_kick",
    "position_distribution",
    "qft_block_circuit",
    "qft_circuit",
    "qft_residual",
    "random_state",
    "set_num_threads",
    "swap_gate",
]
