"""Synthesis of Boolean-function-controlled NOT circuits over Clifford+R1.

Compile an arbitrary n-variable Boolean function into a quantum circuit
that flips a target qubit exactly when the function is true, choosing
between constructions with no auxiliary qubits and constructions whose
non-Clifford rotations all fit in a single stage.  Every emitted circuit
can be certified against a brute-force oracle by an exact sum-over-paths
check.
"""

from .boolfn import (
    AngleTable,
    GrayCode,
    ParseError,
    SpectralData,
    TruthTable,
    angles,
    gray_code,
    mu,
    parse_function,
    pm_one_vector,
    rho,
    spectrum,
    trailing_bit,
    walsh_hadamard,
)
from .circuit import (
    Circuit,
    ConditionedBlock,
    Gate,
    GateKind,
    ResourceCounts,
    cnot,
    compose,
    h,
    merge_s_gate,
    r1,
    r1dg,
    resource_counts,
    rotation_depth,
    s,
    sdg,
    x,
)
from .export import to_qasm, to_text_diagram
from .sim import (
    Branch,
    BranchedState,
    StateVector,
    VerificationReport,
    apply,
    oracle,
    verify,
)
from .synth import (
    ConstructionKind,
    Layout,
    SynthesisResult,
    TargetContract,
    synthesize,
)

__version__ = "0.1.0"
