"""Circuit constructions for Boolean-function-controlled NOT gates.

Given an n-variable function f, each construction emits a Clifford+R1
circuit realizing ``|x>|y>|0^l> -> |x>|y xor f(x)>|0^l>`` for one of three
target contracts (arbitrary ``|y>``, ``|y> = |0>``, ``|y> = |f(x)>``) and
one of two cost profiles:

* low-width: no auxiliary qubits, rotations serialized on few wires;
* depth-1: one auxiliary qubit per linear combination of inputs, so all
  rotations land on distinct qubits and execute in a single stage.

Rotation angles come from the Walsh-Hadamard spectrum of f: a rotation by
``theta_j = s_j * pi / 2**(n+1)`` is scheduled onto the wire holding the
XOR of the variables selected by the bits of j (plus the target, for the
adjoint rotations).  Zero coefficients would rotate by zero and emit no
gate at all.

The two uncompute constructions (``|f(x)>`` contract) measure the target
after a basis change and repair the surviving phases with doubled-angle
rotations, conditioned on the measurement outcome.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest

from .boolfn import (
    AngleTable,
    SpectralData,
    TruthTable,
    angles,
    gray_code,
    mu,
    spectrum,
    trailing_bit,
)
from .circuit import (
    Circuit,
    CircuitElement,
    ConditionedBlock,
    Gate,
    cnot,
    h,
    r1,
    r1dg,
    resource_counts,
    rotation_depth,
    s,
    x,
)


class TargetContract(Enum):
    ARBITRARY = "arbitrary"
    ZERO = "zero"
    F_OF_X = "f_of_x"


class ConstructionKind(Enum):
    """The six constructions, named ``<contract>-<profile>``."""

    GENERAL_LOW_WIDTH = "general-lowwidth"
    GENERAL_DEPTH1 = "general-depth1"
    AND_LOW_WIDTH = "and-lowwidth"
    AND_DEPTH1 = "and-depth1"
    ANDDG_LOW_WIDTH = "anddg-lowwidth"
    ANDDG_DEPTH1 = "anddg-depth1"

    @property
    def target_contract(self) -> TargetContract:
        return {
            ConstructionKind.GENERAL_LOW_WIDTH: TargetContract.ARBITRARY,
            ConstructionKind.GENERAL_DEPTH1: TargetContract.ARBITRARY,
            ConstructionKind.AND_LOW_WIDTH: TargetContract.ZERO,
            ConstructionKind.AND_DEPTH1: TargetContract.ZERO,
            ConstructionKind.ANDDG_LOW_WIDTH: TargetContract.F_OF_X,
            ConstructionKind.ANDDG_DEPTH1: TargetContract.F_OF_X,
        }[self]

    @property
    def is_uncompute(self) -> bool:
        return self.target_contract is TargetContract.F_OF_X

    def ancilla_count(self, n: int) -> int:
        """Closed-form auxiliary-qubit count for n variables."""
        if self in (ConstructionKind.GENERAL_LOW_WIDTH,
                    ConstructionKind.AND_LOW_WIDTH,
                    ConstructionKind.ANDDG_LOW_WIDTH):
            return 0
        if self is ConstructionKind.GENERAL_DEPTH1:
            return (1 << (n + 1)) - n - 2
        return (1 << n) - n - 1


@dataclass(frozen=True)
class Layout:
    """Physical qubit indices of the logical roles.

    ``controls[i - 1]`` carries variable ``x_i``; ``aux`` qubits start and
    end in |0>.
    """

    controls: tuple[int, ...]
    target: int
    aux: tuple[int, ...]

    def roles(self, qubit_count: int) -> tuple[str, ...]:
        out = ["aux"] * qubit_count
        for i, q in enumerate(self.controls):
            out[q] = f"x{i + 1}"
        out[self.target] = "target"
        return tuple(out)


@dataclass(frozen=True)
class SynthesisResult:
    kind: ConstructionKind
    circuit: Circuit
    layout: Layout
    ancilla_count: int

    def metrics(self) -> dict[str, int]:
        counts = resource_counts(self.circuit)
        return {
            "qubits": counts.qubits,
            "ancillas": self.ancilla_count,
            "cnot": counts.cnot,
            "r1_total": counts.r1_total,
            "r1_non_clifford": counts.r1_non_clifford,
            "rotation_depth": rotation_depth(self.circuit),
            "measurements": counts.measurements,
        }


def synthesize(f: TruthTable, kind: ConstructionKind) -> SynthesisResult:
    """Dispatch to the construction named by ``kind``."""
    return _DISPATCH[kind](f)


# ---------------------------------------------------------------------------
# Shared emission helpers


def _angle_of(coefficients: list[int], table: AngleTable,
              doubled: bool = False) -> dict[int, Fraction]:
    """The angle theta_j of each distinct coefficient value s_j, doubled
    if asked.  Only a few hundred distinct values occur even at n = 16,
    so each angle is made once."""
    angle_of = dict(zip(coefficients, table.angles))
    return {value: a * 2 for value, a in angle_of.items()} if doubled else angle_of


def _ladder(coefficients: list[int], angle_of: dict[int, Fraction], wire: int,
            base: int, rotation: Callable[[Fraction, int], Gate]) -> list[Gate]:
    """Gray-code ladder on ``wire`` over the wires below it: ``rotation``
    (r1 or r1dg) by theta at index ``base + v_k``, then step the wire with
    a CNOT from bit position delta_k.  The cycle closes, so the wire ends
    holding what it started with.  On wire i with base ``2**i`` it phases
    every combination whose leading variable is x_{i+1}; on the target
    wire n with base 0 it walks the target through every combination XOR
    y.  On wire 0 there is a single step and no CNOT.

    Each distinct gate is built once: one rotation per distinct nonzero
    coefficient and one CNOT per control wire.
    """
    code = gray_code(wire)
    block = coefficients[base : base + (1 << wire)]
    gate_of = {value: rotation(angle_of[value], wire) for value in set(block) if value}
    phases = map(gate_of.get, map(block.__getitem__, code.codewords))
    steps = map([cnot(c, wire) for c in range(wire)].__getitem__, code.deltas)
    # A zero coefficient gives no phase gate (None) and wire 0 no step.
    return list(filter(None, chain.from_iterable(zip_longest(phases, steps))))


@lru_cache(maxsize=8)
def _prep(size: int, shift: int) -> tuple[tuple[int, ...], tuple[Gate, ...],
                                           tuple[Gate, ...]]:
    """The auxiliary wires and the CNOT schedules C1 and C2 preparing them,
    with label k on physical qubit ``k + shift``.  There is one auxiliary
    wire per composite label ``3 <= k < size`` (weight != 1): C1 seeds it
    from the wire of the trailing bit, and C2 folds in the rest from wire
    ``k - trailing_bit(k)``.  Increasing k guarantees every fold source is
    finalized before use.  Cached, since it depends only on the size."""
    labels = [k for k in range(3, size) if mu(k) != 1]
    return (tuple(k + shift for k in labels),
            tuple(cnot(trailing_bit(k) + shift, k + shift) for k in labels),
            tuple(cnot(k - trailing_bit(k) + shift, k + shift) for k in labels))


# ---------------------------------------------------------------------------
# The six constructions


def synth_general_low_width(f: TruthTable) -> SynthesisResult:
    """Arbitrary target state, no auxiliary qubits.

    Wire i-1 carries x_i and wire n the target.  The circuit is
    ``H_n . S_n . C_0 ... C_{n-1} . C . H_n`` where each C_i is a Gray-code
    ladder phasing the input-only combinations led by x_{i+1}, and C phases
    every combination XOR y on the target wire with adjoint rotations.
    Worst case it uses ``2**(n+1) - 1`` rotations and ``2**(n+1) - 2``
    CNOTs.
    """
    sd = spectrum(f)
    table = angles(sd)
    return _general_low_width_from_spectrum(sd, table)


def _general_low_width_from_spectrum(sd: SpectralData,
                                     table: AngleTable) -> SynthesisResult:
    n = sd.n
    coefficients = sd.coefficients.tolist()
    angle_of = _angle_of(coefficients, table)
    elements: list[CircuitElement] = [h(n), s(n)]
    for i in range(n):
        elements += _ladder(coefficients, angle_of, i, 1 << i, r1)
    elements += _ladder(coefficients, angle_of, n, 0, r1dg)
    elements.append(h(n))
    layout = Layout(controls=tuple(range(n)), target=n, aux=())
    circuit = Circuit(n + 1, tuple(elements), layout.roles(n + 1))
    return SynthesisResult(ConstructionKind.GENERAL_LOW_WIDTH, circuit, layout, 0)


def synth_general_depth1(f: TruthTable) -> SynthesisResult:
    """Arbitrary target state, all rotations in a single parallel stage.

    One wire per nonzero combination label ``1 <= k < 2**(n+1)`` of the
    inputs and the target (label bit i-1 selects x_i, bit n selects the
    target); label k lives on physical qubit k - 1.  Wires of weight 1 are
    the inputs and the target themselves; the other ``2**(n+1) - n - 2``
    wires are auxiliary.  CNOT schedules C1 (seed from trailing bit) and C2
    (fold in the rest) prepare every combination, a single layer R of
    rotations fires on all wires at once, and the preparation is undone.
    """
    sd = spectrum(f)
    table = angles(sd)
    n = sd.n
    size = 1 << (n + 1)
    target = (1 << n) - 1  # physical index of label 2**n

    aux, c1, c2 = _prep(size, -1)
    prep = c1 + c2

    coefficients = sd.coefficients.tolist()
    angle_of = _angle_of(coefficients, table)
    rotations = [r1(angle_of[v], k - 1) for k, v in enumerate(coefficients) if k and v]
    rotations += [r1dg(angle_of[v], (1 << n) + k - 1)
                  for k, v in enumerate(coefficients) if v]

    # CNOT is self-adjoint, so the preparation is undone by its reverse.
    elements = [h(target), s(target), *prep, *rotations, *prep[::-1], h(target)]
    layout = Layout(
        controls=tuple((1 << i) - 1 for i in range(n)),
        target=target,
        aux=aux,
    )
    circuit = Circuit(size - 1, tuple(elements), layout.roles(size - 1))
    return SynthesisResult(
        ConstructionKind.GENERAL_DEPTH1, circuit, layout,
        ConstructionKind.GENERAL_DEPTH1.ancilla_count(n),
    )


def synth_and_low_width(f: TruthTable) -> SynthesisResult:
    """Target known to be |0>, no auxiliary qubits.

    Keeps only the target-wire ladder of the general low-width form (the
    input-only rotations are unnecessary on this contract), so ``2**n``
    rotations and ``2**n`` CNOTs suffice.  A final S on the target repairs
    the residual phase ``(-i)**f(x)`` the dropped ladders would have
    supplied, making the map ``|x>|0> -> |x>|f(x)>`` exact on
    superpositions.
    """
    sd = spectrum(f)
    table = angles(sd)
    n = sd.n
    elements: list[CircuitElement] = [h(n), s(n)]
    coefficients = sd.coefficients.tolist()
    elements += _ladder(coefficients, _angle_of(coefficients, table), n, 0, r1dg)
    elements += [h(n), s(n)]
    layout = Layout(controls=tuple(range(n)), target=n, aux=())
    circuit = Circuit(n + 1, tuple(elements), layout.roles(n + 1))
    return SynthesisResult(ConstructionKind.AND_LOW_WIDTH, circuit, layout, 0)


def synth_and_depth1(f: TruthTable) -> SynthesisResult:
    """Target known to be |0>, single rotation stage.

    Uses ``2**n`` wires: the target at 0, x_i at ``2**(i-1)``, and one
    auxiliary wire per composite label ``3 <= k < 2**n``.  C1 and C2
    prepare the input combinations as in the general depth-1 form, and C3
    (a CNOT fan-out from the target) folds the target into every wire, so
    the single rotation layer phases ``combination xor target`` everywhere.
    The same final S as in the low-width variant makes the contract exact.
    """
    sd = spectrum(f)
    table = angles(sd)
    n = sd.n
    size = 1 << n

    aux, c1, c2 = _prep(size, 0)
    c3 = tuple(cnot(0, 1 << i) for i in range(n))
    prep = c1 + c3 + c2

    coefficients = sd.coefficients.tolist()
    angle_of = _angle_of(coefficients, table)
    rotations = [r1dg(angle_of[v], k) for k, v in enumerate(coefficients) if v]

    elements = [h(0), s(0), *prep, *rotations, *prep[::-1], h(0), s(0)]
    layout = Layout(
        controls=tuple(1 << i for i in range(n)),
        target=0,
        aux=aux,
    )
    circuit = Circuit(size, tuple(elements), layout.roles(size))
    return SynthesisResult(
        ConstructionKind.AND_DEPTH1, circuit, layout,
        ConstructionKind.AND_DEPTH1.ancilla_count(n),
    )


def synth_anddg_low_width(f: TruthTable) -> SynthesisResult:
    """Target known to be |f(x)>, uncompute to |0>, no auxiliary qubits.

    A Hadamard rotates the target into the X basis and it is measured.  On
    outcome 0 the state is already ``|x>|0>``; on outcome 1 the surviving
    amplitudes carry a ``(-1)**f(x)`` phase, which the conditioned block
    repairs with the input-only Gray-code ladders at doubled angles before
    an X resets the target.
    """
    sd = spectrum(f)
    table = angles(sd)
    n = sd.n

    coefficients = sd.coefficients.tolist()
    angle_of = _angle_of(coefficients, table, doubled=True)
    body: list[Gate] = []
    for i in range(n):
        body += _ladder(coefficients, angle_of, i, 1 << i, r1)
    body.append(x(n))

    layout = Layout(controls=tuple(range(n)), target=n, aux=())
    roles = layout.roles(n + 1)
    block = ConditionedBlock(n, Circuit(n + 1, tuple(body)))
    circuit = Circuit(n + 1, (h(n), block), roles)
    return SynthesisResult(ConstructionKind.ANDDG_LOW_WIDTH, circuit, layout, 0)


def synth_anddg_depth1(f: TruthTable) -> SynthesisResult:
    """Target known to be |f(x)>, uncompute to |0>, single rotation stage.

    Layout as in the depth-1 compute variant (target at 0, x_i at
    ``2**(i-1)``).  Only input combinations are needed for the phase
    repair, so the conditioned block prepares them with C1/C2, fires all
    doubled-angle rotations in one stage, undoes the preparation, and
    resets the target with an X.
    """
    sd = spectrum(f)
    table = angles(sd)
    n = sd.n
    size = 1 << n

    aux, c1, c2 = _prep(size, 0)
    prep = c1 + c2

    coefficients = sd.coefficients.tolist()
    angle_of = _angle_of(coefficients, table, doubled=True)
    rotations = [r1(angle_of[v], k) for k, v in enumerate(coefficients) if k and v]

    body = [*prep, *rotations, *prep[::-1], x(0)]
    layout = Layout(
        controls=tuple(1 << i for i in range(n)),
        target=0,
        aux=aux,
    )
    roles = layout.roles(size)
    block = ConditionedBlock(0, Circuit(size, tuple(body)))
    circuit = Circuit(size, (h(0), block), roles)
    return SynthesisResult(
        ConstructionKind.ANDDG_DEPTH1, circuit, layout,
        ConstructionKind.ANDDG_DEPTH1.ancilla_count(n),
    )


_DISPATCH = {
    ConstructionKind.GENERAL_LOW_WIDTH: synth_general_low_width,
    ConstructionKind.GENERAL_DEPTH1: synth_general_depth1,
    ConstructionKind.AND_LOW_WIDTH: synth_and_low_width,
    ConstructionKind.AND_DEPTH1: synth_and_depth1,
    ConstructionKind.ANDDG_LOW_WIDTH: synth_anddg_low_width,
    ConstructionKind.ANDDG_DEPTH1: synth_anddg_depth1,
}
