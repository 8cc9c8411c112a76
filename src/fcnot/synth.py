"""Circuit constructions for Boolean-function-controlled NOT gates.

Given an n-variable function f, each construction emits a Clifford+R1
circuit realizing ``|x>|y>|0^l> -> |x>|y xor f(x)>|0^l>``.  All six are
one recipe (:func:`_synthesize`): the Walsh-Hadamard spectrum of f gives
phase terms on parities of the inputs (the diagonal-operator view of
Welch et al., WGMA14), a rotation by ``theta_j = s_j * pi / 2**(n+1)`` on
the wire holding the XOR of the variables selected by the bits of j.
Zero coefficients would rotate by zero and emit no gate at all.

The target contract decides which terms exist and the Clifford frame
around them:

* arbitrary ``|y>``: every input parity k >= 1 by r1, and every parity
  XOR the target by r1dg, framed by ``H,S ... H`` on the target;
* ``|y> = |0>``: only the parities XOR the target, framed by
  ``H,S ... H,S``.  The final S repairs the residual phase ``(-i)**f(x)``
  the dropped input terms would have supplied, so the map is exact on
  superpositions;
* ``|y> = |f(x)>`` (uncompute to |0>): a Hadamard rotates the target into
  the X basis and it is measured.  On outcome 0 the state is already
  ``|x>|0>``; on outcome 1 the amplitudes carry a ``(-1)**f(x)`` phase,
  which the input terms at doubled angles repair, conditioned on the
  outcome, before an X resets the target.

The cost profile is the scheduler that places the terms on wires:

* low-width: no auxiliary qubits; the terms are walked by Gray-code
  ladders, rotations serialized on few wires;
* depth-1: one wire per parity label, prepared by CNOT schedules, so all
  rotations land on distinct qubits and execute in a single stage.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest

from .boolfn import SpectralData, TruthTable, gray_code, mu, spectrum, trailing_bit
from .circuit import (
    Circuit,
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
    """What a construction may assume about the target ``|y>``."""

    ARBITRARY = "arbitrary"
    ZERO = "zero"
    F_OF_X = "f_of_x"


class ConstructionKind(Enum):
    """The six constructions, named ``<contract>-<profile>``: ``general``,
    ``and`` and ``anddg`` are the arbitrary, ``|0>`` and ``|f(x)>``
    contracts, ``lowwidth`` and ``depth1`` the profiles.  Each member
    carries its ``target_contract`` and whether its profile is ``depth1``
    (else low-width)."""

    GENERAL_LOW_WIDTH = ("general-lowwidth", TargetContract.ARBITRARY, False)
    GENERAL_DEPTH1 = ("general-depth1", TargetContract.ARBITRARY, True)
    AND_LOW_WIDTH = ("and-lowwidth", TargetContract.ZERO, False)
    AND_DEPTH1 = ("and-depth1", TargetContract.ZERO, True)
    ANDDG_LOW_WIDTH = ("anddg-lowwidth", TargetContract.F_OF_X, False)
    ANDDG_DEPTH1 = ("anddg-depth1", TargetContract.F_OF_X, True)

    def __new__(cls, value: str, contract: TargetContract, depth1: bool):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.target_contract = contract
        kind.depth1 = depth1
        return kind


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

    @property
    def ancilla_count(self) -> int:
        """The auxiliary qubits of the layout, which start and end in |0>."""
        return len(self.layout.aux)

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
    """The construction named by ``kind`` for f."""
    return _synthesize(spectrum(f), kind)


def _synthesize(sd: SpectralData, kind: ConstructionKind) -> SynthesisResult:
    """The construction named by ``kind`` from the spectrum ``sd``: the
    contract picks the phase terms and the Clifford frame on the target,
    the profile's scheduler places the terms on wires.  Any spectrum is
    taken as given, so a corrupted one yields the corrupted circuit."""
    contract = kind.target_contract
    uncompute = contract is TargetContract.F_OF_X
    coefficients = sd.coefficients.tolist()
    # theta_j = s_j * pi / 2**(n+1), doubled for the |f(x)> contract, made
    # once per distinct s_j: a few hundred even at n = 16.
    den = 1 << (sd.n if uncompute else sd.n + 1)
    angle_of = {v: Fraction(v, den) for v in set(coefficients)}
    schedule = _depth1 if kind.depth1 else _low_width
    layout, qubits, body = schedule(sd.n, coefficients, angle_of,
                                    inputs=contract is not TargetContract.ZERO,
                                    targets=not uncompute)
    t = layout.target
    # The frame goes around the body in place: a body can hold hundreds of
    # thousands of gates, and a second list of them would only add memory.
    if uncompute:
        body.append(x(t))
        elements = (h(t), ConditionedBlock(t, Circuit(qubits, tuple(body))))
    else:
        body[:0] = (h(t), s(t))
        body += (h(t), s(t)) if contract is TargetContract.ZERO else (h(t),)
        elements = tuple(body)
    circuit = Circuit(qubits, elements, layout.roles(qubits))
    return SynthesisResult(kind, circuit, layout)


# ---------------------------------------------------------------------------
# Schedulers: (layout, qubit count, gates) placing the contract's terms.
# ``inputs`` asks for the input parities k >= 1 by r1, ``targets`` for
# every parity k XOR the target by r1dg.


def _low_width(n: int, coefficients: list[int], angle_of: dict[int, Fraction],
               inputs: bool, targets: bool) -> tuple[Layout, int, list[Gate]]:
    """No auxiliary qubits: wire i-1 carries x_i and wire n the target.
    Each input term led by x_{i+1} is phased by the Gray-code ladder on
    wire i, and every target term by the ladder on the target wire.  With
    both kinds of term this is at most ``2**(n+1) - 1`` rotations and
    ``2**(n+1) - 2`` CNOTs; target terms alone need ``2**n`` of each."""
    gates: list[Gate] = []
    if inputs:
        for i in range(n):
            gates += _ladder(coefficients, angle_of, i, 1 << i, r1)
    if targets:
        gates += _ladder(coefficients, angle_of, n, 0, r1dg)
    return Layout(controls=tuple(range(n)), target=n, aux=()), n + 1, gates


def _depth1(n: int, coefficients: list[int], angle_of: dict[int, Fraction],
            inputs: bool, targets: bool) -> tuple[Layout, int, list[Gate]]:
    """All rotations in a single stage: label k on wire ``k + shift``, x_i
    at label ``2**(i-1)``, one auxiliary wire per composite label.

    With both kinds of term the labels run to ``2**(n+1)``, bit n selecting
    the target (label ``2**n``), and shift is -1: ``2**(n+1) - n - 2``
    auxiliary wires.  Otherwise the labels run to ``2**n``, the target is
    label 0 and shift is 0: ``2**n - n - 1`` auxiliary wires.  Target terms
    alone then need C3, a CNOT fan-out from the target, to fold the target
    into every wire, so the one rotation layer phases ``parity xor
    target`` everywhere.  The layer is C1 (+ C3) C2, then the rotations,
    then the preparation in reverse, which undoes it since CNOT is
    self-adjoint."""
    both = inputs and targets
    size, shift = (1 << (n + 1), -1) if both else (1 << n, 0)
    target = (1 << n if both else 0) + shift
    controls = tuple((1 << i) + shift for i in range(n))
    aux, c1, c2 = _prep(size, shift)
    c3 = () if inputs else tuple(cnot(target, c) for c in controls)
    prep = c1 + c3 + c2
    rotations: list[Gate] = []
    if inputs:
        rotations += [r1(angle_of[v], k + shift) for k, v in enumerate(coefficients) if k and v]
    if targets:
        rotations += [r1dg(angle_of[v], target + k) for k, v in enumerate(coefficients) if v]
    layout = Layout(controls=controls, target=target, aux=aux)
    return layout, size + shift, [*prep, *rotations, *prep[::-1]]


# ---------------------------------------------------------------------------
# Shared emission helpers


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
