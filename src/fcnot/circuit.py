"""Gate-level circuit representation for Clifford+R1 with conditioned blocks.

Circuits are flat ordered lists of gates plus optional measurement-conditioned
sub-blocks, over integer-indexed qubits.  Rotation angles are exact rational
multiples of pi (Fractions in units of pi with power-of-two denominators), so
Clifford detection and the S merge never touch floating point.

Gates and circuits are immutable after construction; every function here
is pure.  One gate object may therefore stand at many positions of one or
more circuits, and the constructions build each distinct gate only once.
Only :class:`Circuit` works out which positions share an object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Union

import numpy as np


class GateKind(Enum):
    H = "h"
    S = "s"
    SDG = "sdg"
    X = "x"
    CNOT = "cx"
    R1 = "r1"
    R1DG = "r1dg"


# Reading a member off an Enum class runs Python code; hot paths compare
# kinds by identity against these module-level names instead.
_CNOT, _R1, _R1DG = GateKind.CNOT, GateKind.R1, GateKind.R1DG
_ROTATIONS = (_R1, _R1DG)


@dataclass(frozen=True, slots=True)
class Gate:
    """A single gate.  ``angle`` (units of pi) is set only for R1/R1DG.

    For CNOT, ``qubits`` is ``(control, target)``.  Gates are immutable,
    so one object may stand at many positions of one or more circuits.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: Fraction | None = None

    def __post_init__(self) -> None:
        kind, qubits = self.kind, self.qubits
        if type(kind) is not GateKind:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = 2 if kind is _CNOT else 1
        if len(qubits) != arity:
            raise ValueError(f"{kind.value} takes {arity} qubit(s)")
        if min(qubits) < 0:
            raise ValueError("qubit indices must be nonnegative")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError("CNOT control and target must differ")
        if kind is _R1 or kind is _R1DG:
            if self.angle is None:
                raise ValueError(f"{kind.value} requires an angle")
            d = self.angle.denominator
            if d & (d - 1):
                raise ValueError("rotation denominators must be powers of two")
        elif self.angle is not None:
            raise ValueError(f"{kind.value} takes no angle")

    def is_rotation(self) -> bool:
        return self.kind in _ROTATIONS


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def s(q: int) -> Gate:
    return Gate(GateKind.S, (q,))


def sdg(q: int) -> Gate:
    return Gate(GateKind.SDG, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def r1(angle: Fraction, q: int) -> Gate:
    return Gate(_R1, (q,), _exact(angle))


def r1dg(angle: Fraction, q: int) -> Gate:
    return Gate(_R1DG, (q,), _exact(angle))


def _exact(angle) -> Fraction:
    return angle if type(angle) is Fraction else Fraction(angle)


@dataclass(frozen=True)
class ConditionedBlock:
    """Measure ``measured_qubit`` in the Z basis; run ``body`` iff the
    outcome is 1.  Bodies contain no further measurements."""

    measured_qubit: int
    body: "Circuit"

    def __post_init__(self) -> None:
        if self.measured_qubit < 0:
            raise ValueError("qubit indices must be nonnegative")
        if set(map(type, self.body.distinct)) - {Gate}:
            raise ValueError("conditioned blocks cannot nest measurements")


CircuitElement = Union[Gate, ConditionedBlock]

_ROLE_RE = re.compile(r"target|aux|x[0-9]+")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over qubits ``0 .. qubit_count - 1``.

    ``roles`` optionally annotates each qubit as ``"x<i>"`` (control for
    variable i), ``"target"``, or ``"aux"``; auxiliary annotations let the
    verifier assert restoration to |0>.

    ``distinct`` holds each element object once, in order of first
    appearance, and ``order`` (intp) the index there of the object at each
    position: ``distinct[order[i]] is elements[i]``.  Both are worked out
    when the circuit is made, and take no part in equality or ``repr``.
    """

    qubit_count: int
    elements: tuple[CircuitElement, ...] = ()
    roles: tuple[str, ...] | None = None
    distinct: tuple[CircuitElement, ...] = field(init=False, compare=False, repr=False)
    order: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.qubit_count < 0:
            raise ValueError("qubit_count must be nonnegative")
        width = self.qubit_count
        # Objects are numbered by first appearance; all positions of one
        # number hold one object, so any of them gives it.
        index: dict[int, int] = {}
        order = [index.setdefault(i, len(index)) for i in map(id, self.elements)]
        object.__setattr__(self, "distinct", tuple(dict(zip(order, self.elements)).values()))
        object.__setattr__(self, "order", np.array(order, np.intp))
        # Each distinct object is checked once.
        for el in self.distinct:
            if isinstance(el, ConditionedBlock):
                if el.measured_qubit >= width:
                    raise ValueError("measured qubit out of range")
                if el.body.qubit_count != width:
                    raise ValueError("block body must match the circuit width")
            elif max(el.qubits) >= width:
                raise ValueError("gate qubit out of range")
        if self.roles is not None:
            if len(self.roles) != self.qubit_count:
                raise ValueError("one role per qubit required")
            for role in dict.fromkeys(self.roles):
                if not _ROLE_RE.fullmatch(role):
                    raise ValueError(f"invalid role {role!r}")


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Concatenation; ``a`` executes first.  Qubit counts must agree."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("cannot compose circuits of different widths")
    return Circuit(a.qubit_count, a.elements + b.elements, a.roles or b.roles)


def rotation_depth(c: Circuit) -> int:
    """Number of rotation stages: the longest chain of non-Clifford R1/R1DG
    gates in the dependency DAG (two gates depend iff they share a qubit).

    Implemented as an as-soon-as-possible sweep of per-qubit stage counters.
    Clifford gates synchronize the qubits they touch without opening a new
    stage.  A conditioned block joins its measured qubit with every qubit its
    body touches before the body runs, and its rotations count toward the
    depth unconditionally (worst case).  For the circuits produced here, where
    each depth-1 construction places all rotations on distinct qubits with no
    interleaving dependencies, this greedy schedule attains the minimum.
    """
    depth = [0] * c.qubit_count
    _sweep(depth, c.elements)
    return max(depth, default=0)


def _sweep(depth: list[int], elements: tuple[CircuitElement, ...]) -> None:
    """Advance the per-qubit stage counters of :func:`rotation_depth` over
    ``elements``.  Only CNOTs (two wires) and non-Clifford rotations (one
    stage more) change them."""
    for el in elements:
        if isinstance(el, ConditionedBlock):
            touched = {el.measured_qubit}.union(*[g.qubits for g in el.body.distinct])
            d0 = max(depth[q] for q in touched)
            for q in touched:
                depth[q] = d0
            _sweep(depth, el.body.elements)
        elif el.kind is _CNOT:
            a, b = el.qubits
            if depth[a] < depth[b]:
                depth[a] = depth[b]
            else:
                depth[b] = depth[a]
        elif el.angle is not None and el.angle.denominator > 2:
            depth[el.qubits[0]] += 1


@dataclass(frozen=True)
class ResourceCounts:
    cnot: int
    r1_total: int
    r1_non_clifford: int
    h: int
    s: int
    x: int
    measurements: int
    qubits: int
    auxiliary: int


#: Each gate kind, and the field of :class:`ResourceCounts` that counts it.
_KINDS = (_CNOT, _R1, _R1DG, GateKind.H, GateKind.S, GateKind.SDG, GateKind.X)
_FIELDS = (0, 1, 1, 3, 4, 4, 5)


def resource_counts(c: Circuit) -> ResourceCounts:
    """Gate tallies.  Conditioned-block bodies are counted unconditionally,
    so the result is an outcome-independent upper bound."""
    tally = [0] * 7
    _tally(tally, c, 1)
    return ResourceCounts(*tally, qubits=c.qubit_count,
                          auxiliary=(c.roles or ()).count("aux"))


def _tally(tally: list[int], c: Circuit, times: int) -> None:
    """Add the positions of ``c``, ``times`` times over, to the first seven
    fields of :class:`ResourceCounts` in ``tally``, once per distinct element."""
    field_of = _KINDS.index
    for el, uses in zip(c.distinct, np.bincount(c.order).tolist()):
        uses *= times
        if type(el) is Gate:
            tally[_FIELDS[field_of(el.kind)]] += uses
            # A rotation is Clifford iff its angle's denominator is 1 or 2.
            if el.angle is not None and el.angle.denominator > 2:
                tally[2] += uses
        else:
            tally[6] += uses
            _tally(tally, el.body, uses)


def merge_s_gate(c: Circuit) -> Circuit:
    """Optional pass: absorb the designated S on the target into the first
    adjoint rotation that follows it on the same qubit.

    The low-width and depth-1 compute constructions open with ``H_t, S_t``
    and later apply ``R1dg(theta_0)`` to the same qubit, with only gates
    diagonal on that qubit (CNOT controls) in between.  Since
    ``S * R1dg(a) = R1dg(a - pi/2)``, the S gate can be dropped and the
    rotation retargeted.  Circuits without the pattern (including ones
    already merged) are returned unchanged.
    """
    elems = list(c.elements)
    for i in range(len(elems) - 1):
        first, second = elems[i], elems[i + 1]
        if not (isinstance(first, Gate) and isinstance(second, Gate)):
            continue
        if first.kind is not GateKind.H or second.kind is not GateKind.S:
            continue
        if first.qubits != second.qubits:
            continue
        t = second.qubits[0]
        for j in range(i + 2, len(elems)):
            el = elems[j]
            if isinstance(el, ConditionedBlock):
                break
            if t not in el.qubits:
                continue
            if el.kind is GateKind.R1DG:
                elems[j] = r1dg(el.angle - Fraction(1, 2), t)
                del elems[i + 1]
                return Circuit(c.qubit_count, tuple(elems), c.roles)
            if el.kind is GateKind.CNOT and el.qubits[0] == t:
                continue  # diagonal on t, commutes with the pending S
            break  # non-diagonal gate on t: pattern does not apply here
    return c
