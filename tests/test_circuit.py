"""Circuit IR: composition, metrics, and the S-merge pass."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fcnot.boolfn import TruthTable
from fcnot.circuit import (
    Circuit,
    ConditionedBlock,
    Gate,
    GateKind,
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
from fcnot.sim import StateVector, apply
from fcnot.synth import ConstructionKind, synthesize

AND2 = TruthTable.from_value(2, 0b1000)

PI_4 = Fraction(1, 4)
PI_8 = Fraction(1, 8)


@st.composite
def circuits(draw, max_qubits=3, max_gates=10):
    m = draw(st.integers(1, max_qubits))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        choice = draw(st.integers(0, 5))
        q = draw(st.integers(0, m - 1))
        if choice == 0:
            gates.append(h(q))
        elif choice == 1:
            gates.append(s(q))
        elif choice == 2:
            gates.append(x(q))
        elif choice == 3 and m > 1:
            t = draw(st.integers(0, m - 2))
            gates.append(cnot(q, t if t < q else t + 1))
        else:
            num = draw(st.integers(-8, 8))
            den = 1 << draw(st.integers(0, 4))
            gate = r1 if choice == 4 else r1dg
            gates.append(gate(Fraction(num, den), q))
    return Circuit(m, tuple(gates))


# ---------------------------------------------------------------------------
# Validation


def test_gate_validation():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.R1, (0,))  # missing angle
    with pytest.raises(ValueError):
        r1(Fraction(1, 3), 0)  # denominator not a power of two
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0,), Fraction(1, 2))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(1, (h(1),))
    with pytest.raises(ValueError):
        Circuit(2, (h(0),), roles=("x1",))
    # a trailing newline would split the diagram row; a non-ASCII digit
    # would need a code point outside the Basic Multilingual Plane
    for role in ("banana", "x1\n", "x\U0001d7d9"):
        with pytest.raises(ValueError):
            Circuit(2, (h(0),), roles=(role, "aux"))
    with pytest.raises(ValueError):
        Circuit(2, (ConditionedBlock(0, Circuit(3)),))
    inner = Circuit(2, (ConditionedBlock(0, Circuit(2)),))
    with pytest.raises(ValueError):
        ConditionedBlock(1, inner)  # no nested measurements


# ---------------------------------------------------------------------------
# Compose and adjoint


def test_compose_empty_is_identity_element():
    c = Circuit(2, (h(0), cnot(0, 1)))
    assert compose(Circuit(2), c) == c
    assert compose(c, Circuit(2)) == c


def test_compose_rejects_width_mismatch():
    with pytest.raises(ValueError):
        compose(Circuit(1), Circuit(2))


def test_compose_h_h_simulates_to_identity():
    c = compose(Circuit(1, (h(0),)), Circuit(1, (h(0),)))
    for k in range(2):
        out = apply(c, StateVector.basis(1, k)).branches[0].state.amplitudes
        assert abs(out[k] - 1) < 1e-12


def test_r1_keeps_an_exact_angle_object():
    angle = Fraction(3, 8)
    assert r1(angle, 0).angle is angle
    assert r1dg(angle, 0).angle is angle
    assert r1(Fraction(1, 4), 0) == r1(Fraction(2, 8), 0)
    assert r1(1, 0).angle == Fraction(1)


def test_gate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Gate("h", (0,))


def inverse(c: Circuit) -> Circuit:
    """The gates of a measurement-free circuit reversed, each inverted:
    S and Sdg swap, R1 and R1dg swap, the others are self-inverse."""
    swap = {GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
            GateKind.R1: GateKind.R1DG, GateKind.R1DG: GateKind.R1}
    return Circuit(c.qubit_count, tuple(Gate(swap.get(g.kind, g.kind), g.qubits, g.angle)
                                        for g in reversed(c.elements)))


@given(circuits())
def test_compose_with_adjoint_acts_as_identity(c):
    round_trip = compose(c, inverse(c))
    for k in range(1 << c.qubit_count):
        out = apply(round_trip, StateVector.basis(c.qubit_count, k))
        amp = out.branches[0].state.amplitudes[k]
        assert abs(amp) >= 1 - 1e-9


# ---------------------------------------------------------------------------
# Rotation depth


def test_rotation_depth_zero_without_rotations():
    assert rotation_depth(Circuit(2, (h(0), cnot(0, 1), x(1)))) == 0


def test_rotation_depth_serializes_same_qubit():
    c = Circuit(1, (r1(PI_8, 0), r1(PI_8, 0)))
    assert rotation_depth(c) == 2


def test_rotation_depth_parallel_rotations():
    c = Circuit(2, (r1(PI_8, 0), r1(PI_8, 1)))
    assert rotation_depth(c) == 1


def test_rotation_depth_ignores_clifford_angles():
    c = Circuit(1, (r1(Fraction(1, 2), 0), r1(Fraction(1, 1), 0), r1(Fraction(2), 0)))
    assert rotation_depth(c) == 0


def test_rotation_depth_chains_through_shared_qubits():
    c = Circuit(2, (r1(PI_8, 0), cnot(0, 1), r1(PI_8, 1)))
    assert rotation_depth(c) == 2
    # without the connecting CNOT the rotations are independent
    c = Circuit(2, (r1(PI_8, 0), r1(PI_8, 1)))
    assert rotation_depth(c) == 1


def test_rotation_depth_block_acts_as_barrier():
    body = Circuit(2, (r1(PI_8, 1),))
    c = Circuit(2, (r1(PI_8, 1), ConditionedBlock(0, body)))
    assert rotation_depth(c) == 2
    # the measured qubit joins the body's qubits even without sharing wires
    body = Circuit(2, (r1(PI_8, 1),))
    c = Circuit(2, (r1(PI_8, 0), ConditionedBlock(0, body)))
    assert rotation_depth(c) == 2


def test_depth1_construction_has_rotation_depth_one():
    result = synthesize(AND2, ConstructionKind.GENERAL_DEPTH1)
    assert rotation_depth(result.circuit) == 1


@given(circuits())
def test_depth_zero_iff_no_non_clifford_rotations(c):
    counts = resource_counts(c)
    assert (rotation_depth(c) == 0) == (counts.r1_non_clifford == 0)


# ---------------------------------------------------------------------------
# Resource counts


def test_resource_counts_empty():
    counts = resource_counts(Circuit(3))
    assert (counts.cnot, counts.r1_total, counts.r1_non_clifford, counts.h, counts.s,
            counts.x, counts.measurements, counts.qubits, counts.auxiliary) == (
        0, 0, 0, 0, 0, 0, 0, 3, 0)


def test_resource_counts_include_conditioned_bodies():
    body = Circuit(2, (r1(PI_8, 1), x(0), cnot(0, 1)))
    c = Circuit(
        2,
        (h(0), s(0), sdg(1), ConditionedBlock(0, body)),
        roles=("target", "aux"),
    )
    counts = resource_counts(c)
    assert counts.cnot == 1
    assert counts.r1_total == 1
    assert counts.r1_non_clifford == 1
    assert counts.h == 1
    assert counts.s == 2  # S and S† tally together
    assert counts.x == 1
    assert counts.measurements == 1
    assert counts.auxiliary == 1


def test_construction_1_counts_on_and2():
    counts = resource_counts(synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH).circuit)
    assert counts.cnot == 6
    assert counts.r1_total == 7
    assert counts.r1_non_clifford == 7


def test_construction_5_counts_on_and2():
    counts = resource_counts(synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH).circuit)
    assert counts.r1_non_clifford == 0
    assert counts.r1_total == 3


# ---------------------------------------------------------------------------
# S-merge pass


def _simulates_identically(a: Circuit, b: Circuit) -> bool:
    for k in range(1 << a.qubit_count):
        out_a = apply(a, StateVector.basis(a.qubit_count, k)).branches
        out_b = apply(b, StateVector.basis(b.qubit_count, k)).branches
        for br_a, br_b in zip(out_a, out_b):
            if not np.allclose(
                br_a.state.amplitudes, br_b.state.amplitudes, atol=1e-12
            ):
                return False
    return True


def test_merge_s_gate_on_construction_1():
    circuit = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH).circuit
    merged = merge_s_gate(circuit)
    before = resource_counts(circuit)
    after = resource_counts(merged)
    assert after.s == before.s - 1
    assert after.r1_total == before.r1_total
    # theta_0 = pi/4, so the absorbed rotation is R1dg(pi/4 - pi/2)
    assert r1dg(Fraction(-1, 4), 2) in merged.elements
    assert _simulates_identically(circuit, merged)


def test_merge_s_gate_applies_to_all_compute_constructions():
    for kind in (
        ConstructionKind.GENERAL_LOW_WIDTH,
        ConstructionKind.GENERAL_DEPTH1,
        ConstructionKind.AND_LOW_WIDTH,
        ConstructionKind.AND_DEPTH1,
    ):
        circuit = synthesize(AND2, kind).circuit
        merged = merge_s_gate(circuit)
        assert resource_counts(merged).s == resource_counts(circuit).s - 1
        assert _simulates_identically(circuit, merged)


def test_merge_s_gate_is_idempotent():
    circuit = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH).circuit
    merged = merge_s_gate(circuit)
    assert merge_s_gate(merged) == merged


def test_merge_s_gate_leaves_unmatched_circuits_alone():
    c = Circuit(2, (h(0), cnot(0, 1), r1dg(PI_4, 0)))
    assert merge_s_gate(c) == c
    c = Circuit(1, (s(0), h(0)))
    assert merge_s_gate(c) == c
    # balanced function: theta_0 elides, leaving no rotation to absorb into
    balanced = TruthTable.from_value(2, 0b0110)
    circuit = synthesize(balanced, ConstructionKind.GENERAL_LOW_WIDTH).circuit
    assert merge_s_gate(circuit) == circuit
