"""Structure, layouts, counts, and cross-equivalences of the constructions."""

from fractions import Fraction

import numpy as np
import pytest

from fcnot.boolfn import TruthTable, spectrum
from fcnot.circuit import (
    Circuit,
    ConditionedBlock,
    Gate,
    GateKind,
    cnot,
    compose,
    h,
    r1,
    r1dg,
    resource_counts,
    rotation_depth,
    s,
)
from fcnot.export import diagram_bytes_floor, to_qasm, to_text_diagram
from fcnot.sim import StateVector, apply, oracle, verify
from fcnot.synth import ConstructionKind, Layout, SynthesisResult, synthesize

AND2 = TruthTable.from_value(2, 0b1000)

LOW_WIDTH_KINDS = (
    ConstructionKind.GENERAL_LOW_WIDTH,
    ConstructionKind.AND_LOW_WIDTH,
    ConstructionKind.ANDDG_LOW_WIDTH,
)
DEPTH1_KINDS = (
    ConstructionKind.GENERAL_DEPTH1,
    ConstructionKind.AND_DEPTH1,
    ConstructionKind.ANDDG_DEPTH1,
)


def and_n(n: int) -> TruthTable:
    """n-ary AND; every spectral coefficient is nonzero (for n >= 2)."""
    return TruthTable.from_value(n, 1 << ((1 << n) - 1))


# ---------------------------------------------------------------------------
# General, low width


def test_general_low_width_and2_structure():
    result = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH)
    c = result.circuit
    assert c.qubit_count == 3
    assert result.ancilla_count == 0
    assert c.elements[0] == h(2)
    assert c.elements[1] == s(2)
    assert c.elements[-1] == h(2)
    counts = resource_counts(c)
    assert counts.r1_total == 7
    assert counts.cnot == 6
    angles = {el.angle for el in c.elements
              if isinstance(el, Gate) and el.is_rotation()}
    assert angles == {Fraction(1, 4), Fraction(-1, 4)}
    assert result.layout.controls == (0, 1)
    assert result.layout.target == 2


def test_general_low_width_n1_is_cnot():
    f = TruthTable.from_value(1, 0b10)  # f = x1
    circuit = synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH).circuit
    for k in range(4):
        out = apply(circuit, StateVector.basis(2, k)).branches[0].state.amplitudes
        expected = k ^ ((k & 1) << 1)
        assert abs(out[expected] - 1) < 1e-12


def test_general_low_width_rejects_nothing_in_range():
    for value in range(4):
        f = TruthTable.from_value(1, value)
        assert synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH).circuit.qubit_count == 2


# ---------------------------------------------------------------------------
# General, depth 1


def test_general_depth1_and2_structure():
    result = synthesize(AND2, ConstructionKind.GENERAL_DEPTH1)
    metrics = result.metrics()
    assert metrics["qubits"] == 7
    assert metrics["ancillas"] == 4
    assert metrics["rotation_depth"] == 1
    assert metrics["r1_total"] == 7
    assert metrics["cnot"] == 16
    # combination labels: x_i on 2**(i-1)-1, target on 2**n - 1
    assert result.layout.controls == (0, 1)
    assert result.layout.target == 3
    assert result.layout.aux == (2, 4, 5, 6)


def test_general_depth1_n1():
    f = TruthTable.from_value(1, 0b10)
    result = synthesize(f, ConstructionKind.GENERAL_DEPTH1)
    assert result.circuit.qubit_count == 3
    assert result.ancilla_count == 1


def test_general_depth1_restores_auxiliaries_deterministically():
    result = synthesize(AND2, ConstructionKind.GENERAL_DEPTH1)
    aux = result.layout.aux
    for x_val in range(4):
        for y in (0, 1):
            index = (x_val & 1) | ((x_val >> 1) << 1) | (y << result.layout.target)
            out = apply(result.circuit, StateVector.basis(7, index))
            amps = out.branches[0].state.amplitudes
            nonzero = np.flatnonzero(np.abs(amps) > 1e-12)
            assert all(int(i) >> q & 1 == 0 for i in nonzero for q in aux)


# ---------------------------------------------------------------------------
# Target |0>, low width


def test_and_low_width_and2_structure():
    result = synthesize(AND2, ConstructionKind.AND_LOW_WIDTH)
    counts = resource_counts(result.circuit)
    assert result.circuit.qubit_count == 3
    assert counts.r1_total == 4
    assert counts.cnot == 4


def test_and_low_width_constant_zero_is_identity():
    f = TruthTable.from_value(2, 0)
    circuit = synthesize(f, ConstructionKind.AND_LOW_WIDTH).circuit
    for x_val in range(4):
        out = apply(circuit, StateVector.basis(3, x_val)).branches[0].state.amplitudes
        assert abs(abs(out[x_val]) - 1) < 1e-12


# ---------------------------------------------------------------------------
# Target |0>, depth 1


def test_and_depth1_and2_gate_sequence():
    result = synthesize(AND2, ConstructionKind.AND_DEPTH1)
    th = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4)]
    expected = (
        h(0), s(0),
        cnot(1, 3),                      # seed composite 3 from its trailing bit
        cnot(0, 1), cnot(0, 2),          # fold the target into the variable wires
        cnot(2, 3),                      # complete composite 3
        r1dg(th[0], 0), r1dg(th[1], 1), r1dg(th[2], 2), r1dg(th[3], 3),
        cnot(2, 3), cnot(0, 2), cnot(0, 1), cnot(1, 3),
        h(0), s(0),
    )
    assert result.circuit.elements == expected
    assert result.circuit.qubit_count == 4
    assert result.ancilla_count == 1
    assert rotation_depth(result.circuit) == 1
    assert result.layout.controls == (1, 2)
    assert result.layout.target == 0
    assert result.layout.aux == (3,)


def test_and_depth1_n1():
    f = TruthTable.from_value(1, 0b10)
    result = synthesize(f, ConstructionKind.AND_DEPTH1)
    assert result.circuit.qubit_count == 2
    assert result.ancilla_count == 0


# ---------------------------------------------------------------------------
# Target |f(x)>, low width


def test_anddg_low_width_and2_structure():
    result = synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH)
    c = result.circuit
    assert c.qubit_count == 3
    assert len(c.elements) == 2  # H then the conditioned block
    block = c.elements[1]
    assert block.measured_qubit == 2
    rotations = [g for g in block.body.elements if g.is_rotation()]
    assert [g.angle for g in rotations] == [
        Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)
    ]
    assert resource_counts(c).r1_non_clifford == 0
    assert block.body.elements[-1].kind is GateKind.X


def test_anddg_low_width_constant_zero():
    f = TruthTable.from_value(2, 0)
    result = synthesize(f, ConstructionKind.ANDDG_LOW_WIDTH)
    for x_val in range(4):
        out = apply(result.circuit, StateVector.basis(3, x_val))
        for branch in out.branches:
            assert abs(abs(branch.state.amplitudes[x_val]) - 1) < 1e-12


# ---------------------------------------------------------------------------
# Target |f(x)>, depth 1


def test_anddg_depth1_and2_structure():
    result = synthesize(AND2, ConstructionKind.ANDDG_DEPTH1)
    c = result.circuit
    assert c.qubit_count == 4
    block = c.elements[1]
    assert block.measured_qubit == 0
    rotations = [g for g in block.body.elements if g.is_rotation()]
    assert len(rotations) == 3
    assert {g.qubits[0] for g in rotations} == {1, 2, 3}
    assert rotation_depth(c) <= 1


def test_anddg_depth1_n1_single_conditional_rotation():
    f = TruthTable.from_value(1, 0b10)
    result = synthesize(f, ConstructionKind.ANDDG_DEPTH1)
    assert result.ancilla_count == 0
    block = result.circuit.elements[1]
    rotations = [g for g in block.body.elements if g.is_rotation()]
    assert len(rotations) == 1
    assert rotations[0].angle == Fraction(1)  # doubled pi/2


# ---------------------------------------------------------------------------
# Closed forms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ancilla_count_formulas(n):
    f = TruthTable.from_value(n, 1)
    for kind in ConstructionKind:
        result = synthesize(f, kind)
        expected = {
            ConstructionKind.GENERAL_LOW_WIDTH: 0,
            ConstructionKind.GENERAL_DEPTH1: 2 ** (n + 1) - n - 2,
            ConstructionKind.AND_LOW_WIDTH: 0,
            ConstructionKind.AND_DEPTH1: 2**n - n - 1,
            ConstructionKind.ANDDG_LOW_WIDTH: 0,
            ConstructionKind.ANDDG_DEPTH1: 2**n - n - 1,
        }[kind]
        assert result.ancilla_count == expected
        assert len(result.layout.aux) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_spectrum_gate_count_closed_forms(n):
    # the n-ary AND has no vanishing coefficients, so nothing elides
    f = and_n(n)
    assert all(int(v) != 0 for v in spectrum(f).coefficients)
    counts = resource_counts(synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH).circuit)
    assert counts.r1_total == 2 ** (n + 1) - 1
    assert counts.cnot == 2 ** (n + 1) - 2
    counts = resource_counts(synthesize(f, ConstructionKind.AND_LOW_WIDTH).circuit)
    assert counts.r1_total == 2**n
    assert counts.cnot == 2**n


def test_zero_coefficients_elide_rotations():
    f = TruthTable.from_value(2, 0b0110)  # parity: spectrum (0, 0, 0, 4)
    counts = resource_counts(synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH).circuit)
    assert counts.r1_total == 2  # theta_3 appears once per ladder kind


# ---------------------------------------------------------------------------
# Depth-1 property


def test_depth1_kinds_have_depth_at_most_one_small_n():
    for n in (1, 2):
        for value in range(1 << (1 << n)):
            f = TruthTable.from_value(n, value)
            for kind in DEPTH1_KINDS:
                result = synthesize(f, kind)
                depth = rotation_depth(result.circuit)
                assert depth <= 1
                non_clifford = resource_counts(result.circuit).r1_non_clifford
                assert (depth == 1) == (non_clifford > 0)


# ---------------------------------------------------------------------------
# Equivalences


def _embedded_output(result, x_val: int, y: int):
    layout = result.layout
    m = result.circuit.qubit_count
    index = y << layout.target
    for i, q in enumerate(layout.controls):
        index |= ((x_val >> i) & 1) << q
    return apply(result.circuit, StateVector.basis(m, index))


def test_general_constructions_agree_exactly():
    for n in (1, 2):
        for value in range(1 << (1 << n)):
            f = TruthTable.from_value(n, value)
            low = synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH)
            wide = synthesize(f, ConstructionKind.GENERAL_DEPTH1)
            for x_val in range(1 << n):
                for y in (0, 1):
                    expected = x_val | ((y ^ f.bits[x_val]) << n)
                    out_low = _embedded_output(low, x_val, y).branches[0]
                    amp_low = out_low.state.amplitudes[expected]
                    out_wide = _embedded_output(wide, x_val, y).branches[0]
                    wide_index = (y ^ f.bits[x_val]) << wide.layout.target
                    for i, q in enumerate(wide.layout.controls):
                        wide_index |= ((x_val >> i) & 1) << q
                    amp_wide = out_wide.state.amplitudes[wide_index]
                    assert abs(amp_low - 1) < 1e-9
                    assert abs(amp_wide - 1) < 1e-9


def test_target_zero_constructions_agree_exactly():
    # same global phase in both circuits, so amplitudes match one another
    for value in range(16):
        f = TruthTable.from_value(2, value)
        a = synthesize(f, ConstructionKind.AND_LOW_WIDTH)
        b = synthesize(f, ConstructionKind.AND_DEPTH1)
        for x_val in range(4):
            out_a = _embedded_output(a, x_val, 0).branches[0].state.amplitudes
            out_b = _embedded_output(b, x_val, 0).branches[0].state.amplitudes
            idx_a = x_val | (f.bits[x_val] << a.layout.target)
            idx_b = f.bits[x_val] << b.layout.target
            for i, q in enumerate(b.layout.controls):
                idx_b |= ((x_val >> i) & 1) << q
            assert abs(out_a[idx_a] - out_b[idx_b]) < 1e-9


def test_uncompute_constructions_agree_as_channels():
    rng = np.random.default_rng(17)
    for value in range(16):
        f = TruthTable.from_value(2, value)
        a = synthesize(f, ConstructionKind.ANDDG_LOW_WIDTH)
        b = synthesize(f, ConstructionKind.ANDDG_DEPTH1)
        alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
        alpha /= np.linalg.norm(alpha)

        def run(result):
            layout = result.layout
            m = result.circuit.qubit_count
            state = np.zeros(1 << m, dtype=complex)
            ref = np.zeros(1 << m, dtype=complex)
            for x_val in range(4):
                idx = f.bits[x_val] << layout.target
                out_idx = 0
                for i, q in enumerate(layout.controls):
                    idx |= ((x_val >> i) & 1) << q
                    out_idx |= ((x_val >> i) & 1) << q
                state[idx] = alpha[x_val]
                ref[out_idx] = alpha[x_val]
            branched = apply(result.circuit, StateVector(m, state))
            return {
                br.outcomes[layout.target]: (br.probability,
                                             abs(np.vdot(ref, br.state.amplitudes)))
                for br in branched.branches
            }

        res_a, res_b = run(a), run(b)
        assert set(res_a) == set(res_b)
        for outcome in res_a:
            prob_a, fid_a = res_a[outcome]
            prob_b, fid_b = res_b[outcome]
            assert abs(prob_a - prob_b) < 1e-12
            assert fid_a >= 1 - 1e-9
            assert fid_b >= 1 - 1e-9


def test_general_low_width_is_self_inverse_small_n():
    for n in (1, 2):
        for value in range(1 << (1 << n)):
            f = TruthTable.from_value(n, value)
            circuit = synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH).circuit
            doubled = compose(circuit, circuit)
            for k in range(1 << (n + 1)):
                out = apply(doubled, StateVector.basis(n + 1, k))
                assert abs(out.branches[0].state.amplitudes[k] - 1) < 1e-9


def test_every_construction_verifies_on_and2():
    for kind in ConstructionKind:
        result = synthesize(AND2, kind)
        report = verify(result, AND2, seed=5)
        assert report.verdict == "PASS", (kind, report.counterexample)


def test_verify_covers_only_legal_subspace():
    result = synthesize(AND2, ConstructionKind.AND_LOW_WIDTH)
    contract = result.kind.target_contract
    assert oracle(AND2, contract)[0].size == 4  # y = 1 inputs excluded


def test_repeated_synthesis_is_unaffected_by_shared_gates():
    """Synthesizing f, then g, then f again at the same n gives the same
    bytes: gates shared within a call and schedules cached across calls
    leak nothing from one call into the next."""
    rng = np.random.default_rng(31)
    for n in (3, 5):
        f, g = (TruthTable(n, tuple(rng.integers(0, 2, size=1 << n).tolist()))
                for _ in range(2))
        for kind in ConstructionKind:
            first = to_qasm(synthesize(f, kind).circuit)
            other = to_qasm(synthesize(g, kind).circuit)
            again = to_qasm(synthesize(f, kind).circuit)
            assert again == first
            assert other != first


def _fresh(c: Circuit) -> Circuit:
    """``c`` with every element and every block-body gate replaced by a
    fresh equal object, so no two positions share one."""
    def gate(g: Gate) -> Gate:
        return Gate(g.kind, g.qubits, g.angle)

    return Circuit(c.qubit_count, tuple(
        ConditionedBlock(el.measured_qubit, Circuit(
            el.body.qubit_count, tuple(map(gate, el.body.elements)), el.body.roles))
        if isinstance(el, ConditionedBlock) else gate(el) for el in c.elements), c.roles)


def _assert_grouped(c: Circuit) -> None:
    """``distinct`` holds each element object once, in order of first
    appearance, and ``order`` points every position at its object; the same
    holds for every block body."""
    assert [*map(id, c.distinct)] == [*dict.fromkeys(map(id, c.elements))]
    assert c.order.dtype == np.intp and c.order.shape == (len(c.elements),)
    assert all(c.distinct[i] is el for i, el in zip(c.order.tolist(), c.elements))
    for el in c.distinct:
        if isinstance(el, ConditionedBlock):
            _assert_grouped(el.body)


def _assert_same_output(shared: Circuit, fresh: Circuit) -> None:
    assert fresh == shared and hash(fresh) == hash(shared)
    assert to_qasm(fresh) == to_qasm(shared)
    for columns in (None, 4):
        assert (to_text_diagram(fresh, max_columns=columns)
                == to_text_diagram(shared, max_columns=columns))
    assert diagram_bytes_floor(fresh) == diagram_bytes_floor(shared)
    assert resource_counts(fresh) == resource_counts(shared)
    assert rotation_depth(fresh) == rotation_depth(shared)


@pytest.mark.parametrize("kind", list(ConstructionKind))
def test_shared_gates_give_the_output_of_fresh_ones(kind):
    """Every consumer reads ``Circuit.distinct`` and ``Circuit.order``, so a
    circuit whose positions share gate objects exports, counts and verifies
    exactly as one built from fresh equal objects at every position."""
    rng = np.random.default_rng(47)
    tables = [TruthTable(n, tuple(rng.integers(0, 2, size=1 << n).tolist()))
              for n in range(1, 6)] + [and_n(4)]
    shares = False
    for f in tables:
        result = synthesize(f, kind)
        shared, fresh = result.circuit, _fresh(result.circuit)
        _assert_grouped(shared)
        _assert_grouped(fresh)
        assert fresh.distinct == fresh.elements
        shares |= len(shared.distinct) < len(shared.elements) or any(
            len(el.body.distinct) < len(el.body.elements)
            for el in shared.distinct if isinstance(el, ConditionedBlock))
        _assert_same_output(shared, fresh)
        again = SynthesisResult(kind, fresh, result.layout)
        assert again.metrics() == result.metrics()
        assert verify(again, f).to_json() == verify(result, f).to_json()
    assert shares


def test_hand_built_circuit_repeating_a_block_is_grouped_by_object():
    """A block placed twice is one distinct element; a second block on the
    same row shares gates with it; equal gates built apart stay apart."""
    z, t, g = h(0), cnot(1, 2), r1(Fraction(1, 4), 2)
    block = ConditionedBlock(0, Circuit(3, (g, t, g, h(2), t)))
    other = ConditionedBlock(0, Circuit(3, (t, g)))
    c = Circuit(3, (z, block, g, block, other, h(0), z))
    assert c.distinct == (z, block, g, other, h(0))
    assert c.distinct[4] is c.elements[5] and c.distinct[0] is z
    assert c.order.tolist() == [0, 1, 2, 1, 3, 4, 0]
    assert block.body.order.tolist() == [0, 1, 0, 2, 1]
    assert other.body.order.tolist() == [0, 1]
    _assert_grouped(c)
    _assert_same_output(c, _fresh(c))
    assert resource_counts(c).measurements == 3
    assert resource_counts(c).cnot == 5
    layout = Layout(controls=(1,), target=2, aux=(0,))
    reports = [verify(SynthesisResult(ConstructionKind.GENERAL_LOW_WIDTH, circuit, layout),
                      TruthTable.from_value(1, 0b10)).to_json()
               for circuit in (c, _fresh(c))]
    assert reports[0] == reports[1]
    empty = Circuit(2)
    assert empty.distinct == () and empty.order.tolist() == []
