"""Text-diagram and assembly serialization."""

import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import example, given, strategies as st

from fcnot import export
from fcnot.boolfn import TruthTable
from fcnot.circuit import Circuit, ConditionedBlock, cnot, h, r1, r1dg, x
from fcnot.export import diagram_bytes_floor, format_pi_multiple, to_qasm, to_text_diagram
from fcnot.synth import ConstructionKind, synthesize

AND2 = TruthTable.from_value(2, 0b1000)


def test_format_pi_multiple():
    assert format_pi_multiple(Fraction(0)) == "0"
    assert format_pi_multiple(Fraction(1, 4)) == "pi/4"
    assert format_pi_multiple(Fraction(-1, 4)) == "-pi/4"
    assert format_pi_multiple(Fraction(3, 8)) == "3pi/8"
    assert format_pi_multiple(Fraction(1)) == "pi"
    assert format_pi_multiple(Fraction(-2)) == "-2pi"


# ---------------------------------------------------------------------------
# Diagrams


def test_empty_circuit_renders_labeled_wires():
    out = to_text_diagram(Circuit(2, roles=("x1", "target")))
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("x1_0:")
    assert lines[1].startswith("y_1:")


def test_zero_qubit_circuit_renders_empty():
    assert to_text_diagram(Circuit(0)) == ""
    assert to_text_diagram(Circuit(0), max_columns=3) == ""


def test_single_cnot_renders_control_and_target():
    out = to_text_diagram(Circuit(2, (cnot(0, 1),)))
    lines = out.splitlines()
    assert "●" in lines[0]
    assert "⊕" in lines[1]
    assert lines[0].index("●") == lines[1].index("⊕")


def test_and_low_width_diagram_shape():
    circuit = synthesize(AND2, ConstructionKind.AND_LOW_WIDTH).circuit
    out = to_text_diagram(circuit)
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("x1_0:")
    assert lines[2].startswith("y_2:")
    for token in ("H", "S", "R1†(pi/4)", "R1†(-pi/4)", "⊕"):
        assert token in lines[2] or token in out


def test_conditioned_block_rendered_with_classical_wire():
    circuit = synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH).circuit
    out = to_text_diagram(circuit)
    assert "M" in out
    assert "═" in out  # classical double wire on the measured row
    assert "║" in out  # drop from a conditioned gate to the classical wire


def test_diagram_wraps_at_column_cap():
    circuit = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH).circuit
    out = to_text_diagram(circuit, max_columns=4)
    sections = out.split("\n\n")
    assert len(sections) > 1
    assert "…" in sections[0]
    assert "…" in sections[1]


def test_diagram_is_deterministic():
    circuit = synthesize(AND2, ConstructionKind.GENERAL_DEPTH1).circuit
    assert to_text_diagram(circuit) == to_text_diagram(circuit)


def _columns_one_at_a_time(spans, rows):
    """The reference placement: each shape in turn takes the column after
    the highest one taken on its rows."""
    occupied, columns = [-1] * rows, []
    for lo, hi in spans:
        column = 1 + max(occupied[lo:hi])
        occupied[lo:hi] = [column] * (hi - lo)
        columns.append(column)
    return columns


@st.composite
def _spans(draw):
    """Row spans ``[lo, hi)`` over a few rows: any span, one row, the full
    height, a span nested in the one before, one disjoint from it, and a
    repeat of an earlier one."""
    rows = draw(st.integers(1, 8))
    spans = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(("any", "row", "full", "nested", "disjoint", "repeat")))
        a, b = spans[-1] if spans else (0, rows)
        if kind == "row":
            lo = draw(st.integers(0, rows - 1))
            span = (lo, lo + 1)
        elif kind == "full":
            span = (0, rows)
        elif kind == "nested":
            lo = draw(st.integers(a, b - 1))
            span = (lo, draw(st.integers(lo + 1, b)))
        elif kind == "disjoint" and (a > 0 or b < rows):
            lo = draw(st.integers(0, a - 1) if a > 0 else st.integers(b, rows - 1))
            span = (lo, draw(st.integers(lo + 1, a if lo < a else rows)))
        elif kind == "repeat" and spans:
            span = draw(st.sampled_from(spans))
        else:
            lo = draw(st.integers(0, rows - 1))
            span = (lo, draw(st.integers(lo + 1, rows)))
        spans.append(span)
    return spans, rows


@given(_spans())
@example(([], 3))
@example(([(1, 2)], 3))
@example(([(0, 4)] * 3 + [(1, 3), (2, 3), (0, 1)], 4))
@example(([(0, 1), (2, 3), (1, 2), (0, 3), (3, 4), (1, 4)], 4))
# Below the highest column, a run climbs to it and past it.
@example(([(0, 1)] * 3 + [(5, 6), (4, 6), (3, 5), (2, 4), (1, 3), (0, 2), (0, 3), (1, 2)], 6))
def test_run_placement_matches_placing_one_shape_at_a_time(case):
    spans, rows = case
    lo, hi = np.array(spans, np.intp).reshape(-1, 2).T
    columns, count = export._columns(lo, hi, rows)
    want = _columns_one_at_a_time(spans, rows)
    assert columns.tolist() == want
    assert count == 1 + max(want, default=0)


def test_diagram_peak_memory_is_under_three_times_the_text():
    """Traced, drawing a 255-row general-depth1 diagram allocates at most
    three times the size of the returned string at any one time."""
    bits = np.random.default_rng([20209, 7]).integers(0, 2, size=1 << 7)
    f = TruthTable(7, tuple(int(b) for b in bits))
    circuit = synthesize(f, ConstructionKind.GENERAL_DEPTH1).circuit
    assert circuit.qubit_count == 255
    to_text_diagram(circuit)  # the first call's one-time allocations are not counted
    tracemalloc.start()
    try:
        text = to_text_diagram(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sys.getsizeof(text)


# ---------------------------------------------------------------------------
# Assembly text


def test_diagram_bytes_floor_is_a_lower_bound():
    block = ConditionedBlock(3, Circuit(4, (cnot(0, 1), r1(Fraction(3, 8), 2), x(3))))
    circuits = [Circuit(1, (h(0),)), Circuit(4, (h(3), block, cnot(0, 3), r1dg(Fraction(1, 4), 1)))]
    for n in (1, 2, 3, 4):
        f = TruthTable.from_value(n, (1 << (1 << n)) // 3)
        circuits += [synthesize(f, kind).circuit for kind in ConstructionKind]
    for c in circuits:
        assert 0 < diagram_bytes_floor(c) <= len(to_text_diagram(c).encode())
        assert diagram_bytes_floor(c) <= len(to_text_diagram(c, max_columns=2).encode())


def test_qasm_single_hadamard():
    out = to_qasm(Circuit(1, (h(0),)))
    assert out == "qubit q[1];\nbit c[1];\nh q[0];\n"


def test_qasm_exact_angle_literals():
    out = to_qasm(Circuit(1, (r1(Fraction(1, 4), 0),)))
    assert "p(1*pi/4) q[0];" in out
    out = to_qasm(Circuit(1, (r1dg(Fraction(1, 4), 0),)))
    assert "p(-1*pi/4) q[0];" in out


def test_qasm_no_floating_point_literals():
    for kind in ConstructionKind:
        out = to_qasm(synthesize(AND2, kind).circuit)
        for arg in re.findall(r"p\(([^)]*)\)", out):
            assert re.fullmatch(r"-?\d+\*pi/\d+", arg)
        assert "." not in out.replace(".inc", "")


def test_qasm_conditioned_block_structure():
    out = to_qasm(synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH).circuit)
    assert out.count("measure") == 1
    assert out.count("if (c[0] == 1) {") == 1
    assert out.index("measure") < out.index("if (")
    assert out.rstrip().endswith("}")


def test_qasm_deterministic_and_injective_spot_checks():
    a = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH).circuit
    b = synthesize(AND2, ConstructionKind.AND_LOW_WIDTH).circuit
    assert to_qasm(a) == to_qasm(a)
    assert to_qasm(a) != to_qasm(b)
    assert to_qasm(Circuit(1, (h(0),))) != to_qasm(Circuit(1, (x(0),)))
