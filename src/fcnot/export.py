"""Serialization of circuits to a column diagram and to assembly text.

Both outputs are deterministic: the same circuit always serializes to the
same bytes, and every rotation angle appears as an exact integer-over-
power-of-two multiple of pi, never as a floating-point literal.

Both are linear in their output size.  The diagram is built one column at
a time: each column's width is computed once, and a vertical connector
fills its run of rows in one step.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate

from .circuit import Circuit, ConditionedBlock, Gate, GateKind


def format_pi_multiple(angle: Fraction) -> str:
    """Human form of an exact angle: ``0``, ``pi/4``, ``-3pi/8``, ``pi``."""
    num, den = angle.numerator, angle.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    mag = abs(num)
    head = "pi" if mag == 1 else f"{mag}pi"
    tail = "" if den == 1 else f"/{den}"
    return f"{sign}{head}{tail}"


def _gate_cells(gate: Gate) -> dict[int, str]:
    kind = gate.kind
    if kind is GateKind.CNOT:
        control, target = gate.qubits
        return {control: "●", target: "⊕"}
    (q,) = gate.qubits
    if kind is GateKind.R1:
        return {q: f"R1({format_pi_multiple(gate.angle)})"}
    if kind is GateKind.R1DG:
        return {q: f"R1†({format_pi_multiple(gate.angle)})"}
    return {q: {GateKind.H: "H", GateKind.S: "S", GateKind.SDG: "S†",
                GateKind.X: "X"}[kind]}


def _centered(text: str, width: int, wire: str) -> str:
    pad = width - len(text)
    return wire * (pad // 2) + text + wire * (pad - pad // 2)


class _DiagramBuilder:
    """Accumulates diagram columns with as-soon-as-possible placement."""

    def __init__(self, qubit_count: int) -> None:
        self.qubit_count = qubit_count
        # Per column: cell text by row, vertical connector runs as
        # (first row, last row, char), and the rows carrying a classical
        # (double) wire.
        self.cells: list[dict[int, str]] = []
        self.links: list[list[tuple[int, int, str]]] = []
        self.classical: list[list[int]] = []
        self.occupied = [-1] * qubit_count

    def _place(self, lo: int, hi: int, cells: dict[int, str], link: str | None) -> int:
        """Put ``cells`` in the first column free on rows ``lo..hi``."""
        column = 1 + max(self.occupied[lo : hi + 1])
        self.occupied[lo : hi + 1] = [column] * (hi + 1 - lo)
        if column == len(self.cells):
            self.cells.append({})
            self.links.append([])
            self.classical.append([])
        self.cells[column].update(cells)
        if link is not None and hi - lo > 1:
            self.links[column].append((lo + 1, hi - 1, link))
        return column

    def add_gate(self, gate: Gate, conditioned_on: int | None = None) -> int:
        cells = _gate_cells(gate)
        link = "│"
        if conditioned_on is not None and conditioned_on not in cells:
            cells[conditioned_on] = "●"
            link = "║"
        return self._place(min(cells), max(cells), cells, link)

    def add_block(self, block: ConditionedBlock) -> None:
        q = block.measured_qubit
        start = end = self._place(q, q, {q: "M"}, None)
        for gate in block.body.elements:
            end = self.add_gate(gate, conditioned_on=q)
        for column in range(start + 1, end + 1):
            self.classical[column].append(q)

    def columns(self) -> list[list[str]]:
        """Every column as one equal-width text segment per row."""
        out = []
        for cells, links, classical in zip(self.cells, self.links, self.classical):
            width = max(map(len, cells.values())) + 2
            column = ["─" * width] * self.qubit_count
            for lo, hi, char in links:
                column[lo : hi + 1] = [_centered(char, width, "─")] * (hi + 1 - lo)
            # A run can pass a cell of its own gate, such as a junction;
            # the cell is drawn over it.
            for q, text in cells.items():
                column[q] = _centered(text, width, "─")
            # Within a block only the block's own gates reach the measured
            # row, and each puts a cell there, so no link crosses it.
            for q in classical:
                column[q] = _centered(cells.get(q, ""), width, "═")
            out.append(column)
        return out


def diagram_bytes_floor(c: Circuit) -> int:
    """A lower bound on the UTF-8 size of ``to_text_diagram(c)``, found in
    time linear in the gate count without drawing anything.

    Placement gives each gate whose row span covers a row a column of its
    own, at least as wide as the gate's widest cell plus two.  Each column
    puts its width in characters on every row, two of them 3-byte
    box-drawing characters, so each row takes at least the sum, over the
    gates covering it, of (widest cell + 6) bytes.
    """
    cover = [0] * (c.qubit_count + 1)

    def add(lo: int, hi: int, gate: Gate | None, repeats: int) -> None:
        # A CNOT's cells, and a measurement's, are one character wide.
        width = 1 if gate is None or gate.kind is GateKind.CNOT else max(
            map(len, _gate_cells(gate).values()))
        cover[lo] += (width + 6) * repeats
        cover[hi + 1] -= (width + 6) * repeats

    # Constructions share gate objects, so each distinct one is read once.
    repeats = Counter(map(id, c.elements))
    for el in dict(zip(map(id, c.elements), c.elements)).values():
        times = repeats[id(el)]
        if isinstance(el, ConditionedBlock):
            q = el.measured_qubit
            add(q, q, None, times)
            for g in el.body.elements:
                add(min(q, *g.qubits), max(q, *g.qubits), g, times)
        else:
            add(min(el.qubits), max(el.qubits), el, times)
    return c.qubit_count * max(accumulate(cover))


def to_text_diagram(c: Circuit, max_columns: int | None = None) -> str:
    """Render one labeled row per qubit with gates in ASAP columns.

    Conditioned blocks show the measurement as ``M``; the measured qubit's
    wire turns into a double line across the block, and each conditioned
    gate hangs off it with a double-line drop and a ``●`` junction.  When
    ``max_columns`` is given, wider diagrams wrap into stacked sections
    with ``…`` continuation markers.
    """
    builder = _DiagramBuilder(c.qubit_count)
    for el in c.elements:
        if isinstance(el, ConditionedBlock):
            builder.add_block(el)
        else:
            builder.add_gate(el)

    labels = []
    for q in range(c.qubit_count):
        role = c.roles[q] if c.roles is not None else "q"
        name = {"target": "y", "aux": "0"}.get(role, role)
        labels.append(f"{name}_{q}:")
    width = max(map(len, labels), default=0)
    labels = [label.ljust(width + 1) for label in labels]

    columns = builder.columns()
    if not columns:
        return "\n".join(f"{label}──" for label in labels)

    step = max_columns if max_columns is not None and max_columns > 0 else len(columns)
    chunks = [columns[i : i + step] for i in range(0, len(columns), step)]
    sections = []
    for ci, chunk in enumerate(chunks):
        head = "…" if ci > 0 else ""
        tail = "…" if ci + 1 < len(chunks) else ""
        sections.append("\n".join(
            label + head + "".join(row) + tail
            for label, row in zip(labels, zip(*chunk))
        ))
    return "\n\n".join(sections)


def to_qasm(c: Circuit) -> str:
    """Assembly text: declarations, one gate per line, exact angles.

    Rotations appear as a phase gate ``p(<k>*pi/<2**j>)``; adjoint
    rotations are canonicalized to a negated numerator.  A conditioned
    block becomes a ``measure`` into the single classical bit followed by
    an ``if (c[0] == 1) { ... }`` region.
    """
    lines = [f"qubit q[{c.qubit_count}];", "bit c[1];"]
    # Constructions share gate objects, so each distinct one is formatted
    # once; ids are stable while ``c`` holds the gates.
    formatted: dict[int, str] = {}
    cnot_kind, r1_kind = GateKind.CNOT, GateKind.R1

    def gate_line(gate: Gate) -> str:
        line = formatted.get(id(gate))
        if line is not None:
            return line
        kind = gate.kind
        if kind is cnot_kind:
            line = f"cx q[{gate.qubits[0]}],q[{gate.qubits[1]}];"
        elif gate.angle is not None:
            num = gate.angle.numerator if kind is r1_kind else -gate.angle.numerator
            line = f"p({num}*pi/{gate.angle.denominator}) q[{gate.qubits[0]}];"
        else:
            line = f"{kind.value} q[{gate.qubits[0]}];"
        formatted[id(gate)] = line
        return line

    for el in c.elements:
        if isinstance(el, ConditionedBlock):
            lines.append(f"measure q[{el.measured_qubit}] -> c[0];")
            lines.append("if (c[0] == 1) {")
            lines.extend(["  " + gate_line(g) for g in el.body.elements])
            lines.append("}")
        else:
            lines.append(gate_line(el))
    return "\n".join(lines) + "\n"
