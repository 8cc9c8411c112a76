"""Serialization of circuits to a column diagram and to assembly text.

Both outputs are deterministic: the same circuit always serializes to the
same bytes, and every rotation angle appears as an exact integer-over-
power-of-two multiple of pi, never as a floating-point literal.

Both are linear in their output size.  The diagram places each gate with one
loop, then paints a grid of code points in a fixed number of numpy steps.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np

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


_SYMBOLS = {GateKind.H: "H", GateKind.S: "S", GateKind.SDG: "S†", GateKind.X: "X",
            GateKind.R1: "R1", GateKind.R1DG: "R1†"}


def _gate_cells(gate: Gate) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The rows and the texts of a gate's cells."""
    if gate.kind is GateKind.CNOT:
        return gate.qubits, ("●", "⊕")
    angle = "" if gate.angle is None else f"({format_pi_multiple(gate.angle)})"
    return gate.qubits, (_SYMBOLS[gate.kind] + angle,)


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
        # A measurement's cell is one character wide.
        width = 1 if gate is None else max(map(len, _gate_cells(gate)[1]))
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


def _runs(starts: np.ndarray, counts: np.ndarray, step: int = 1) -> np.ndarray:
    """The ranges ``starts[i] + step * arange(counts[i])``, concatenated."""
    out = (starts - step * (counts.cumsum() - counts)).repeat(counts)
    out += np.arange(0, step * len(out), step)
    return out


def to_text_diagram(c: Circuit, max_columns: int | None = None) -> str:
    """Render one labeled row per qubit with gates in ASAP columns.

    Conditioned blocks show the measurement as ``M``; the measured qubit's
    wire turns into a double line across the block, and each conditioned
    gate hangs off it with a double-line drop and a ``●`` junction.  When
    ``max_columns`` is given, wider diagrams wrap into stacked sections
    with ``…`` continuation markers.
    """
    rows = c.qubit_count
    # Each distinct shape (a gate, a measurement, or a gate hanging off a
    # measured row) once: its row span; in ``table`` its connector's first
    # row, length and character, the row it hangs off (or -1), and its cells'
    # rows and text lengths; in ``texts`` the texts.  Cells are padded to three.
    spans, table, texts, known = [], [], [], {}

    def shape(cell_rows: tuple[int, ...], cell_texts: tuple[str, ...], link: str = "│",
              on: int = -1) -> int:
        lo, hi = min(cell_rows), max(cell_rows)
        spans.append((lo, hi + 1))
        pad = (0,) * (3 - len(cell_rows))
        table.extend((lo + 1, max(hi - lo - 1, 0), ord(link), on, *cell_rows, *pad,
                      *map(len, cell_texts), *pad))
        texts.extend(cell_texts)
        return len(spans) - 1

    def hanging(gate: Gate, q: int) -> int:
        if (id(gate), q) not in known:
            cell_rows, cell_texts = _gate_cells(gate)
            known[id(gate), q] = (shape(cell_rows, cell_texts, on=q) if q in cell_rows
                                  else shape((*cell_rows, q), (*cell_texts, "●"), "║", q))
        return known[id(gate), q]

    # Elements are shared, so each is described once, as the shapes it places.
    for key, el in dict(zip(map(id, c.elements), c.elements)).items():
        if isinstance(el, ConditionedBlock):
            q = el.measured_qubit
            known[key] = (shape((q,), ("M",)), *[hanging(g, q) for g in el.body.elements])
        else:
            known[key] = (shape(*_gate_cells(el)),)
    placed = list(chain.from_iterable(map(known.__getitem__, map(id, c.elements))))
    # Placement: each shape takes the first column free on its row span.
    occupied, columns = [-1] * rows, []
    for lo, hi in map(spans.__getitem__, placed):
        column = 1 + max(occupied[lo:hi])
        occupied[lo:hi] = [column] * (hi - lo)
        columns.append(column)

    # Painting: every column is as wide as its widest cell plus two.
    col = np.array(columns, np.intp)
    k = np.array(placed, np.intp)
    shapes = np.array(table, np.intp).reshape(-1, 10)
    text_at = (shapes[:, 7:].cumsum().reshape(-1, 3) - shapes[:, 7:])[k]
    link_lo, link_n, link_char, on = (placement := shapes[k])[:, :4].T
    cell_row, cell_len = placement[:, 4:7], placement[:, 7:]
    width = np.full(1 + max(columns, default=0), 2, np.intp)
    np.maximum.at(width, col, cell_len.max(1) + 2)
    xs = np.concatenate(([0], width.cumsum()))
    stride = int(xs[-1])
    labels = [f"{ {'target': 'y', 'aux': '0'}.get(role, role)}_{q}:"
              for q, role in enumerate(c.roles or ("q",) * rows)]
    label_width = max(map(len, labels), default=0) + 1
    label_text = "".join(label.ljust(label_width) for label in labels)
    # Roles are ASCII, so every character drawn is one UTF-16 code unit.
    dtype, codec = np.uint16, "utf-16-le"
    grid = np.full(rows * stride, ord("─"), dtype)
    # A text of length m starts at x + (width - m) // 2 = (anchor - m) // 2.
    anchor = 2 * xs[col] + width[col]
    grid[_runs(link_lo * stride + ((anchor - 1) >> 1), link_n, stride)] = link_char.repeat(link_n)
    # A gate hanging off a row draws its double line from the column after
    # the previous shape of its block (or the measurement) to its own.
    hang = np.flatnonzero(on >= 0)
    if len(hang):
        x0, x1 = xs[col[hang - 1] + 1], xs[col[hang] + 1]
        grid[_runs(on[hang] * stride + x0, x1 - x0)] = ord("═")
    # Then the cells, over any double line: a cell's text moves by ``shift``.
    shift = (cell_row * stride + ((anchor[:, None] - cell_len) >> 1) - text_at).ravel()
    at = _runs(text_at.ravel(), cell_len := cell_len.ravel())
    grid[at + shift.repeat(cell_len)] = np.frombuffer("".join(texts).encode(codec), dtype)[at]
    del placement, link_lo, link_n, link_char, on, cell_row, cell_len, text_at, anchor, shift, at

    # The output: per section of at most ``max_columns`` columns, a line per
    # row (label, ``…`` where it continues, gates), and a blank line between.
    step = max_columns if max_columns is not None and max_columns > 0 else len(width)
    cuts = xs[list(range(0, len(width), step)) + [len(width)]].tolist()
    last = len(cuts) - 2
    out = np.full(rows * ((last + 1) * (label_width + 1) + 2 * last + stride) + last,
                  ord("\n"), dtype)
    label_codes = np.frombuffer(label_text.encode(codec), dtype).reshape(rows, label_width)
    pos = 0
    for s, (x0, x1) in enumerate(zip(cuts, cuts[1:])):
        head = label_width + (s > 0)
        tail = head + x1 - x0
        length = tail + (s < last) + 1
        section = out[pos : pos + rows * length].reshape(rows, length)
        section[:, :label_width] = label_codes
        section[:, label_width:head] = section[:, tail:-1] = ord("…")
        section[:, head:tail] = grid.reshape(rows, stride)[:, x0:x1]
        pos += rows * length + 1
    del grid
    return str(memoryview(out[:-1]), codec)


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
