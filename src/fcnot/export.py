"""Serialization of circuits to a column diagram and to assembly text.

Both outputs are deterministic: the same circuit always serializes to the
same bytes, and every rotation angle appears as an exact integer-over-
power-of-two multiple of pi, never as a floating-point literal.

Both are linear in their output size.  The diagram describes each distinct
shape (a gate, a measurement, or a gate hanging off a measured row) once,
with numpy over all of them; places the shapes in ASAP columns run by run,
a run being shapes that each share a row with the one before; and paints
one grid of code points in a fixed number of numpy steps.  Run placement is
exact because once a shape of a run reaches the highest column, the next
shares a row with it and so opens the next column: only the shapes before
that, and the rows the run leaves behind, are placed one at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from operator import attrgetter, itemgetter

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

#: The texts of a target and of a junction, in front of every shape's first
#: cell's text.
_POOL = "⊕●"

#: Row label prefixes other than the role itself.
_ROLE_NAMES = {"target": "y", "aux": "0"}


def _label(gate: Gate) -> str:
    """The text of a one-qubit gate's cell."""
    if gate.angle is None:
        return _SYMBOLS[gate.kind]
    return f"{_SYMBOLS[gate.kind]}({format_pi_multiple(gate.angle)})"


def _shapes(c: Circuit) -> tuple[np.ndarray, np.ndarray, str]:
    """Each distinct shape of ``c`` once, and the shape at every position.

    A shape is a gate, a measurement, or a gate hanging off a measured row:
    each of ``c.distinct`` (a block as its measurement), then each of a
    distinct block's ``body.distinct``.  Returns ``placed``, the shapes in
    drawing order; ``table``, one column per shape: its row span ``lo, hi``,
    1 if it hangs off a measured row (row j) else 0, then its three cells'
    rows, text lengths and text offsets into ``pool``; and ``pool``.  The
    cells are a (a control, or the one cell), b (a target, or a again) and j
    (the row the shape hangs off, or a again), drawn as a junction only where
    the gate misses that row; a cell of text length 0 is not drawn.  The
    first cell is the widest, and the cells' rows include both ends of the
    span.
    """
    placed = c.order
    cnot, first = GateKind.CNOT, len(c.distinct)
    cells = [(el.measured_qubit,) if isinstance(el, ConditionedBlock) else el.qubits
             for el in c.distinct]
    texts = ["M" if isinstance(el, ConditionedBlock) else "●" if el.kind is cnot
             else _label(el) for el in c.distinct]
    on, junction, bodies = [], [], {}
    for shape, block in enumerate(c.distinct):
        if not isinstance(block, ConditionedBlock):
            continue
        q, gates = block.measured_qubit, block.body.distinct
        bodies[shape] = (block.body.order + len(cells)).tolist()
        cells += map(attrgetter("qubits"), gates)
        texts += ["●" if g.kind is cnot else _label(g) for g in gates]
        on += [q] * len(gates)
        junction += [q not in g.qubits for g in gates]
    if bodies:
        # Each block's body follows its measurement.
        placed = np.fromiter(chain.from_iterable(
            (shape, *bodies.get(shape, ())) for shape in placed.tolist()), np.intp)
    count = len(cells)
    table = np.zeros((12, count), np.intp)
    lo, hi, a, b, j = table[0], table[1], table[3], table[4], table[5]
    table[3:5] = np.fromiter(chain.from_iterable(map(itemgetter(0, -1), cells)), np.intp,
                             2 * count).reshape(count, 2).T
    j[:first] = a[:first]
    j[first:] = on
    table[2, first:] = 1
    np.minimum(np.minimum(a, b), j, out=lo)
    np.maximum(np.maximum(a, b), j, out=hi)
    hi += 1
    table[7] = a != b
    table[8, first:] = junction
    offsets = np.fromiter(accumulate(map(len, texts), initial=len(_POOL)), np.intp, count + 1)
    np.subtract(offsets[1:], offsets[:-1], out=table[6])
    table[9] = offsets[:-1]
    table[10], table[11] = _POOL.index("⊕"), _POOL.index("●")
    return placed, table, _POOL + "".join(texts)


def diagram_bytes_floor(c: Circuit) -> int:
    """A lower bound on the UTF-8 size of ``to_text_diagram(c)``, found in
    time linear in the gate count without drawing anything.

    Placement gives each shape whose row span covers a row a column of its
    own, at least as wide as the shape's widest cell plus two.  Each column
    puts its width in characters on every row, two of them 3-byte
    box-drawing characters, so each row takes at least the sum, over the
    shapes covering it, of (widest cell + 6) bytes.
    """
    placed, table, _ = _shapes(c)
    # Sums of weights are float64, exact far beyond any drawable size.
    weight = (table[6] + 6) * np.bincount(placed, minlength=table.shape[1])
    cover = (np.bincount(table[0], weight, c.qubit_count + 1)
             - np.bincount(table[1], weight, c.qubit_count + 1))
    return c.qubit_count * int(cover.cumsum().max())


def _runs(starts: np.ndarray, counts: np.ndarray, step: int = 1) -> np.ndarray:
    """The ranges ``starts[i] + step * arange(counts[i])``, concatenated."""
    offsets = np.add.accumulate(counts) - counts
    out = (starts - (offsets if step == 1 else step * offsets)).repeat(counts)
    out += np.arange(0, step * len(out), step)
    return out


def _columns(lo: np.ndarray, hi: np.ndarray, rows: int) -> tuple[np.ndarray, int]:
    """The ASAP column of each shape in turn, one past the highest column
    taken on its rows ``lo[i]:hi[i]`` by the shapes before it, and the
    number of columns (at least one).

    Shapes are placed run by run, a run being shapes that each share a row
    with the one before.  Once a shape of a run reaches the highest column
    so far, every later shape of the run shares a row with a shape at the
    highest column, so it opens the next one: the rest of the run takes
    consecutive columns.
    """
    occupied, columns, top = [-1] * rows, [0] * len(lo), -1
    cuts = (((lo[1:] >= hi[:-1]) | (hi[1:] <= lo[:-1])).nonzero()[0] + 1).tolist()
    lo, hi = lo.tolist(), hi.tolist()
    for start, end in zip([0, *cuts], [*cuts, len(lo)]):
        for i in range(start, end):
            a, b = lo[i], hi[i]
            column = columns[i] = 1 + max(occupied[a:b])
            occupied[a:b] = [column] * (b - a)
            if column >= top:
                break
        else:
            continue
        top = column + end - 1 - i
        if top == column:
            continue
        columns[i + 1 : end] = range(column + 1, top + 1)
        # The rest of the run covers contiguous rows, each left at the column
        # of the last shape covering it: scan back until all are covered.
        need_lo, need_hi = min(lo[i + 1 : end]), max(hi[i + 1 : end])
        a = b = lo[end - 1]
        for j in range(end - 1, i, -1):
            if lo[j] < a:
                occupied[lo[j] : a] = [columns[j]] * (a - lo[j])
                a = lo[j]
            if hi[j] > b:
                occupied[b : hi[j]] = [columns[j]] * (hi[j] - b)
                b = hi[j]
            if a == need_lo and b == need_hi:
                break
    return np.array(columns, np.intp), max(top, 0) + 1


def to_text_diagram(c: Circuit, max_columns: int | None = None) -> str:
    """Render one labeled row per qubit with gates in ASAP columns.

    Conditioned blocks show the measurement as ``M``; the measured qubit's
    wire turns into a double line across the block, and each conditioned
    gate hangs off it with a double-line drop and a ``●`` junction.  When
    ``max_columns`` is given, wider diagrams wrap into stacked sections
    with ``…`` continuation markers.
    """
    rows = c.qubit_count
    k, table, pool = _shapes(c)
    lo, hi, hanging = (placement := table.take(k, 1))[:3]
    col, count = _columns(lo, hi, rows)

    # Painting: every column is as wide as its widest cell plus two.
    cell_row, cell_len, text_at = placement[3:6], placement[6:9], placement[9:]
    widest = np.zeros(count, np.intp)
    np.maximum.at(widest, col, cell_len[0])
    labels = [f"{_ROLE_NAMES.get(role, role)}_{q}:"
              for q, role in enumerate(c.roles or ("q",) * rows)]
    label_width = max(map(len, labels), default=0) + 1
    label_text = "".join(label.ljust(label_width) for label in labels)
    # The grid holds the unwrapped text, one line per row: the label, the
    # columns from x = xs[0] on, and a newline.
    xs = np.arange(label_width, label_width + 2 * count + 1, 2)
    xs[1:] += np.add.accumulate(widest)
    stride = int(xs[-1]) + 1
    # Roles are ASCII, so every character drawn is one UTF-16 code unit.
    dtype, codec = np.uint16, "utf-16-le"
    codes = np.frombuffer(pool.encode(codec), dtype)
    grid = np.empty(rows * stride, dtype)
    grid.fill(ord("─"))
    # In a column from x to x', a text of length m starts at
    # x + (x' - x - m) // 2 = (anchor - m) // 2.
    anchor = (xs[:-1] + xs[1:]).take(col)
    # A link runs down the shape's whole span; its cells, drawn over it
    # later, cover both ends.
    link = lo * stride + ((anchor - 1) >> 1)
    grid[_runs(link, hi - lo, stride)] = ord("│")
    hang = hanging.nonzero()[0]
    if len(hang):
        # A gate missing the row it hangs off links to it with ``║``, and
        # every hanging gate draws its double line from the column after the
        # previous shape of its block (or the measurement) to its own.
        junction = hang[cell_len[2, hang] > 0]
        grid[_runs(link[junction], hi[junction] - lo[junction], stride)] = ord("║")
        x0, x1 = xs[col[hang - 1] + 1], xs[col[hang] + 1]
        grid[_runs(cell_row[2, hang] * stride + x0, x1 - x0)] = ord("═")
    # Then the cells, over any double line: a cell's text moves by ``shift``.
    shift = (cell_row * stride + ((anchor - cell_len) >> 1) - text_at).ravel()
    at = _runs(text_at.ravel(), cell_len := cell_len.ravel())
    grid[at + shift.repeat(cell_len)] = codes.take(at)
    del placement, lo, hi, hanging, link, cell_row, cell_len, text_at, anchor, shift, at
    lines = grid.reshape(rows, stride)
    lines[:, :label_width] = np.frombuffer(label_text.encode(codec), dtype).reshape(
        rows, label_width)
    lines[:, -1] = ord("\n")

    # Wrapped, per section of at most ``max_columns`` columns, a line per row
    # (label, ``…`` where it continues, columns), and a blank line between.
    step = max_columns if max_columns is not None and max_columns > 0 else count
    cuts = [*xs[:-1:step].tolist(), stride - 1]
    last = len(cuts) - 2
    if last == 0:
        return str(memoryview(grid[:-1]), codec)  # unwrapped, the grid is the text
    out = np.empty(rows * ((last + 1) * (label_width + 1) + 2 * last + stride - label_width - 1)
                   + last, dtype)
    out.fill(ord("\n"))
    pos = 0
    for s, (x0, x1) in enumerate(zip(cuts, cuts[1:])):
        head = label_width + (s > 0)
        tail = head + x1 - x0
        length = tail + (s < last) + 1
        section = out[pos : pos + rows * length].reshape(rows, length)
        section[:, :label_width] = lines[:, :label_width]
        section[:, label_width:head] = section[:, tail:-1] = ord("…")
        section[:, head:tail] = lines[:, x0:x1]
        pos += rows * length + 1
    del grid, lines
    return str(memoryview(out[:-1]), codec)


def to_qasm(c: Circuit) -> str:
    """Assembly text: declarations, one gate per line, exact angles.

    Rotations appear as a phase gate ``p(<k>*pi/<2**j>)``; adjoint
    rotations are canonicalized to a negated numerator.  A conditioned
    block becomes a ``measure`` into the single classical bit followed by
    an ``if (c[0] == 1) { ... }`` region.  Each distinct element of the
    circuit (and of a block's body) is formatted once, and the texts are
    joined in circuit order.
    """
    return f"qubit q[{c.qubit_count}];\nbit c[1];\n{_qasm_lines(c, '')}"


def _qasm_lines(c: Circuit, indent: str) -> str:
    """The lines of ``c``'s elements, each after ``indent`` and ending in a
    newline."""
    texts = []
    for el in c.distinct:
        if isinstance(el, ConditionedBlock):
            texts.append(f"measure q[{el.measured_qubit}] -> c[0];\nif (c[0] == 1) {{\n"
                         f"{_qasm_lines(el.body, '  ')}}}\n")
            continue
        kind = el.kind
        if kind is GateKind.CNOT:
            line = f"cx q[{el.qubits[0]}],q[{el.qubits[1]}];"
        elif el.angle is not None:
            num = el.angle.numerator if kind is GateKind.R1 else -el.angle.numerator
            line = f"p({num}*pi/{el.angle.denominator}) q[{el.qubits[0]}];"
        else:
            line = f"{kind.value} q[{el.qubits[0]}];"
        texts.append(f"{indent}{line}\n")
    return "".join(map(texts.__getitem__, c.order.tolist()))
