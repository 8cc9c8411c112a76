"""Checks made apart from the program.

Each job's output is compared with what the benchmark computes itself from
its own truth table, or with a property the paper's constructions must
have; never with a stored copy of earlier output.  Nothing here imports
the program: circuits are read back from their qasm text, and the other
outputs are read through plain attributes.

Angles are kept as integers in units of ``pi / 2**(n+1)``, the finest
angle the constructions use, and compared modulo ``2*pi``.

The checks, by name:

* ``parse``: the parsed truth table equals the benchmark's own table.
* ``spectrum``: the program's spectrum equals the benchmark's own
  Walsh-Hadamard transform (traced runs, which call ``spectrum``).
* ``phase``: the circuit has the Clifford frame of its target contract,
  and between the frame's gates it is a CNOT+phase circuit whose phase
  polynomial has exactly the terms the paper prescribes.  Every wire
  ends on the parity it started with, auxiliaries on 0.
* ``counts``: qubit and ancilla counts equal the closed forms, the CNOT
  count is at most the closed form of the Gray-code schedule, and the
  program's resource counts equal the benchmark's own tally.
* ``depth``: depth-1 forms with a non-Clifford rotation have rotation
  depth 1, by the program's analysis and by the benchmark's own.
* ``angles``: the multiset of rotation angles in the exported text (qasm
  or diagram) equals the one derived from the benchmark's own spectrum.
* ``verdict``: the verifier's verdict is the known answer.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

# ---------------------------------------------------------------------------
# Reference values computed by the benchmark


def own_walsh_hadamard(bits: np.ndarray) -> np.ndarray:
    """Spectrum ``s_j = sum_k (-1)**(bits[k] + popcount(j & k))``.

    One butterfly per index bit on an n-dimensional view of the table;
    a different algorithm from the program's block loop.
    """
    n = bits.size.bit_length() - 1
    a = (1 - 2 * bits.astype(np.int64)).reshape((2,) * n)
    for axis in range(n):
        lo = np.take(a, 0, axis=axis)
        hi = np.take(a, 1, axis=axis)
        a = np.stack((lo + hi, lo - hi), axis=axis)
    return a.reshape(-1)


def closed_form(kind: str, n: int) -> tuple[int, int, int]:
    """(qubits, ancillas, CNOTs) of the paper's Gray-code and fan-out
    schedules for an n-variable function."""
    contract, profile = kind.split("-")
    if profile == "lowwidth":
        cnot = {"general": (1 << (n + 1)) - 2, "and": 1 << n,
                "anddg": (1 << n) - 2}[contract]
        return n + 1, 0, cnot
    if contract == "general":
        aux = (1 << (n + 1)) - n - 2
        return (1 << (n + 1)) - 1, aux, 4 * aux
    aux = (1 << n) - n - 1
    return 1 << n, aux, 4 * aux + (2 * n if contract == "and" else 0)


def prescribed_phase(kind: str, s: np.ndarray) -> np.ndarray:
    """Per-parity-mask phase totals the construction must realize.

    Masks are over ``(x_1 .. x_n, y)``: bit i-1 is x_i, bit n the target.
    With ``theta_j = s_j * pi / 2**(n+1)`` the general form phases input
    mask k by ``+theta_k`` and mask ``y ^ j`` by ``-theta_j``, plus the
    ``pi/2`` of the frame's S on ``y``; the and form keeps only the
    target terms; the anddg body phases input mask k by ``2*theta_k``.
    Entries are in units of ``pi / 2**(n+1)``.
    """
    size = s.size
    total = np.zeros(2 * size, dtype=np.int64)
    contract = kind.split("-")[0]
    if contract == "general":
        total[1:size] = s[1:]
    if contract in ("general", "and"):
        total[size:] = -s
        total[size] += size
    else:
        total[1:size] = 2 * s[1:]
    return total


def prescribed_angles(kind: str, s: np.ndarray) -> np.ndarray:
    """Sorted rotation angles (units of ``pi / 2**(n+1)``, mod 2*pi) of
    the emitted R1 gates, adjoints negated; zero coefficients emit none."""
    contract = kind.split("-")[0]
    nonzero_inputs = s[1:][s[1:] != 0]
    if contract == "general":
        values = np.concatenate((nonzero_inputs, -s[s != 0]))
    elif contract == "and":
        values = -s[s != 0]
    else:
        values = 2 * nonzero_inputs
    return np.sort(values % (4 * s.size))


# ---------------------------------------------------------------------------
# Reading circuits back from qasm text

_GATE_RE = re.compile(
    r"^ *(cx|h|s|sdg|x|p)(?:\((-?\d+)\*pi/(\d+)\))? q\[(\d+)\](?:,q\[(\d+)\])?;$",
    re.M,
)
_BLOCK_RE = re.compile(
    r"^measure q\[(\d+)\] -> c\[0\];\nif \(c\[0\] == 1\) \{\n(.*?)^\}\n",
    re.M | re.S,
)


class CheckError(Exception):
    """Output that cannot even be read back."""


# One string object per gate name, shared by every parsed gate, so reading
# back a large circuit stays well below the memory the program used for it.
_OPS = {op: op for op in ("cx", "h", "s", "sdg", "x", "p")}


def _read_gates(text: str, start: int, end: int) -> list:
    """Gates of ``text[start:end]``, which must hold nothing else."""
    gates = []
    for m in _GATE_RE.finditer(text, start, end):
        op, num, den, a, b = m.groups()
        gates.append((_OPS[op], int(a), int(b) if b else -1,
                      int(num) if num else 0, int(den) if den else 1))
    if len(gates) != text.count("\n", start, end):
        raise CheckError("qasm has a statement that is not a known gate")
    return gates


def parse_qasm(text: str) -> tuple[int, list]:
    """(qubit count, items).  An item is a gate ``(op, a, b, num, den)``
    or a conditioned block ``("measure", qubit, [gates])``."""
    head = re.match(r"qubit q\[(\d+)\];\nbit c\[1\];\n", text)
    if head is None:
        raise CheckError("qasm header malformed")
    items: list = []
    pos = head.end()
    for block in _BLOCK_RE.finditer(text, pos):
        items += _read_gates(text, pos, block.start())
        items.append(("measure", int(block.group(1)),
                      _read_gates(text, block.start(2), block.end(2))))
        pos = block.end()
    items += _read_gates(text, pos, len(text))
    return int(head.group(1)), items


def _gates(items: list):
    for item in items:
        if item[0] == "measure":
            yield from item[2]
        else:
            yield item


def _non_clifford(num: int, den: int) -> bool:
    return den // math.gcd(num, den) > 2


def tally(items: list) -> dict[str, int]:
    """The benchmark's own resource counts."""
    gates = list(_gates(items))
    ops = Counter(g[0] for g in gates)
    return {
        "gates": len(gates),
        "cnot": ops["cx"],
        "r1_total": ops["p"],
        "r1_non_clifford": sum(_non_clifford(g[3], g[4]) for g in gates if g[0] == "p"),
        "measurements": sum(1 for item in items if item[0] == "measure"),
    }


def own_rotation_depth(qubits: int, items: list) -> int:
    """Longest chain of non-Clifford rotations over shared qubits.  A
    conditioned block first joins its measured qubit with every qubit
    its body touches."""
    depth = [0] * qubits

    def sweep(op, a, b, num, den):
        wires = (a, b) if op == "cx" else (a,)
        d = max(depth[q] for q in wires)
        if op == "p" and _non_clifford(num, den):
            d += 1
        for q in wires:
            depth[q] = d

    for item in items:
        if item[0] == "measure":
            touched = {item[1]}
            for g in item[2]:
                touched.update(q for q in g[1:3] if q >= 0)
            d0 = max(depth[q] for q in touched)
            for q in touched:
                depth[q] = d0
            for g in item[2]:
                sweep(*g)
        else:
            sweep(*item)
    return max(depth, default=0)


def qasm_angles(items: list, n: int) -> np.ndarray:
    unit = 1 << (n + 1)
    values = []
    for op, _, _, num, den in _gates(items):
        if op == "p":
            if unit % den:
                raise CheckError(f"angle {num}pi/{den} is finer than pi/{unit}")
            values.append(num * (unit // den))
    return np.sort(np.array(values, dtype=np.int64) % (2 * unit))


_DIAGRAM_R1_RE = re.compile(r"R1(†?)\((-?)(\d*)(pi)?(?:/(\d+))?\)")


def diagram_angles(text: str, n: int) -> np.ndarray:
    """Rotation angles read from ``R1(...)`` and ``R1†(...)`` cells."""
    unit = 1 << (n + 1)
    values = []
    for dagger, sign, mag, pi, den in _DIAGRAM_R1_RE.findall(text):
        if not pi:
            if mag != "0":
                raise CheckError(f"rotation label without pi: {mag!r}")
            value = 0
        else:
            d = int(den) if den else 1
            if unit % d:
                raise CheckError(f"angle pi/{d} is finer than pi/{unit}")
            value = (int(mag) if mag else 1) * (unit // d)
        if bool(sign) != bool(dagger):
            value = -value
        values.append(value)
    return np.sort(np.array(values, dtype=np.int64) % (2 * unit))


# ---------------------------------------------------------------------------
# The phase-polynomial check


def phase_problems(kind: str, s: np.ndarray, qubits: int, items: list,
                   layout) -> list[str]:
    """Frame and phase-polynomial check of one circuit (see module doc)."""
    n = s.size.bit_length() - 1
    unit = 1 << (n + 1)
    t = layout.target
    contract = kind.split("-")[0]

    def at(item, op):
        return item[0] == op and item[1] == t

    if contract == "general":
        ok = len(items) >= 2 and at(items[0], "h") and at(items[-1], "h")
        region = items[1:-1]
    elif contract == "and":
        ok = (len(items) >= 3 and at(items[0], "h") and at(items[-2], "h")
              and at(items[-1], "s"))
        region = items[1:-2]
    else:
        ok = (len(items) == 2 and at(items[0], "h") and at(items[1], "measure")
              and bool(items[1][2]) and at(items[1][2][-1], "x"))
        region = items[1][2][:-1] if ok else []
    if not ok:
        return [f"{kind}: circuit is not in the {contract} frame"]

    start = [0] * qubits
    for i, q in enumerate(layout.controls):
        start[q] = 1 << i
    start[t] = 1 << n
    mask = list(start)
    totals = [0] * unit
    for item in region:
        op, a, b, num, den = item
        if op == "cx":
            mask[b] ^= mask[a]
        elif op == "p":
            if unit % den:
                return [f"angle {num}pi/{den} is finer than pi/{unit}"]
            totals[mask[a]] += num * (unit // den)
        elif op == "s":
            totals[mask[a]] += unit // 2
        elif op == "sdg":
            totals[mask[a]] -= unit // 2
        else:
            return [f"{op} on qubit {a} inside the phase region"]

    problems = [
        f"wire {q} ends on parity {mask[q]:#x}, started on {start[q]:#x}"
        for q in range(qubits) if mask[q] != start[q]
    ][:3]
    want = prescribed_phase(kind, s) % (2 * unit)
    diff = (np.array(totals, dtype=np.int64) - want) % (2 * unit)
    diff[0] = 0  # a phase on the constant parity is no phase at all
    for m in np.flatnonzero(diff)[:3]:
        problems.append(f"phase on parity {int(m):#x} is {totals[m] % (2 * unit)}"
                        f"pi/{unit}, prescribed {int(want[m])}pi/{unit}")
    return problems


# ---------------------------------------------------------------------------
# All checks of one job


def verdict_outcome(job, report) -> tuple[str | None, str | None]:
    """(problem, failure cause).  Beyond-cap jobs may PASS; UNVERIFIABLE
    on them is a failed operation, not a wrong output."""
    verdict = report.verdict
    if verdict == job.expect:
        return None, None
    if job.beyond_cap and verdict == "UNVERIFIABLE":
        return None, f"UNVERIFIABLE: {report.counterexample}"
    return f"verdict {verdict}, known answer {job.expect}", None


def check_job(job, s: np.ndarray, out) -> tuple[list[tuple[str, str]], str | None,
                                                 dict[str, int]]:
    """Run every check that applies to one job.

    ``out`` carries what the job produced: ``table`` (or None),
    ``coefficients`` (or None), ``layout``, ``metrics``, ``qasm`` (the
    circuit's qasm text), ``diagram`` (or None) and ``report`` (or None).
    Returns (problems as (check, message) pairs, failure cause, tallies).
    """
    problems: list[tuple[str, str]] = []
    n = job.n

    def add(check, messages):
        problems.extend((check, f"{job.kind} n={n}: {msg}") for msg in messages)

    if out.table is not None and not np.array_equal(
            np.asarray(out.table.bits, dtype=np.uint8), job.bits):
        add("parse", ["parsed truth table differs from the benchmark's own"])
    if out.coefficients is not None and not np.array_equal(
            np.asarray(out.coefficients, dtype=np.int64), s):
        add("spectrum", ["spectrum differs from the benchmark's own transform"])

    try:
        qubits, items = parse_qasm(out.qasm)
    except CheckError as err:
        add("phase", [str(err)])
        return problems, None, {}

    phase = phase_problems(job.kind, s, qubits, items, out.layout)
    if job.mutate is not None:
        phase = [] if phase else ["sign-flip mutant passes the phase check"]
    add("phase", phase)

    counts = tally(items)
    cf_qubits, cf_aux, cf_cnot = closed_form(job.kind, n)
    m = out.metrics
    count_problems = [
        f"{name} is {got}, expected {want}"
        for name, got, want in (
            ("qubits", qubits, cf_qubits),
            ("metrics qubits", m["qubits"], cf_qubits),
            ("metrics ancillas", m["ancillas"], cf_aux),
            ("auxiliary wires", len(out.layout.aux), cf_aux),
            ("metrics cnot", m["cnot"], counts["cnot"]),
            ("metrics r1_total", m["r1_total"], counts["r1_total"]),
            ("metrics r1_non_clifford", m["r1_non_clifford"],
             counts["r1_non_clifford"]),
            ("metrics measurements", m["measurements"], counts["measurements"]),
            ("measurements", counts["measurements"],
             int(job.kind.startswith("anddg"))),
        )
        if got != want
    ]
    if counts["cnot"] > cf_cnot:
        count_problems.append(f"{counts['cnot']} CNOTs, closed form {cf_cnot}")
    add("counts", count_problems)

    if job.kind.endswith("depth1") and counts["r1_non_clifford"]:
        own = own_rotation_depth(qubits, items)
        add("depth", [f"{who} rotation depth is {d}, expected 1"
                      for who, d in (("program", m["rotation_depth"]),
                                     ("own", own)) if d != 1])

    if job.export is not None:
        try:
            if job.export == "qasm":
                got = qasm_angles(items, n)
            else:
                got = diagram_angles(out.diagram, n)
                rows = out.diagram.count("\n") + 1
                if rows != qubits:
                    add("angles", [f"diagram has {rows} rows for {qubits} qubits"])
        except CheckError as err:
            add("angles", [str(err)])
        else:
            if not np.array_equal(got, prescribed_angles(job.kind, s)):
                add("angles", [f"{job.export} rotation angles differ from "
                               "those of the benchmark's own spectrum"])

    failure = None
    if job.verify_seed is not None:
        problem, failure = verdict_outcome(job, out.report)
        add("verdict", [problem] if problem else [])
    return problems, failure, counts
