"""Golden bytes of the verification report.

``verify_golden.json`` holds one sha256 over ``report.to_json()`` per
group of cases: every function at n <= 3 and its negated-rotation mutants
at n <= 2, seeded random tables at n = 4..8 with a few mutants each, per
construction; and one per hand-built circuit (S and Sdg, idle Hadamards,
rows wider than 64 wires, rotations down to and past ``pi / 2**62``, and
the work bound).  It pins verdicts, counterexample texts, infidelities and
counters byte for byte, so a rewrite of the verifier must reproduce the
old reports exactly.  Print the table for the current code with
``PYTHONPATH=src python tests/test_verify_golden.py``; replace the
committed file only for an intended change of a report.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from fcnot.boolfn import TruthTable
from fcnot.circuit import Circuit, ConditionedBlock, Gate, h, r1, r1dg, s, sdg, x
from fcnot.sim import verify
from fcnot.synth import ConstructionKind, Layout, SynthesisResult, synthesize

FIXTURE = Path(__file__).with_name("verify_golden.json")

EXHAUSTIVE_N = (1, 2, 3)
MUTATED_N = (1, 2)
SEEDED_N = (4, 5, 6, 7, 8)
SEEDED_TABLES = 2
SEEDED_MUTANTS = 4


def tables(n: int) -> list[TruthTable]:
    if n in EXHAUSTIVE_N:
        return [TruthTable.from_value(n, v) for v in range(1 << (1 << n))]
    rng = np.random.default_rng([1105, n])
    return [TruthTable(n, tuple(rng.integers(0, 2, size=1 << n).tolist()))
            for _ in range(SEEDED_TABLES)]


def _negate(elements: tuple, i: int) -> tuple:
    g = elements[i]
    return elements[:i] + (Gate(g.kind, g.qubits, -g.angle),) + elements[i + 1:]


def mutants(result: SynthesisResult) -> list[SynthesisResult]:
    """Every variant of the result with one rotation's angle negated,
    block bodies included, in circuit order."""
    c = result.circuit
    out = []
    for i, el in enumerate(c.elements):
        if isinstance(el, ConditionedBlock):
            body = el.body.elements
            for j, g in enumerate(body):
                if g.is_rotation():
                    block = ConditionedBlock(el.measured_qubit,
                                             Circuit(el.body.qubit_count, _negate(body, j)))
                    elements = c.elements[:i] + (block,) + c.elements[i + 1:]
                    out.append(Circuit(c.qubit_count, elements, c.roles))
        elif el.is_rotation():
            out.append(Circuit(c.qubit_count, _negate(c.elements, i), c.roles))
    return [dataclasses.replace(result, circuit=m) for m in out]


def _some(items: list, count: int) -> list:
    """``count`` items spread evenly over the list, first and last included."""
    if len(items) <= count:
        return items
    return [items[i] for i in np.linspace(0, len(items) - 1, count).round().astype(int)]


def _with(result: SynthesisResult, elements: tuple, layout: Layout | None = None,
          qubits: int | None = None) -> SynthesisResult:
    layout = layout or result.layout
    qubits = qubits or result.circuit.qubit_count
    return SynthesisResult(result.kind, Circuit(qubits, elements, layout.roles(qubits)), layout)


def _in_block(result: SynthesisResult, *extra) -> SynthesisResult:
    """The result with ``extra`` gates appended to its last block's body."""
    c = result.circuit
    i = max(i for i, el in enumerate(c.elements) if isinstance(el, ConditionedBlock))
    block = c.elements[i]
    body = Circuit(block.body.qubit_count, block.body.elements + extra)
    elements = c.elements[:i] + (ConditionedBlock(block.measured_qubit, body),) + c.elements[i + 1:]
    return _with(result, elements)


def hand_built() -> dict[str, tuple[SynthesisResult, TruthTable]]:
    and2 = TruthTable.from_value(2, 0b1000)
    low = synthesize(and2, ConstructionKind.GENERAL_LOW_WIDTH)
    body = low.circuit.elements
    blocked = synthesize(and2, ConstructionKind.ANDDG_LOW_WIDTH)
    angles = [Fraction(1, 1 << d) for d in (20, 40, 62, 63, 70)]

    # 70 and 200 wires: X on idle auxiliaries around the circuit keeps them
    # live between the Hadamards
    wide = {}
    for wires in (70, 200):
        layout = Layout((0, 1), 2, tuple(range(3, wires)))
        flips = tuple(x(q) for q in layout.aux)
        wide[wires] = _with(low, flips + body[:1] + flips + body[1:-1] + flips + body[-1:]
                            + flips, layout, wires)
    idle = Layout((0, 1), 2, (3, 4))
    over = Layout((0, 1), 2, tuple(range(3, 43)))

    cases = {
        "s-sdg": _with(low, body + (s(0), sdg(0))),
        "sdg-control": _with(low, body + (sdg(1),)),
        "sdg-target": _with(low, (sdg(2),) + body),
        "sdg-block": _in_block(blocked, sdg(0)),
        "s-sdg-block": _in_block(blocked, s(1), sdg(1)),
        "idle-h": _with(low, body + (h(3),), idle, 5),
        "idle-h-h": _with(low, (h(3),) + body + (h(3),), idle, 5),
        "idle-h-x": _with(low, (h(4), x(4)) + body + (h(4),), idle, 5),
        "over-bound": _with(low, tuple(h(q) for q in over.aux) + body, over, 43),
        "fine-before-bound": _with(low, (r1(angles[-1], 0),) + tuple(h(q) for q in over.aux)
                                   + body, over, 43),
        "wide-70": wide[70],
        "wide-200": wide[200],
    }
    for wires, result in wide.items():
        for m, mutant in enumerate(_some(mutants(result), 3)):
            cases[f"wide-{wires}-mutant-{m}"] = mutant
    for a in angles:
        d = a.denominator.bit_length() - 1
        cases[f"r1-2^{d}-control"] = _with(low, body + (r1(a, 0),))
        cases[f"r1-r1dg-2^{d}"] = _with(low, body + (r1(3 * a, 1), r1dg(3 * a, 1)))
        cases[f"r1dg-2^{d}-negative"] = _with(low, body + (r1dg(-5 * a, 1),))
        cases[f"x-r1-x-2^{d}"] = _with(low, (x(3), r1(a, 3), x(3)) + body, idle, 5)
        cases[f"r1-2^{d}-block"] = _in_block(blocked, r1(a, 0))
        cases[f"r1-2^{d}-wide"] = _with(wide[70], wide[70].circuit.elements + (r1(a, 0),),
                                        wide[70].layout, 70)
    return {name: (result, and2) for name, result in cases.items()}


def digests() -> dict[str, str]:
    out = {}
    for n in EXHAUSTIVE_N + SEEDED_N:
        fs = tables(n)
        for kind in ConstructionKind:
            digest = hashlib.sha256()
            mutated = hashlib.sha256()
            for f in fs:
                result = synthesize(f, kind)
                digest.update(verify(result, f).to_json().encode())
                if n in MUTATED_N:
                    chosen = mutants(result)
                elif n in SEEDED_N:
                    chosen = _some(mutants(result), SEEDED_MUTANTS)
                else:
                    continue
                for mutant in chosen:
                    mutated.update(verify(mutant, f, seed=n).to_json().encode())
            out[f"{kind.value} n={n}"] = digest.hexdigest()
            if n in MUTATED_N + SEEDED_N:
                out[f"{kind.value} n={n} mutants"] = mutated.hexdigest()
    for name, (result, f) in hand_built().items():
        out[f"hand/{name}"] = hashlib.sha256(verify(result, f).to_json().encode()).hexdigest()
    return out


def test_verify_reports_match_golden():
    want = json.loads(FIXTURE.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
