"""Golden bytes of the text diagram.

``diagram_golden.json`` holds the sha256 of ``to_text_diagram(c,
max_columns=m)`` for every case below and every ``m`` in ``MAX_COLUMNS``.
It pins the diagram byte for byte, so a renderer rewrite must reproduce
the old output exactly.  Print the table for the current renderer with
``PYTHONPATH=src python tests/test_export_golden.py``; replace the
committed file only for an intended change of the picture.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fcnot.boolfn import TruthTable, parse_function
from fcnot.circuit import (Circuit, ConditionedBlock, GateKind, cnot, h, merge_s_gate,
                           r1, r1dg, s, sdg, x)
from fcnot.export import to_text_diagram
from fcnot.synth import ConstructionKind, synthesize

FIXTURE = Path(__file__).with_name("diagram_golden.json")

MAX_COLUMNS = (None, 4, 80)

#: Sparse expressions at n = 5, 6, 7, compiled with every construction.
SPARSE = ("(x1 & x3) ^ x5", "(x2 | ~x4 | x6) ^ x1",
          "(x1 & x2 | x1 & ~x7 | x2 & x7) ^ x4")

#: Compiled with anddg-lowwidth, its conditioned block runs past column 4.
WRAPPED_BLOCK = "anddg-lowwidth/0x8:2"

#: One construction per case: anddg-lowwidth at n = 8 hangs one long body
#: off the measured row; general-depth1 at n = 4 places many runs of one
#: shape each (a run being shapes that each share a row with the one before).
LONG_RUNS = (("anddg-lowwidth", 8), ("general-depth1", 4))


def _seeded_table(n: int) -> TruthTable:
    bits = np.random.default_rng([20201, n]).integers(0, 2, size=1 << n)
    return TruthTable(n, tuple(int(b) for b in bits))


def _hand_built() -> dict[str, Circuit]:
    """Shapes the constructions do not emit: no roles, a conditioned gate
    on the measured wire itself, a drop crossing the measured wire, a gap
    in a block's columns, an empty block and an empty circuit; a gate that
    opens a new column without sharing a row with the gate before it, and
    runs of overlapping gates, one of them a block, that start below the
    highest column and climb past it."""
    body = Circuit(5, (
        cnot(4, 0),                  # spans the measured wire 2
        r1(Fraction(1, 4), 2),       # on the measured wire
        x(0),                        # leaves a gap on wire 2 before the next
        cnot(0, 1), cnot(1, 0),
        sdg(4),
        r1dg(Fraction(3, 8), 3),
    ))
    gates = Circuit(5, (
        h(2), s(1), x(4),
        ConditionedBlock(2, body),
        cnot(3, 1), r1(Fraction(-1, 2), 0), h(2),
        ConditionedBlock(0, Circuit(5)),
        cnot(0, 4),
    ))
    return {
        "hand/no-roles": gates,
        "hand/roles": Circuit(5, gates.elements, ("x1", "x2", "target", "aux", "aux")),
        "hand/empty": Circuit(3, roles=("x1", "x2", "target")),
        "hand/frontier-jump": Circuit(3, (h(0), h(0), h(2), cnot(0, 1), h(1), x(2))),
        "hand/climb": Circuit(6, (
            h(0), h(0), h(0),
            x(5), cnot(5, 4), cnot(4, 3), cnot(3, 2), cnot(2, 1), cnot(1, 0), cnot(0, 2), h(1),
            ConditionedBlock(3, Circuit(6, (cnot(4, 3), x(0), x(5), s(3)))),
            h(4), cnot(1, 2),
        )),
    }


#: Gate constructors, one per kind.
KINDS = (h, s, sdg, x, cnot, r1, r1dg)


def _random_gate(rng: np.random.Generator, wires: list[int]):
    make = KINDS[rng.integers(len(KINDS))]
    if make is cnot:
        control, target = rng.choice(wires, 2, replace=False)
        return cnot(int(control), int(target))
    q = int(rng.choice(wires))
    if make is r1 or make is r1dg:
        return make(Fraction(int(rng.integers(-9, 10)), 1 << int(rng.integers(4))), q)
    return make(q)


def _random_block(rng: np.random.Generator, n: int, wires: list[int]) -> ConditionedBlock:
    body = [_random_gate(rng, wires) for _ in range(rng.integers(0, 7))]
    return ConditionedBlock(int(rng.choice(wires)), Circuit(n, tuple(body)))


def _random_circuit(seed: int) -> Circuit:
    """Random gates of every kind, blocks (some empty, some with drops
    crossing the measured wire), pairs of blocks on disjoint halves of the
    wires that share columns, and repeated element objects; roles are
    ``None`` at even seeds."""
    rng = np.random.default_rng([20209, seed])
    n = int(rng.integers(4, 9))
    wires = list(range(n))
    halves = wires[: n // 2], wires[n // 2 :]
    elements = []
    for _ in range(rng.integers(12, 30)):
        roll = rng.random()
        if roll < 0.1 and elements:
            elements.append(elements[rng.integers(len(elements))])
        elif roll < 0.2:
            elements.append(_random_block(rng, n, wires))
        elif roll < 0.27:
            elements.extend(_random_block(rng, n, half) for half in halves)
        else:
            elements.append(_random_gate(rng, wires))
    roles = None if seed % 2 == 0 else tuple(
        str(rng.choice(("target", "aux", f"x{q + 1}", f"x{q + 10}"))) for q in wires)
    return Circuit(n, tuple(elements), roles)


def cases() -> dict[str, Circuit]:
    out = {}
    for n in (2, 3, 4):
        f = _seeded_table(n)
        for kind in ConstructionKind:
            out[f"{kind.value}/seeded-n{n}"] = synthesize(f, kind).circuit
    for text in SPARSE:
        f = parse_function(text)
        for kind in ConstructionKind:
            out[f"{kind.value}/{text}"] = synthesize(f, kind).circuit
    f = parse_function("0x8:2")
    for kind in ConstructionKind:
        out[f"{kind.value}/0x8:2"] = synthesize(f, kind).circuit
    for kind, n in LONG_RUNS:
        out[f"{kind}/(x1 & x2 & ~x3) ^ x{n}"] = synthesize(
            parse_function(f"(x1 & x2 & ~x3) ^ x{n}"), ConstructionKind(kind)).circuit
    out["merged/general-lowwidth/0xb6:3"] = merge_s_gate(
        synthesize(parse_function("0xb6:3"), ConstructionKind.GENERAL_LOW_WIDTH).circuit)
    out.update(_hand_built())
    out.update((f"random/seed-{seed}", _random_circuit(seed)) for seed in range(10))
    return out


def digests() -> dict[str, str]:
    return {
        f"{name} m={m}": hashlib.sha256(
            to_text_diagram(circuit, max_columns=m).encode()).hexdigest()
        for name, circuit in cases().items()
        for m in MAX_COLUMNS
    }


def test_diagram_bytes_match_golden():
    want = json.loads(FIXTURE.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


def test_golden_covers_a_block_across_a_wrap():
    """The measured wire is classical on both sides of a section break."""
    kind, text = WRAPPED_BLOCK.split("/")
    circuit = synthesize(parse_function(text), ConstructionKind(kind)).circuit
    sections = [sec.splitlines() for sec in to_text_diagram(circuit, max_columns=4).split("\n\n")]
    assert any(
        left.endswith("═…") and "…═" in right
        for first, second in zip(sections, sections[1:])
        for left, right in zip(first, second)
    )


def test_random_cases_cover_the_rare_shapes():
    """Every gate kind, a conditioned drop crossing its measured wire, an
    empty block, adjacent blocks on disjoint wires, no roles, and a block
    across a wrap all occur among the random cases."""
    circuits = [_random_circuit(seed) for seed in range(10)]
    elements = [el for c in circuits for el in c.elements]
    blocks = [el for el in elements if isinstance(el, ConditionedBlock)]
    gates = [el for el in elements if not isinstance(el, ConditionedBlock)]
    gates += [g for b in blocks for g in b.body.elements]
    assert {g.kind for g in gates} == set(GateKind)
    assert any(min(g.qubits) < b.measured_qubit < max(g.qubits)
               for b in blocks for g in b.body.elements)
    assert any(not b.body.elements for b in blocks)
    assert any(
        isinstance(a, ConditionedBlock) and isinstance(b, ConditionedBlock)
        and {a.measured_qubit, *(q for g in a.body.elements for q in g.qubits)}.isdisjoint(
            {b.measured_qubit, *(q for g in b.body.elements for q in g.qubits)})
        for c in circuits for a, b in zip(c.elements, c.elements[1:]))
    assert any(c.roles is None for c in circuits)
    assert any("═…" in to_text_diagram(c, max_columns=4) for c in circuits)


@pytest.mark.parametrize("m", [0, -3])
def test_nonpositive_max_columns_does_not_wrap(m):
    circuit = synthesize(parse_function("0x8:2"), ConstructionKind.ANDDG_DEPTH1).circuit
    assert to_text_diagram(circuit, max_columns=m) == to_text_diagram(circuit)


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
