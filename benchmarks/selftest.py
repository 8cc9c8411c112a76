"""Self-test of the benchmark's checks; takes a few seconds.

    python3 benchmarks/selftest.py

On a tiny job list, every check must accept the program's own output and
reject a corrupted one: a negated rotation, a dropped CNOT, a cancelling
CNOT pair, a split rotation, a lost frame gate, a flipped table entry, a
wrong spectrum, a flipped diagram label, misreported metrics and wrong
verdicts.  Each case names the exact set of checks that must reject it,
so a check that fires where it should not also fails the self-test.  A
last case checks that a verify-sweep input keeps its base function's
spectrum up to position and sign.  Exits 1 if any case does not behave
as stated.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

from checks import check_job, own_walsh_hadamard
from worker import NullTracer, Tracer, negate_rotation, run_job  # puts src/ on the path
from workloads import Job, affine_equivalent, hex_text, sparse_function

from fcnot import (  # noqa: E402
    Circuit,
    ConstructionKind,
    Gate,
    TruthTable,
    to_qasm,
    to_text_diagram,
)
from fcnot.circuit import GateKind  # noqa: E402


def run(job, traced=False):
    """Run a job through the program; return (outcome, result)."""
    table = None if job.text is not None else TruthTable(job.n, tuple(job.bits.tolist()))
    out = run_job(job, ConstructionKind(job.kind), table,
                  Tracer() if traced else NullTracer())
    result = out.result
    out.qasm = out.qasm if out.qasm is not None else to_qasm(result.circuit)
    return out, result


def with_circuit(out, result, edit):
    """The outcome of a circuit whose element list ``edit`` rewrote, with
    metrics and serializations recomputed by the program."""
    c = result.circuit
    circuit = Circuit(c.qubit_count, tuple(edit(list(c.elements))), c.roles)
    changed = dataclasses.replace(result, circuit=circuit)
    return dataclasses.replace(
        out, metrics=changed.metrics(), qasm=to_qasm(circuit),
        diagram=None if out.diagram is None else to_text_diagram(circuit))


def first(elements, kind):
    return next(i for i, el in enumerate(elements)
                if isinstance(el, Gate) and el.kind is kind)


def drop_cnot(elements):
    del elements[first(elements, GateKind.CNOT)]
    return elements


def cnot_pair(elements):
    g = elements[first(elements, GateKind.CNOT)]
    elements[1:1] = [g, g]
    return elements


def split_rotation(elements):
    i = next(i for i, el in enumerate(elements)
             if isinstance(el, Gate) and el.is_rotation() and el.angle.denominator > 2)
    g = elements[i]
    half = Gate(g.kind, g.qubits, g.angle / 2)
    elements[i:i + 1] = [half, half]
    return elements


def drop_last(elements):
    return elements[:-1]


def flip_label(text):
    """Turn the first rotation label into its adjoint (or back)."""
    if "R1†(" in text:
        return text.replace("R1†(", "R1(", 1)
    return text.replace("R1(", "R1†(", 1)


def main() -> int:
    rng = np.random.default_rng(7)
    bits3 = rng.integers(0, 2, size=8, dtype=np.uint8)
    text, sparse_bits = sparse_function(rng, 5, "maj", 3)

    def qasm_job(kind, bits=bits3):
        return Job(kind, bits.size.bit_length() - 1, bits, text=hex_text(bits),
                   export="qasm")

    diagram_job = Job("and-depth1", 5, sparse_bits, text=text, export="diagram")
    verify_job = Job("general-lowwidth", 3, bits3, verify_seed=5, expect="PASS")
    mutant_job = dataclasses.replace(verify_job, expect="FAIL", mutate=0.5)
    capped_job = Job("and-depth1", 5, sparse_bits, verify_seed=1, expect="PASS",
                     beyond_cap=True)

    cases = []  # (description, job, outcome, checks that must reject)

    for kind in ("general-lowwidth", "general-depth1", "and-lowwidth",
                 "and-depth1", "anddg-lowwidth", "anddg-depth1"):
        out, _ = run(qasm_job(kind), traced=True)
        cases.append((f"{kind}: program output", qasm_job(kind), out, set()))
    for job in (diagram_job, verify_job):
        out, _ = run(job)
        cases.append((f"{job.kind} {job.export or 'verify'}: program output",
                      job, out, set()))

    job = qasm_job("general-lowwidth")
    out, result = run(job)
    negated = negate_rotation(result, 0.3)
    cases += [
        ("negated rotation", job,
         with_circuit(out, result, lambda _: list(negated.circuit.elements)),
         {"phase", "angles"}),
        ("dropped CNOT", job, with_circuit(out, result, drop_cnot), {"phase"}),
        ("cancelling CNOT pair", job, with_circuit(out, result, cnot_pair),
         {"counts"}),
        ("missing final H", job, with_circuit(out, result, drop_last), {"phase"}),
        ("misreported CNOT count", job,
         dataclasses.replace(out, metrics={**out.metrics, "cnot": out.metrics["cnot"] + 1}),
         {"counts"}),
        ("flipped truth-table entry", job,
         dataclasses.replace(out, table=TruthTable(3, tuple(int(b) for b in 1 - bits3))),
         {"parse"}),
    ]
    traced_out, _ = run(job, traced=True)
    cases.append(("wrong spectrum", job, dataclasses.replace(
        traced_out, coefficients=-np.asarray(traced_out.coefficients)), {"spectrum"}))

    job = qasm_job("and-depth1")
    out, result = run(job)
    cases.append(("dropped CNOT in a fan-out", job,
                  with_circuit(out, result, drop_cnot), {"phase"}))

    job = qasm_job("general-depth1")
    out, result = run(job)
    cases += [
        ("split rotation on a depth-1 form", job,
         with_circuit(out, result, split_rotation), {"depth", "angles"}),
        ("misreported rotation depth", job,
         dataclasses.replace(out, metrics={**out.metrics, "rotation_depth": 2}),
         {"depth"}),
    ]

    out, _ = run(diagram_job)
    cases.append(("flipped diagram label", diagram_job,
                  dataclasses.replace(out, diagram=flip_label(out.diagram)),
                  {"angles"}))

    def verdict(out, value):
        return dataclasses.replace(out, report=dataclasses.replace(out.report,
                                                                  verdict=value))

    out, _ = run(verify_job)
    mutant_out, _ = run(mutant_job)
    unmutated = dataclasses.replace(mutant_job, mutate=None)
    cases += [
        ("sign-flip mutant, verdict FAIL", mutant_job, mutant_out, set()),
        ("mutant reported PASS", mutant_job, verdict(mutant_out, "PASS"), {"verdict"}),
        ("correct circuit reported FAIL", verify_job, verdict(out, "FAIL"), {"verdict"}),
        ("small circuit reported UNVERIFIABLE", verify_job,
         verdict(out, "UNVERIFIABLE"), {"verdict"}),
        ("mutant that is not mutated", mutant_job, run(unmutated)[0],
         {"phase", "verdict"}),
    ]

    bad = 0
    for description, job, out, expected in cases:
        found, failure, _ = check_job(job, own_walsh_hadamard(job.bits), out)
        rejected = {check for check, _ in found}
        ok = rejected == expected and failure is None
        bad += not ok
        what = ", ".join(sorted(rejected)) or "accepted"
        print(f"{'ok ' if ok else 'BAD'} {description}: {what}")
        if not ok:
            for check, message in found:
                print(f"      [{check}] {message}")

    out, _ = run(capped_job)
    found, failure, _ = check_job(capped_job, own_walsh_hadamard(capped_job.bits), out)
    ok = not found and failure is not None and failure.startswith("UNVERIFIABLE")
    bad += not ok
    print(f"{'ok ' if ok else 'BAD'} beyond-cap circuit: counted as failed ({failure})")

    # The verify-sweep inputs keep the base's spectrum up to position and
    # sign, and its coefficient at 0, which is what makes their cost fixed.
    base = rng.integers(0, 2, size=16, dtype=np.uint8)
    image = affine_equivalent(rng, base)
    s, t = own_walsh_hadamard(base), own_walsh_hadamard(image)
    ok = (sorted(np.abs(s)) == sorted(np.abs(t)) and s[0] == t[0]
          and not np.array_equal(base, image))
    bad += not ok
    print(f"{'ok ' if ok else 'BAD'} affine equivalent: same spectrum up to position and sign")

    total = len(cases) + 2
    print(f"{total - bad}/{total} self-test cases behave as stated")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
