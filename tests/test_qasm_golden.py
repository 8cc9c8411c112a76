"""Golden bytes of the qasm export and the metrics.

``qasm_golden.json`` holds, per construction, ``merge_s_gate`` setting and
variable count, one sha256 over ``to_qasm`` and the metrics of every
circuit in that group: every function at n <= 3, and seeded random tables
at n = 4..8.  It pins synthesis, analysis and export byte for byte, so a
rewrite of any of them must reproduce the old output exactly.  Print the
table for the current code with ``PYTHONPATH=src python
tests/test_qasm_golden.py``; replace the committed file only for an
intended change of the output.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from fcnot.boolfn import TruthTable
from fcnot.circuit import merge_s_gate
from fcnot.export import to_qasm
from fcnot.synth import ConstructionKind, synthesize

FIXTURE = Path(__file__).with_name("qasm_golden.json")

EXHAUSTIVE_N = (1, 2, 3)
SEEDED_N = (4, 5, 6, 7, 8)
SEEDED_TABLES = 3


def tables(n: int) -> list[TruthTable]:
    if n in EXHAUSTIVE_N:
        return [TruthTable.from_value(n, v) for v in range(1 << (1 << n))]
    rng = np.random.default_rng([5150, n])
    return [TruthTable(n, tuple(rng.integers(0, 2, size=1 << n).tolist()))
            for _ in range(SEEDED_TABLES)]


def digests() -> dict[str, str]:
    out = {}
    for n in EXHAUSTIVE_N + SEEDED_N:
        fs = tables(n)
        for kind in ConstructionKind:
            for merged in (False, True):
                digest = hashlib.sha256()
                for f in fs:
                    result = synthesize(f, kind)
                    if merged:
                        result = dataclasses.replace(
                            result, circuit=merge_s_gate(result.circuit))
                    digest.update(to_qasm(result.circuit).encode())
                    digest.update(json.dumps(result.metrics()).encode())
                out[f"{kind.value} merge={merged} n={n}"] = digest.hexdigest()
    return out


def test_qasm_and_metrics_match_golden():
    want = json.loads(FIXTURE.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
