"""Compile-and-verify benchmark of the fcnot pipeline.

    python3 benchmarks/run.py --workload compile-random --seed 1 --seconds 20 --trace 0

Runs one workload (``compile-random``, ``compile-sparse`` or
``verify-sweep``) in fresh interpreters started from this checkout's
``src/``, one after the other, with BLAS pinned to one thread.  The timed
phase is split over ``WORKERS`` worker processes, so that each job's
latency, the median over its rounds, does not hang on one process's memory
layout.  Set-up time is sampled in every worker and in extra set-up-only
interpreters, ``SETUP_SAMPLES`` in all.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  Raw
outputs and spans go to ``benchmarks/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKERS = 3
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

_ONE_THREAD = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_worker(args, deadline: float, *extra: str) -> list[str]:
    """Start a worker, wait for it (killing it at the deadline), and
    return its standard output lines."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--t0", repr(t0), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **_ONE_THREAD})
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("benchmark worker exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker exited with code {proc.returncode}")
    return stdout.splitlines()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rounds, jobs_per_round: int) -> dict[str, tuple[float, str]]:
    # Each job's latency is its median over the rounds; the quantiles are
    # taken over the fixed job list, so they sit at the same rank however
    # many rounds ran.
    job_ms = [statistics.median(ms) for ms in zip(*(r["job_ms"] for r in rounds))]
    counts = rounds[0]["counts"]
    return {
        "jobs_per_s": (len(rounds) * jobs_per_round / sum(r["seconds"] for r in rounds),
                       "1/s"),
        "job_ms_p50": (statistics.median(job_ms), "ms"),
        "job_ms_p90": (statistics.quantiles(job_ms, n=10)[8], "ms"),
        "gates_total": (counts["gates"], "count"),
        "cnot_total": (counts["cnot"], "count"),
        "r1_nonclifford_total": (counts["r1_non_clifford"], "count"),
    }


def per_layer(rounds, spans, jobs_per_round: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures: times are one round's total in a layer (median
    over the traced rounds); counts are one round's."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    layer_ms = {r["index"]: Counter() for r in traced}
    for name, start, end, _, job_id in spans:
        layer_ms[job_id // jobs_per_round][name] += (end - start) / 1e6

    def ms(name):
        return _median([c[name] for c in layer_ms.values()])

    def per(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    c = traced[0]["counts"]
    parse, synth = ms("boolfn.parse_function"), ms("synth.synthesize")
    analysis, diagram = ms("circuit.metrics"), ms("export.to_text_diagram")
    verify = ms("sim.verify")
    return {
        "boolfn.parse_ms": (parse, "ms"),
        "boolfn.parse_ns_per_entry": (per(parse, c["parsed_entries"], 1e6), "ns/entry"),
        "boolfn.spectrum_ms": (ms("boolfn.spectrum"), "ms"),
        "boolfn.spectrum_entries": (c["entries"], "count"),
        "boolfn.spectrum_nonzero": (c["nonzero"], "count"),
        "synth.synthesize_ms": (synth, "ms"),
        "synth.gates": (c["gates"], "count"),
        "synth.us_per_gate": (per(synth, c["gates"], 1e3), "us/gate"),
        "synth.cnot_per_rotation": (per(c["cnot"], c["r1_total"]), "ratio"),
        "circuit.analysis_ms": (analysis, "ms"),
        "circuit.analysis_us_per_gate": (per(analysis, c["gates"], 1e3), "us/gate"),
        "export.qasm_ms": (ms("export.to_qasm"), "ms"),
        "export.qasm_bytes": (c["qasm_bytes"], "bytes"),
        "export.diagram_ms": (diagram, "ms"),
        "export.diagram_bytes": (c["diagram_bytes"], "bytes"),
        "export.diagram_ns_per_byte": (per(diagram, c["diagram_bytes"], 1e6), "ns/byte"),
        "sim.verify_ms": (verify, "ms"),
        "sim.simulations": (c["simulations"], "count"),
        "sim.amplitude_updates": (c["amplitude_updates"], "count"),
        "sim.ns_per_amplitude_update": (per(verify, c["amplitude_updates"], 1e6),
                                        "ns/update"),
        "sim.decided": (c["decided"], "count"),
        "sim.unverifiable": (c["unverifiable"], "count"),
        "sim.decided_ratio": (per(c["decided"], c["decided"] + c["unverifiable"]),
                              "ratio"),
        "bench.tracing_overhead_s": (_median([r["seconds"] for r in traced])
                                     - _median([r["seconds"] for r in untraced]), "s"),
        "bench.check_s": (_median([r["check_s"] for r in rounds]), "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fcnot" / "__init__.py").is_file():
        print(f"error: no fcnot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setup = []
    for _ in range(SETUP_SAMPLES - WORKERS):
        setup.append(float(run_worker(args, deadline, "--setup-only")[0].split()[1]))
    rounds, spans, peak = [], [], 0.0
    for _ in range(WORKERS):
        lines = run_worker(args, deadline, "--seconds", str(args.seconds / WORKERS),
                           "--first-round", str(len(rounds)))
        worker = json.loads(lines[-1])
        setup.append(worker["setup_s"])
        peak = max(peak, worker["peak_rss_mib"])
        for r in worker["rounds"]:
            rounds.append({**r, "counts": Counter(r["counts"])})
        spans += [[*span[:3], None if span[3] is None else span[3] + len(spans),
                   span[4]] for span in worker["spans"]]
    jobs_per_round = worker["jobs_per_round"]

    problems = [p for r in rounds for p in r["problems"]]
    failures = sum((Counter(r["failures"]) for r in rounds), Counter())
    if any(r["counts"][k] != rounds[0]["counts"][k] for r in rounds
           for k in ("gates", "cnot", "r1_non_clifford")):
        problems.append(["counts", "gate counts differ between rounds"])

    if args.trace:
        metrics = per_layer(rounds, spans, jobs_per_round)
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   **end_to_end([r for r in rounds if not r["traced"]], jobs_per_round),
                   "peak_rss_mib": (peak, "MiB")}
    result = {
        "correct": not problems,
        "attempted": len(rounds) * jobs_per_round,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({**result, "setup_s": setup, "failures": failures,
                   "problems": problems, "rounds": rounds}, fh)
    if args.trace:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job_id"],
                       "jobs_per_round": jobs_per_round, "spans": spans}, fh)

    for cause, count in failures.items():
        print(f"failed {count}x: {cause}")
    for check, message in problems[:20]:
        print(f"INCORRECT [{check}] {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{jobs_per_round} jobs, {sum(r['seconds'] for r in rounds):.2f} s timed")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
