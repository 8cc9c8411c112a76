"""Run one worker of a benchmark workload in this (fresh) interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker imports the
program from ``src/``, builds the seeded job list, runs one warm-up job and
prints ``ready <setup seconds>`` (measured from ``--t0``, taken by the
parent just before it started this process).  With ``--setup-only`` it
stops there.  Otherwise it works through whole rounds of the job list, one
job after the other in this one thread, until its timed phase has lasted
``--seconds`` (at least one round).  Each job's output is checked right
after it, with the clock stopped.  The last line printed is a JSON object
with the raw per-round timings, counts, check results and, for traced
rounds, the spans.

With ``--trace 1`` every round with an odd index in the run is traced: a
span is recorded around each call into the program and kept in memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fcnot.sim  # noqa: E402
from fcnot import (  # noqa: E402
    Circuit,
    ConstructionKind,
    Gate,
    TruthTable,
    parse_function,
    spectrum,
    synthesize,
    to_qasm,
    to_text_diagram,
    verify,
)

from checks import check_job, own_walsh_hadamard  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


class NullTracer:
    """Records nothing: the tracer of untraced rounds."""

    traced = False
    spans = ()

    def start_job(self, job_id: int) -> None:
        pass

    def end_job(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans ``(name, start_ns, end_ns, parent span index, job id)``, kept
    in memory; the job span is the parent of every call span in it."""

    traced = True

    def __init__(self) -> None:
        self.spans: list = []
        self.parent: int | None = None
        self.job_id: int | None = None

    def start_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.parent = len(self.spans)
        self.spans.append(["job", time.perf_counter_ns(), 0, None, job_id])

    def end_job(self) -> None:
        self.spans[self.parent][2] = time.perf_counter_ns()

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans.append([name, start, time.perf_counter_ns(), self.parent,
                           self.job_id])
        return out


class CountingApply:
    """Stands in for ``fcnot.sim.apply`` in traced rounds to count how
    many simulations ``verify`` runs."""

    def __init__(self, apply) -> None:
        self.apply = apply
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.apply(*args, **kwargs)


@dataclasses.dataclass
class Outcome:
    table: object
    coefficients: object
    result: object
    layout: object
    metrics: dict
    qasm: str | None
    diagram: str | None
    report: object


def negate_rotation(result, u: float):
    """The circuit with one rotation's angle negated: the rotation at
    position ``floor(u * count)`` among the rotations on or above the
    target wire.  In both general layouts those carry the terms that
    include the target."""
    c = result.circuit
    elements = list(c.elements)
    rotations = [i for i, el in enumerate(elements)
                 if isinstance(el, Gate) and el.is_rotation()
                 and el.qubits[0] >= result.layout.target]
    i = rotations[int(u * len(rotations))]
    g = elements[i]
    elements[i] = Gate(g.kind, g.qubits, -g.angle)
    return dataclasses.replace(
        result, circuit=Circuit(c.qubit_count, tuple(elements), c.roles))


def run_job(job, kind, table, tracer) -> Outcome:
    """One operation: every call into the program the job makes."""
    parsed = None
    if job.text is not None:
        parsed = table = tracer.call("boolfn.parse_function", parse_function, job.text)
    sd = tracer.call("boolfn.spectrum", spectrum, table) if tracer.traced else None
    result = tracer.call("synth.synthesize", synthesize, table, kind)
    if job.mutate is not None:
        result = negate_rotation(result, job.mutate)
    metrics = tracer.call("circuit.metrics", result.metrics)
    qasm = diagram = report = None
    if job.export == "qasm":
        qasm = tracer.call("export.to_qasm", to_qasm, result.circuit)
    elif job.export == "diagram":
        diagram = tracer.call("export.to_text_diagram", to_text_diagram,
                              result.circuit)
    if job.verify_seed is not None:
        report = tracer.call("sim.verify", verify, result, table,
                             seed=job.verify_seed)
    return Outcome(parsed, None if sd is None else sd.coefficients, result,
                   result.layout, metrics, qasm, diagram, report)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(jobs, prepared, spectra, tracer, counter) -> dict:
    """Work through the job list once, checking each job right after it
    with the clock stopped.  Returns the round's timings and counts."""
    r = {"traced": tracer.traced, "seconds": 0.0, "check_s": 0.0, "job_ms": [],
         "counts": Counter(), "problems": [], "failures": Counter()}
    counts = r["counts"]
    if tracer.traced:
        fcnot.sim.apply = counter
    for i, job in enumerate(jobs):
        sims_before = counter.count
        start = time.perf_counter_ns()
        tracer.start_job(i)
        out = run_job(job, *prepared[i], tracer)
        tracer.end_job()
        elapsed = (time.perf_counter_ns() - start) / 1e9

        check_start = time.perf_counter()
        # Drop the circuit before reading it back, so the checks reuse its
        # memory instead of raising the peak RSS.
        if out.qasm is None:
            out.qasm = to_qasm(out.result.circuit)
        out.result = None
        if i not in spectra:
            spectra[i] = own_walsh_hadamard(job.bits)
        found, failure, tally = check_job(job, spectra[i], out)
        r["problems"] += found
        if failure is not None:
            r["failures"][f"{job.kind} n={job.n}: {failure}"] += 1
        counts.update(tally)
        counts["entries"] += 1 << job.n
        counts["parsed_entries"] += (1 << job.n) if job.text is not None else 0
        counts["nonzero"] += int(np.count_nonzero(spectra[i]))
        counts["qasm_bytes"] += len(out.qasm) if job.export == "qasm" else 0
        if out.diagram is not None:
            counts["diagram_bytes"] += len(out.diagram.encode())
        if out.report is not None:
            sims = counter.count - sims_before
            counts["simulations"] += sims
            counts["amplitude_updates"] += (
                sims * tally.get("gates", 0) << out.metrics["qubits"])
            counts["decided"] += out.report.verdict in ("PASS", "FAIL")
            counts["unverifiable"] += out.report.verdict == "UNVERIFIABLE"
        r["check_s"] += time.perf_counter() - check_start
        r["seconds"] += elapsed
        r["job_ms"].append(elapsed * 1e3)
    fcnot.sim.apply = counter.apply
    return r


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed phase of this worker (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-round", type=int, default=0,
                        help="index of this worker's first round in the run")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    jobs = make_jobs(args.workload, args.seed)
    prepared = [
        (ConstructionKind(job.kind),
         None if job.text is not None else TruthTable(job.n, tuple(job.bits.tolist())))
        for job in jobs
    ]
    warm = min(range(len(jobs)), key=lambda i: (jobs[i].n, i))
    run_job(jobs[warm], *prepared[warm], NullTracer())
    setup_s = time.monotonic() - args.t0
    print(f"ready {setup_s!r}", flush=True)
    if args.setup_only:
        return 0

    spectra: dict[int, np.ndarray] = {}
    counter = CountingApply(fcnot.sim.apply)
    rounds, spans = [], []
    timed_s = 0.0
    while not rounds or timed_s < args.seconds:
        index = args.first_round + len(rounds)
        tracer = Tracer() if args.trace and index % 2 == 1 else NullTracer()
        r = run_round(jobs, prepared, spectra, tracer, counter)
        r["index"] = index
        offset = len(spans)
        spans += [[name, start, end, None if parent is None else parent + offset,
                   index * len(jobs) + job]
                  for name, start, end, parent, job in tracer.spans]
        rounds.append(r)
        timed_s += r["seconds"]
    print(json.dumps({"setup_s": setup_s, "peak_rss_mib": peak_rss_mib(),
                      "jobs_per_round": len(jobs), "rounds": rounds,
                      "spans": spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
