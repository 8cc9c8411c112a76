"""Command-line front-end: synthesis, verification, spectra, and sweeps.

Exit codes: 0 success (verify: PASS), 1 verify FAIL, 2 malformed function
text or bad usage, 3 unsupported size: a circuit too large to verify, or a
text diagram that would exceed ``DIAGRAM_BYTES``, and 141 when the reader of
standard output closes it early (as ``| head`` does).  All randomized behavior
is seed-determined; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import boolfn, export, sim, synth
from .circuit import merge_s_gate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
#: 128 + SIGPIPE, the status of a shell tool whose output pipe was closed.
EXIT_PIPE = 141

_VERDICT_EXIT = {"PASS": EXIT_OK, "FAIL": EXIT_FAIL, "UNVERIFIABLE": EXIT_SIZE}

#: Largest text diagram ``synth`` draws, in bytes (128 MiB), checked against
#: ``export.diagram_bytes_floor`` before drawing.  general-depth1 passes at
#: n = 10 (a 117 MB diagram) and is refused from n = 11.
DIAGRAM_BYTES = 1 << 27


def _construction(name: str) -> synth.ConstructionKind:
    try:
        return synth.ConstructionKind(name)
    except ValueError:
        choices = ", ".join(k.value for k in synth.ConstructionKind)
        raise argparse.ArgumentTypeError(f"expected one of: {choices}") from None


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def cmd_synth(args: argparse.Namespace) -> int:
    f = boolfn.parse_function(args.func)
    result = synth.synthesize(f, args.construction)
    circuit = result.circuit
    if args.merge_s:
        circuit = merge_s_gate(circuit)
    if args.out == "qasm":
        sys.stdout.write(export.to_qasm(circuit))
        return EXIT_OK
    size = export.diagram_bytes_floor(circuit)
    if size > DIAGRAM_BYTES:
        print(f"error: the text diagram would take at least {size} bytes, over the "
              f"{DIAGRAM_BYTES}-byte bound; use --out qasm", file=sys.stderr)
        return EXIT_SIZE
    print(export.to_text_diagram(circuit, max_columns=args.max_columns))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    f = boolfn.parse_function(args.func)
    result = synth.synthesize(f, args.construction)
    report = sim.verify(result, f, seed=args.seed)
    print(report.to_json())
    return _VERDICT_EXIT[report.verdict]


def cmd_stats(args: argparse.Namespace) -> int:
    f = boolfn.parse_function(args.func)
    result = synth.synthesize(f, args.construction)
    print(json.dumps(result.metrics()))
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    f = boolfn.parse_function(args.func)
    sd = boolfn.spectrum(f)
    table = boolfn.angles(sd)
    rows = [("index", "s", "theta", "clifford")]
    for j in range(1 << f.n):
        rows.append(
            (
                str(j),
                str(int(sd.coefficients[j])),
                export.format_pi_multiple(table.angles[j]),
                "yes" if table.is_clifford(j) else "no",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= boolfn.MAX_VARIABLES:
        print(f"error: --n must be in [1, {boolfn.MAX_VARIABLES}], got {n}",
              file=sys.stderr)
        return EXIT_PARSE
    if args.sample is not None and args.sample < 1:
        print(f"error: --sample must be at least 1, got {args.sample}",
              file=sys.stderr)
        return EXIT_PARSE
    if args.sample is None and n > 3:
        print("error: exhaustive sweeps are limited to n <= 3; pass --sample",
              file=sys.stderr)
        return EXIT_PARSE
    if args.sample is not None and args.seed < 0:
        print(f"error: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return EXIT_PARSE

    if args.sample is None:
        tables = (boolfn.TruthTable.from_value(n, v) for v in range(1 << (1 << n)))
    else:
        rng = np.random.default_rng(args.seed)
        tables = (boolfn.TruthTable(n, tuple(rng.integers(0, 2, size=1 << n).tolist()))
                  for _ in range(args.sample))

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["function", "qubits", "ancillas", "cnot", "r1_total",
         "r1_non_clifford", "rotation_depth", "measurements", "verify"]
    )
    for f in tables:
        result = synth.synthesize(f, args.construction)
        report = sim.verify(result, f)
        # metrics() lists its values in the header's order
        writer.writerow([f.hex_form(), *result.metrics().values(), report.verdict])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcnot",
        description="Compile Boolean functions into function-controlled NOT "
        "circuits over Clifford+R1 and verify them exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_func(p):
        p.add_argument("--func", required=True,
                       help="Boolean expression over x1..xn, or 0x<hex>:<n>")

    def add_construction(p):
        p.add_argument("--construction", required=True, type=_construction,
                       help="one of: " + ", ".join(k.value for k in
                                                   synth.ConstructionKind))

    p = sub.add_parser("synth", help="print a synthesized circuit")
    add_func(p)
    add_construction(p)
    p.add_argument("--out", choices=["text", "qasm"], default="text")
    p.add_argument("--merge-s", action="store_true",
                   help="absorb the designated S gate into the first adjoint "
                   "rotation on the target")
    p.add_argument("--max-columns", type=_positive_int, default=None,
                   help="wrap text diagrams after this many gate columns")
    p.set_defaults(func_impl=cmd_synth)

    p = sub.add_parser("verify", help="check a construction against the oracle")
    add_func(p)
    add_construction(p)
    p.add_argument("--seed", type=int, default=1, help="echoed in the report")
    p.set_defaults(func_impl=cmd_verify)

    p = sub.add_parser("stats", help="print resource metrics as JSON")
    add_func(p)
    add_construction(p)
    p.set_defaults(func_impl=cmd_stats)

    p = sub.add_parser("spectrum", help="print spectral coefficients and angles")
    add_func(p)
    p.set_defaults(func_impl=cmd_spectrum)

    p = sub.add_parser("table", help="sweep functions and emit CSV stats")
    p.add_argument("--n", type=int, required=True)
    add_construction(p)
    p.add_argument("--sample", type=int, default=None,
                   help="number of seeded random functions (required for n > 3)")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func_impl=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        # Unbuffered (python -u, PYTHONUNBUFFERED), a write into a pipe may
        # take only part of the bytes, and the text layer drops the rest
        # without an error, so a closed pipe could go unseen.  A buffered
        # writer writes the rest again and meets it; flushing at each
        # newline keeps the lines appearing as they are written.
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw), sys.stdout.encoding,
                                      sys.stdout.errors, line_buffering=True)
    try:
        status = args.func_impl(args)
        sys.stdout.flush()  # so a closed pipe is met here
    except boolfn.ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # Output still buffered goes to devnull: the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
