"""Seeded job lists for the three benchmark workloads.

A job is plain data: the construction, the variable count, the benchmark's
own truth table of the function, and how the job is fed to and read back
from the program.  Nothing here imports the program, so the truth tables
the checks start from are made apart from it.

Every job list is fixed by ``(workload, seed)``: the same seed gives the
same jobs in the same order.  Inputs that stand for a known fault of the
program (the beyond-cap verify jobs) do not depend on the seed at all.

A job list is run in a fixed interleaved order (``FIXED_SEED``), so that
jobs of one kind are spread over the whole round rather than run back to
back: a percentile then samples the machine's speed across the run, not
in one short stretch of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOW_WIDTH = ("general-lowwidth", "and-lowwidth", "anddg-lowwidth")
DEPTH1 = ("general-depth1", "and-depth1", "anddg-depth1")

WORKLOADS = ("compile-random", "compile-sparse", "verify-sweep")


@dataclass(frozen=True)
class Job:
    """One closed-loop operation.

    ``text`` is the function as the program parses it (``None`` when the
    job hands the program a ready truth table).  ``export`` names the
    serializer the job calls.  ``verify_seed`` is set on verify jobs;
    ``expect`` is then the verdict a correct verifier gives, and
    ``mutate`` (a number in [0, 1)) selects the nonzero rotation whose
    angle is negated before the circuit is verified.
    """

    kind: str
    n: int
    bits: np.ndarray
    text: str | None = None
    export: str | None = None
    verify_seed: int | None = None
    expect: str | None = None
    mutate: float | None = None
    beyond_cap: bool = False


#: Seeds the job order and the verify-sweep base functions; not ``--seed``.
FIXED_SEED = 20051231


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _interleaved(jobs: list[Job], workload: str) -> list[Job]:
    """The jobs in a fixed shuffled order that depends only on the list's
    length and the workload, so that like jobs are spread over a round."""
    order = np.random.default_rng([FIXED_SEED, WORKLOADS.index(workload)]
                                  ).permutation(len(jobs))
    return [jobs[i] for i in order]


def _index(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def _var(idx: np.ndarray, i: int) -> np.ndarray:
    """Value of x_i at every assignment (x_1 is the least significant bit)."""
    return ((idx >> (i - 1)) & 1).astype(np.uint8)


def hex_text(bits: np.ndarray) -> str:
    """``0x<hex>:<n>`` form of a truth table: bit k of the value is entry k."""
    n = bits.size.bit_length() - 1
    value = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return f"0x{value:x}:{n}"


# ---------------------------------------------------------------------------
# compile-random: dense spectra, hex tables


#: (forms, n, functions per form) for one round of compile-random.
COMPILE_RANDOM_CELLS = (
    (DEPTH1, 8, 21),
    (DEPTH1, 10, 8),
    (DEPTH1, 12, 2),
    (LOW_WIDTH, 12, 4),
    (LOW_WIDTH, 14, 1),
    (LOW_WIDTH, 16, 1),
)


def compile_random(seed: int) -> list[Job]:
    rng = _rng("compile-random", seed)
    jobs = []
    for forms, n, count in COMPILE_RANDOM_CELLS:
        for _ in range(count):
            bits = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
            text = hex_text(bits)
            jobs.extend(Job(kind, n, bits, text=text, export="qasm") for kind in forms)
    return jobs


# ---------------------------------------------------------------------------
# compile-sparse: a small core XOR a linear part, as expressions


#: (forms, n values, functions per form) for one round of compile-sparse.
COMPILE_SPARSE_CELLS = (
    (LOW_WIDTH, range(3, 7), 4),
    (LOW_WIDTH, range(7, 13), 1),
    (DEPTH1, range(3, 7), 3),
    (DEPTH1, range(7, 8), 1),
)


def _literal(rng: np.random.Generator, idx: np.ndarray, v: int) -> tuple[str, np.ndarray]:
    if rng.random() < 0.25:
        return f"~x{v}", 1 - _var(idx, v)
    return f"x{v}", _var(idx, v)


#: Core operations and sizes, taken in turn so that the number of nonzero
#: coefficients per round does not depend on the seed.
SPARSE_CORES = (("and", 2), ("or", 3), ("maj", 3), ("and", 4), ("or", 2),
                ("and", 3), ("or", 4))


def sparse_function(rng: np.random.Generator, n: int, op: str,
                    size: int) -> tuple[str, np.ndarray]:
    """An expression whose spectrum has at most 16 nonzero coefficients.

    A core ``op`` (AND, OR or majority of three) on ``size`` chosen
    variables (at most n), some of them negated, XOR a random subset of
    the remaining variables.  ``x_n`` always occurs, so the parsed
    variable count is ``n``.  Returns the text and the benchmark's own
    evaluation of it at every assignment.
    """
    size = min(size, n)
    core = sorted(int(v) + 1 for v in rng.choice(n, size=size, replace=False))
    idx = _index(n)
    lits = [_literal(rng, idx, v) for v in core]
    texts = [t for t, _ in lits]
    vals = [b for _, b in lits]
    if op == "and":
        text = " & ".join(texts)
        bits = np.bitwise_and.reduce(vals)
    elif op == "or":
        text = " | ".join(texts)
        bits = np.bitwise_or.reduce(vals)
    else:
        a, b, c = texts
        text = f"{a} & {b} | {a} & {c} | {b} & {c}"
        bits = ((vals[0] + vals[1] + vals[2]) >= 2).astype(np.uint8)
    linear = [v for v in range(1, n + 1) if v not in core and rng.random() < 0.5]
    if n not in core and n not in linear:
        linear.append(n)
    text = f"({text})" + "".join(f" ^ x{v}" for v in linear)
    for v in linear:
        bits = bits ^ _var(idx, v)
    return text, bits.astype(np.uint8)


def compile_sparse(seed: int) -> list[Job]:
    rng = _rng("compile-sparse", seed)
    jobs = []
    for forms, sizes, count in COMPILE_SPARSE_CELLS:
        for n in sizes:
            for _ in range(count):
                for kind in forms:
                    op, size = SPARSE_CORES[len(jobs) % len(SPARSE_CORES)]
                    text, bits = sparse_function(rng, n, op, size)
                    jobs.append(Job(kind, n, bits, text=text, export="diagram"))
    return jobs


# ---------------------------------------------------------------------------
# verify-sweep: dense verification, sign-flip mutants, beyond-cap circuits


#: (forms, n values, functions per form) for one round of verify-sweep.
#: The sixteen general-depth1 n=2 jobs hold the median rank and the twelve
#: general-lowwidth n=5 jobs the 90th percentile, each near its middle.
VERIFY_CELLS = (
    (LOW_WIDTH, (2, 3), 6),
    (LOW_WIDTH, (4,), 4),
    (("general-lowwidth",), (5,), 12),
    (("and-lowwidth", "anddg-lowwidth"), (5,), 2),
    (LOW_WIDTH, (6,), 1),
    (("general-depth1",), (2,), 16),
    (("and-depth1", "anddg-depth1"), (2,), 6),
    (("general-depth1",), (3,), 1),
    (("and-depth1", "anddg-depth1"), (3,), 6),
    (("and-depth1", "anddg-depth1"), (4,), 1),
)

#: (construction, n values, mutants per n): one nonzero rotation of a term
#: on the target negated, which the verifier sees at its first basis input.
MUTANT_CELLS = (
    ("general-lowwidth", (2, 3, 4), 2),
    ("general-depth1", (2, 3), 2),
)

#: Correct circuits wider than the dense verifier's 24-qubit cap.
BEYOND_CAP = (("general-depth1", 4), ("and-depth1", 5), ("anddg-depth1", 5))


def _paired_and(n: int) -> np.ndarray:
    """(x1 & x2) ^ (x3 & x4) ^ ... ^ x_n when n is odd: a fixed input."""
    idx = _index(n)
    bits = np.zeros(1 << n, dtype=np.uint8)
    for i in range(1, n, 2):
        bits ^= _var(idx, i) & _var(idx, i + 1)
    if n % 2:
        bits ^= _var(idx, n)
    return bits


def _parity(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & 1).astype(np.uint8)


def _invertible(rng: np.random.Generator, n: int) -> list[int]:
    """Rows of a uniformly random invertible n x n matrix over GF(2)."""
    while True:
        rows = [int(r) for r in rng.integers(0, 1 << n, size=n)]
        basis: list[int] = []
        for r in rows:
            for b in basis:
                r = min(r, r ^ b)
            if r:
                basis.append(r)
        if len(basis) == n:
            return rows


def affine_equivalent(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """``base(Ax + b)`` for a seeded random invertible A and random b.  Its
    Walsh-Hadamard spectrum is the base's, permuted and with signs changed,
    and its coefficient at 0 is the base's: every seed then gives the same
    rotations up to sign, and so the same gate counts.  (A linear term or
    a complement would move or negate that coefficient, which the general
    forms lift into a rotation on the target.)"""
    n = base.size.bit_length() - 1
    idx = _index(n)
    image = np.zeros_like(idx)
    for i, row in enumerate(_invertible(rng, n)):
        image |= _parity(idx & row).astype(np.int64) << i
    return base[image ^ int(rng.integers(0, 1 << n))]


def verify_sweep(seed: int) -> list[Job]:
    """Each function at n variables is a seeded affine equivalent of one
    base function per n, drawn from ``FIXED_SEED``.  Every job of one
    construction and n then costs the same, on every seed, while the
    functions, states and mutated rotations vary with the seed."""
    rng = _rng("verify-sweep", seed)
    base_rng = np.random.default_rng([FIXED_SEED, WORKLOADS.index("verify-sweep")])
    bases = {n: base_rng.integers(0, 2, size=1 << n, dtype=np.uint8)
             for n in range(2, 7)}
    jobs = []

    def seed_for_job() -> int:
        return int(rng.integers(1, 2**31))

    def function(n: int) -> np.ndarray:
        return affine_equivalent(rng, bases[n])

    for forms, sizes, count in VERIFY_CELLS:
        for n in sizes:
            for _ in range(count):
                for kind in forms:
                    jobs.append(Job(kind, n, function(n), verify_seed=seed_for_job(),
                                    expect="PASS"))
    for kind, sizes, count in MUTANT_CELLS:
        for n in sizes:
            for _ in range(count):
                jobs.append(Job(kind, n, function(n), verify_seed=seed_for_job(),
                                expect="FAIL", mutate=float(rng.random())))
    for kind, n in BEYOND_CAP:
        jobs.append(Job(kind, n, _paired_and(n), verify_seed=1, expect="PASS",
                        beyond_cap=True))
    return jobs


MAKERS = {
    "compile-random": compile_random,
    "compile-sparse": compile_sparse,
    "verify-sweep": verify_sweep,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return _interleaved(MAKERS[workload](seed), workload)
