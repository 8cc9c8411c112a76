"""Exact verification against the brute-force oracle, and the dense
reference simulator.

``verify`` compares every synthesized circuit with the reference permutation
``|x>|y> -> |x>|y xor f(x)>`` by an exact sum over paths: all legal basis
inputs run through the circuit at once as integer rows ``coef * w**e /
sqrt(2)**h`` on basis indices, with ``w`` a power-of-two root of unity.  The
rows are kept in a canonical form, so amplitudes compare with no float
tolerance.  Per measurement branch the circuit is linear: if every input
lands on its oracle image with one common amplitude, every superposition of
legal inputs does too, so no random states are needed.  There is no qubit
cap; circuits whose work (legal inputs x gates x 2**Hadamards) exceeds
``WORK_BOUND`` are reported UNVERIFIABLE before any work starts.  No
random state is drawn and no tolerance applies: ``random_states`` and
``tolerance`` are accepted for compatibility and ignored, and ``seed`` is
only echoed in the report.

``apply`` runs Clifford+R1 gates on dense statevectors.  A
measurement-conditioned block splits the state into the two Z-basis
projections of the measured qubit; the block body runs only in the
outcome-1 branch and simulation continues independently per branch.  It
is the reference that the tests check ``verify`` against.

Amplitude index convention: qubit q is bit q of the index.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .boolfn import TruthTable, lifted_spectrum, pm_one_vector, spectrum
from .circuit import Circuit, ConditionedBlock, Gate, GateKind
from .synth import ConstructionKind, SynthesisResult, TargetContract

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: Branches below this probability are dropped.
PRUNE_THRESHOLD = 1e-14

_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# States and branches


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state on ``qubit_count`` qubits."""

    qubit_count: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (1 << self.qubit_count,):
            raise ValueError("amplitude count must be 2**qubit_count")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized (norm {norm})")

    @classmethod
    def basis(cls, qubit_count: int, index: int) -> "StateVector":
        amps = np.zeros(1 << qubit_count, dtype=complex)
        amps[index] = 1.0
        return cls(qubit_count, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        a = np.asarray(amps, dtype=complex)
        m = int(a.size - 1).bit_length()
        return cls(m, a / np.linalg.norm(a))


@dataclass(frozen=True)
class Branch:
    """One measurement branch: outcomes seen so far, its probability, and
    the normalized post-measurement state."""

    outcomes: dict[int, int]
    probability: float
    state: StateVector


@dataclass(frozen=True)
class BranchedState:
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        total = sum(b.probability for b in self.branches)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"branch probabilities sum to {total}, not 1")


# ---------------------------------------------------------------------------
# Gate kernels (in-place on a complex amplitude array)


def _phase_factor(angle: Fraction) -> complex:
    return cmath.exp(1j * math.pi * (angle.numerator / angle.denominator))


def _halves(amps: np.ndarray, q: int) -> np.ndarray:
    return amps.reshape(-1, 2, 1 << q)


def _apply_gate(amps: np.ndarray, gate: Gate, m: int) -> None:
    kind = gate.kind
    if kind is GateKind.CNOT:
        control, target = gate.qubits
        view = amps.reshape([2] * m)
        i10 = [slice(None)] * m
        i11 = [slice(None)] * m
        i10[m - 1 - control], i10[m - 1 - target] = 1, 0
        i11[m - 1 - control], i11[m - 1 - target] = 1, 1
        swapped = view[tuple(i10)].copy()
        view[tuple(i10)] = view[tuple(i11)]
        view[tuple(i11)] = swapped
        return
    (q,) = gate.qubits
    a = _halves(amps, q)
    if kind is GateKind.H:
        lo = (a[:, 0, :] + a[:, 1, :]) * _SQRT1_2
        hi = (a[:, 0, :] - a[:, 1, :]) * _SQRT1_2
        a[:, 0, :] = lo
        a[:, 1, :] = hi
    elif kind is GateKind.X:
        lo = a[:, 0, :].copy()
        a[:, 0, :] = a[:, 1, :]
        a[:, 1, :] = lo
    elif kind is GateKind.S:
        a[:, 1, :] *= 1j
    elif kind is GateKind.SDG:
        a[:, 1, :] *= -1j
    elif kind is GateKind.R1:
        a[:, 1, :] *= _phase_factor(gate.angle)
    else:  # R1DG
        a[:, 1, :] *= _phase_factor(-gate.angle)


def _measure_split(amps: np.ndarray, q: int) -> list[tuple[int, float, np.ndarray]]:
    """Project onto the two Z outcomes of qubit q.  Returns up to two
    (outcome, probability, normalized amplitudes) entries."""
    a = _halves(amps, q)
    p1 = float(np.sum(np.abs(a[:, 1, :]) ** 2))
    p0 = float(np.sum(np.abs(a[:, 0, :]) ** 2))
    outcomes = []
    for outcome, p in ((0, p0), (1, p1)):
        if p < PRUNE_THRESHOLD:
            continue
        projected = amps.copy()
        _halves(projected, q)[:, 1 - outcome, :] = 0.0
        projected /= math.sqrt(p)
        outcomes.append((outcome, p, projected))
    return outcomes


def apply(c: Circuit, state: StateVector) -> BranchedState:
    """Run the circuit on ``state``.  Measurement-free circuits return a
    single branch of probability 1."""
    if state.qubit_count != c.qubit_count:
        raise ValueError(
            f"state has {state.qubit_count} qubits, circuit {c.qubit_count}"
        )
    m = c.qubit_count
    branches = [({}, 1.0, state.amplitudes.astype(complex, copy=True))]
    for el in c.elements:
        if isinstance(el, ConditionedBlock):
            split = []
            for outcomes, prob, amps in branches:
                for outcome, p, projected in _measure_split(amps, el.measured_qubit):
                    if prob * p < PRUNE_THRESHOLD:
                        continue
                    if outcome == 1:
                        for g in el.body.elements:
                            _apply_gate(projected, g, m)
                    record = dict(outcomes)
                    record[el.measured_qubit] = outcome
                    split.append((record, prob * p, projected))
            branches = split
        else:
            for _, _, amps in branches:
                _apply_gate(amps, el, m)
    return BranchedState(
        tuple(
            Branch(outcomes, prob, StateVector(m, amps))
            for outcomes, prob, amps in branches
        )
    )


def state_equal_up_to_phase(a: StateVector, b: StateVector, tol: float) -> bool:
    """True iff the overlap magnitude ``|<a|b>|`` is at least ``1 - tol``."""
    return abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol


# ---------------------------------------------------------------------------
# Reference oracle


class OracleMode(Enum):
    GENERAL = "general"
    TARGET_ZERO = "target_zero"
    TARGET_FX = "target_fx"


_MODE_OF_CONTRACT = {
    TargetContract.ARBITRARY: OracleMode.GENERAL,
    TargetContract.ZERO: OracleMode.TARGET_ZERO,
    TargetContract.F_OF_X: OracleMode.TARGET_FX,
}


def oracle_mode(kind: ConstructionKind) -> OracleMode:
    return _MODE_OF_CONTRACT[kind.target_contract]


def legal_basis_inputs(f: TruthTable, mode: OracleMode) -> list[tuple[int, int]]:
    """The (x, y) basis pairs the mode's contract covers."""
    xs = range(1 << f.n)
    if mode is OracleMode.GENERAL:
        return [(x, y) for y in (0, 1) for x in xs]
    if mode is OracleMode.TARGET_ZERO:
        return [(x, 0) for x in xs]
    return [(x, f.bits[x]) for x in xs]


def oracle_unitary(f: TruthTable, mode: OracleMode) -> Callable[[int], int]:
    """Ground-truth permutation on basis indices ``x + y * 2**n``:
    ``|x>|y> -> |x>|y xor f(x)>``, restricted to the mode's legal inputs."""
    n = f.n
    legal = {x + (y << n) for x, y in legal_basis_inputs(f, mode)}

    def image(index: int) -> int:
        if index not in legal:
            raise ValueError(f"basis index {index} is outside the legal subspace")
        x = index & ((1 << n) - 1)
        y = index >> n
        return x + ((y ^ f.bits[x]) << n)

    return image


# ---------------------------------------------------------------------------
# Verification: exact sum over paths of every legal input at once


#: Largest verification work verify() takes on, in row updates: legal
#: inputs x gates x 2**(Hadamard gates), which bounds the path-sum rows
#: every gate can touch.  Larger circuits are reported UNVERIFIABLE before
#: any work starts.
WORK_BOUND = 1 << 30


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one synthesized circuit against the oracle.

    ``random_inputs`` and ``tolerance`` are what the check used, always 0:
    the exact check covers every superposition with no random input and no
    float tolerance.  ``seed`` echoes the argument.
    ``max_infidelity`` is 0.0 on PASS and the counterexample's infidelity on
    FAIL.  ``max_branches`` counts the measurement branches reached and
    ``peak_support`` is the most path-sum rows one input ever held.
    """

    construction: str
    function: str
    basis_inputs: int
    random_inputs: int
    seed: int
    tolerance: float
    max_infidelity: float
    aux_restored: bool
    verdict: str
    counterexample: str | None
    max_branches: int
    peak_support: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


_FIELDS = ("branch", "inp", "idx", "h", "e", "coef")


@dataclass
class _Terms:
    """Path-sum rows of all legal inputs at once.

    Row r is the term ``coef * w**e / sqrt(2)**h`` on basis index ``idx[r]``
    for input number ``inp[r]`` in measurement branch ``branch[r]``, where
    ``w = exp(i pi / 2**k)``.  Qubit q is bit ``q % 64`` of the uint64 word
    ``idx[r, q // 64]``.  Phase gates add to the uint64 ``e`` modulo
    ``2**64``, a multiple of the period ``2**(k + 1)`` of ``w``.  Since
    ``w**(2**k) = -1``, the powers ``w**0 .. w**(2**k - 1)`` are an integer
    basis of the amplitudes: before each merge and at the end, ``e`` is
    reduced into ``[0, 2**k)`` and one row kept per (branch, inp, idx, e)
    with a nonzero coefficient, which makes the form canonical, so
    amplitudes compare exactly.
    """

    branch: np.ndarray
    inp: np.ndarray
    idx: np.ndarray
    h: np.ndarray
    e: np.ndarray
    coef: np.ndarray

    def select(self, rows) -> "_Terms":
        return _Terms(*(getattr(self, name)[rows] for name in _FIELDS))

    def join(self, other: "_Terms") -> "_Terms":
        return _Terms(*(np.concatenate((getattr(self, name), getattr(other, name)))
                        for name in _FIELDS))

    def bit(self, q: int) -> np.ndarray:
        return (self.idx[:, q >> 6] >> (q & 63)) & 1

    def amplitude(self, rows, k: int) -> complex:
        """The complex sum of the terms at ``rows``."""
        phases = np.exp(1j * math.pi * self.e[rows] / (1 << k))
        return complex(np.sum(self.coef[rows] * phases / math.sqrt(2.0) ** self.h[rows]))


def _phase_exponent(g: Gate, k: int) -> int:
    """The power of ``w = exp(i pi / 2**k)`` that ``g`` puts on |1>, mod
    ``2**(k + 1)``."""
    if g.kind is GateKind.S:
        return 1 << (k - 1)
    if g.kind is GateKind.SDG:
        return 3 << (k - 1)
    a = g.angle
    step = a.numerator << (k + 1 - a.denominator.bit_length())
    return (step if g.kind is GateKind.R1 else -step) % (2 << k)


def _canonical(t: _Terms, k: int) -> None:
    """Reduce every ``e`` into ``[0, 2**k)``, moving ``w**(2**k) = -1`` into
    the sign of ``coef``."""
    flip = ((t.e >> k) & 1).astype(bool)
    t.coef = np.where(flip, -t.coef, t.coef)
    t.e &= (1 << k) - 1


def _merge(t: _Terms, k: int) -> _Terms:
    """Sum the rows that share (branch, inp, idx, e) and drop zero rows."""
    _canonical(t, k)
    t = t.select(np.lexsort((*t.idx.T[::-1], t.e, t.inp, t.branch)))
    new = np.ones(t.e.size, dtype=bool)
    new[1:] = ((t.idx[1:] != t.idx[:-1]).any(axis=1) | (t.e[1:] != t.e[:-1])
               | (t.inp[1:] != t.inp[:-1]) | (t.branch[1:] != t.branch[:-1]))
    starts = np.flatnonzero(new)
    coef = np.add.reduceat(t.coef, starts)
    keep = coef != 0
    t = t.select(starts[keep])
    t.coef = coef[keep]
    return t


def _apply_terms(t: _Terms, g: Gate, k: int) -> _Terms:
    """Apply one gate to every row; returns the (possibly new) rows."""
    kind = g.kind
    if kind is GateKind.CNOT:
        control, target = g.qubits
        t.idx[:, target >> 6] ^= t.bit(control) << (target & 63)
        return t
    (q,) = g.qubits
    if kind is GateKind.X:
        t.idx[:, q >> 6] ^= 1 << (q & 63)
        return t
    if kind is GateKind.H:
        sign = 1 - 2 * t.bit(q).astype(np.int64)
        low = t.idx.copy()
        low[:, q >> 6] &= ~np.uint64(1 << (q & 63))
        high = low.copy()
        high[:, q >> 6] |= 1 << (q & 63)
        return _merge(_Terms(
            np.concatenate((t.branch, t.branch)), np.concatenate((t.inp, t.inp)),
            np.concatenate((low, high)), np.concatenate((t.h, t.h)) + 1,
            np.concatenate((t.e, t.e)), np.concatenate((t.coef, t.coef * sign)),
        ), k)
    t.e += t.bit(q) * _phase_exponent(g, k)
    return t


def _simulate(c: Circuit, t: _Terms, k: int, inputs: int):
    """Run the circuit on the rows.  Returns (rows, the measurement
    outcomes of each branch id, peak rows held by one input)."""
    peak = 1
    outcomes: list[dict[int, int]] = [{}]

    def run(t: _Terms, gates, held_elsewhere) -> _Terms:
        nonlocal peak
        for g in gates:
            t = _apply_terms(t, g, k)
            if g.kind is GateKind.H:
                held = np.bincount(t.inp, minlength=inputs) + held_elsewhere
                peak = max(peak, int(held.max()))
        return t

    for el in c.elements:
        if isinstance(el, ConditionedBlock):
            q = el.measured_qubit
            outcome = t.bit(q).astype(np.int64)
            ids, t.branch = np.unique(t.branch * 2 + outcome, return_inverse=True)
            outcomes = [{**outcomes[i >> 1], q: i & 1} for i in ids.tolist()]
            rest = t.select(outcome == 0)
            body = run(t.select(outcome == 1), el.body.elements,
                       np.bincount(rest.inp, minlength=inputs))
            t = rest.join(body)
        else:
            t = run(t, (el,), 0)
    return t, outcomes, peak


def _embed(layout, xs: np.ndarray, ys: np.ndarray, words: int) -> np.ndarray:
    """Basis indices of the (x, y) pairs, auxiliaries at |0>, as words."""
    idx = np.zeros((xs.size, words), dtype=np.uint64)
    for i, q in enumerate(layout.controls):
        idx[:, q >> 6] |= ((xs >> i) & 1).astype(np.uint64) << (q & 63)
    idx[:, layout.target >> 6] |= ys.astype(np.uint64) << (layout.target & 63)
    return idx


def _unequal_amplitude(t: _Terms, inputs: int):
    """The first (branch, input) whose amplitude differs from input 0's in
    the same branch, or None.  Expects every row on its oracle image, so an
    amplitude is its (e, coef) list."""
    t = t.select(np.lexsort((t.e, t.inp, t.branch)))
    bounds = np.flatnonzero(np.diff(t.branch)) + 1
    for rows in np.split(np.arange(t.e.size), bounds):
        counts = np.bincount(t.inp[rows], minlength=inputs)
        differs = counts != counts[0]
        if not differs.any():
            e = t.e[rows].reshape(inputs, -1)
            coef = t.coef[rows].reshape(inputs, -1)
            differs = ((e != e[0]) | (coef != coef[0])).any(axis=1)
        if differs.any():
            return int(t.branch[rows[0]]), int(np.argmax(differs))
    return None


def verify(
    result: SynthesisResult,
    f: TruthTable,
    *,
    random_states: int = 20,
    seed: int = 1,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Certify a synthesis result against the brute-force oracle, exactly.

    All legal basis inputs, auxiliaries at |0>, run through the circuit at
    once as exact sum-over-paths rows (see :class:`_Terms`); a conditioned
    block splits the rows by the measured bit.  Per branch the circuit is
    linear, so it agrees with the oracle on every superposition of legal
    inputs iff every row of input x lands on x's oracle image (which also
    restores the auxiliaries) and every input of the branch has the same
    exact amplitude.  PASS means both hold.  A FAIL names a basis input
    that lands elsewhere, or else the equal superposition of two inputs
    whose amplitudes differ.  Circuits whose work (legal inputs x gates x
    2**Hadamards) exceeds ``WORK_BOUND`` are reported UNVERIFIABLE before
    any work starts.

    ``random_states`` and ``tolerance`` are accepted for compatibility and
    ignored; ``seed`` is echoed in the report.
    """
    mode = oracle_mode(result.kind)
    circuit = result.circuit
    layout = result.layout

    def report(verdict, basis=0, infidelity=0.0, aux_ok=True,
               counter=None, branches=0, support=0):
        return VerificationReport(
            construction=result.kind.value,
            function=f.hex_form(),
            basis_inputs=basis,
            random_inputs=0,
            seed=seed,
            tolerance=0.0,
            max_infidelity=infidelity,
            aux_restored=aux_ok,
            verdict=verdict,
            counterexample=counter,
            max_branches=branches,
            peak_support=support,
        )

    gates = [g for el in circuit.elements
             for g in (el.body.elements if isinstance(el, ConditionedBlock) else (el,))]
    hadamards = sum(g.kind is GateKind.H for g in gates)
    k = max([1] + [g.angle.denominator.bit_length() - 1
                   for g in gates if g.angle is not None])
    n = f.n
    pairs = legal_basis_inputs(f, mode)
    inputs = len(pairs)
    work = inputs * len(gates) << hadamards
    if work > WORK_BOUND:
        return report(
            "UNVERIFIABLE",
            counter=f"unverifiable at this size ({work} row updates > bound {WORK_BOUND})",
        )

    image = oracle_unitary(f, mode)
    xs, ys = np.array(pairs, dtype=np.int64).T
    images = np.array([image(x + (y << n)) for x, y in pairs], dtype=np.int64)
    words = (circuit.qubit_count + 63) >> 6
    expected = _embed(layout, images & ((1 << n) - 1), images >> n, words)
    zeros = np.zeros(inputs, dtype=np.int64)
    start = _Terms(zeros, np.arange(inputs), _embed(layout, xs, ys, words), zeros.copy(),
                   np.zeros(inputs, dtype=np.uint64), np.ones(inputs, dtype=np.int64))
    t, outcomes, peak = _simulate(circuit, start, k, inputs)
    _canonical(t, k)

    aux = np.zeros(words, dtype=np.uint64)
    for q in layout.aux:
        aux[q >> 6] |= np.uint64(1 << (q & 63))
    aux_ok = not (t.idx & aux).any()

    def label(i: int) -> str:
        return f"basis x={int(xs[i]):0{n}b} y={int(ys[i])}"

    off = np.flatnonzero((t.idx != expected[t.inp]).any(axis=1))
    if off.size:
        # the first basis input that lands off its image, in its first branch
        r = off[np.lexsort((t.branch[off], t.inp[off]))[0]]
        b, i = int(t.branch[r]), int(t.inp[r])
        mine = np.flatnonzero((t.branch == b) & (t.inp == i))
        by_index: dict[bytes, complex] = {}
        for row in mine:
            key = t.idx[row].tobytes()
            by_index[key] = by_index.get(key, 0j) + t.amplitude([row], k)
        norm = math.sqrt(sum(abs(a) ** 2 for a in by_index.values()))
        infidelity = 1.0 - abs(by_index.get(expected[i].tobytes(), 0j)) / norm
        what = label(i)
    else:
        found = _unequal_amplitude(t, inputs)
        if found is None:
            return report("PASS", basis=inputs, aux_ok=aux_ok,
                          branches=len(outcomes), support=peak)
        b, i = found
        a0, a1 = (t.amplitude((t.branch == b) & (t.inp == j), k) for j in (0, i))
        fidelity = abs(a0 + a1) / math.sqrt(2.0 * (abs(a0) ** 2 + abs(a1) ** 2))
        infidelity = 1.0 - fidelity
        what = f"({label(0)} + {label(i)})/sqrt2"
    return report(
        "FAIL",
        basis=inputs,
        infidelity=infidelity,
        aux_ok=aux_ok,
        counter=f"input {what}, outcomes {outcomes[b]}, infidelity {infidelity:.3e}",
        branches=len(outcomes),
        support=peak,
    )


# ---------------------------------------------------------------------------
# Diagonal-decomposition identity


def diagonal_decomposition_check(f: TruthTable) -> bool:
    """Check that conjugating ``D = diag(pm coding of x_{n+1} and f)`` by
    Hadamards on the target reproduces the oracle permutation exactly, and
    that the lifted spectral coefficients reproduce D's phases (up to one
    global phase) through the phase-polynomial form.
    """
    n = f.n
    if n > 6:
        raise ValueError("check is limited to n <= 6")
    m = n + 1
    dim = 1 << m
    ghat = np.concatenate(
        [np.ones(1 << n), pm_one_vector(f).astype(float)]
    ).astype(complex)
    image = oracle_unitary(f, OracleMode.GENERAL)

    for k in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        _apply_gate(amps, Gate(GateKind.H, (n,)), m)
        amps *= ghat
        _apply_gate(amps, Gate(GateKind.H, (n,)), m)
        if abs(amps[image(k)] - 1.0) > 1e-9:
            return False

    # Phase-polynomial cross-check: the diagonal rebuilt from the lifted
    # coefficients must match ghat up to a single global phase.
    lifted = lifted_spectrum(spectrum(f))
    scale = math.pi / (1 << (n + 1))
    rebuilt = np.empty(dim, dtype=complex)
    for j in range(dim):
        total = sum(
            int(lifted[k]) for k in range(1, dim) if (k & j).bit_count() & 1
        )
        rebuilt[j] = cmath.exp(1j * scale * total)
    rebuilt *= ghat[0] / rebuilt[0]
    return bool(np.allclose(rebuilt, ghat, atol=1e-9, rtol=0.0))
