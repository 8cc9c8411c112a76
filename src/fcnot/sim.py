"""Exact verification against the brute-force oracle, and the dense
reference simulator.

``verify`` compares every synthesized circuit with the reference permutation
``|x>|y> -> |x>|y xor f(x)>`` by an exact sum over paths (Amy,
arXiv:1805.06908): all legal basis inputs run through the circuit at once
as integer rows ``coef * w**e / sqrt(2)**h`` on basis indices, with ``w =
exp(i pi / 2**62)`` for every circuit.  The rows are kept in a canonical
form, so amplitudes compare with no float tolerance.  Per measurement
branch the circuit is linear: if every input lands on its oracle image
with one common amplitude, every superposition of legal inputs does too,
so no random states are needed.  ``oracle`` gives the legal inputs and
their images as arrays, computed from the truth table alone, so the
ground truth stays independent of synthesis.

The circuit runs as a segment plan, built by the only pass over the
circuit's elements, before any row work.  Hadamards and
measurement-conditioned blocks split it into runs of CNOT, X, S, Sdg and
R1 gates; each run is an affine map on the wires plus a phase polynomial,
applied to all rows in one step, with the phases evaluated parity by
parity or by one integer Walsh-Hadamard transform, whichever the run's own
counts make cheaper.  Rows hold only the wires that can be nonzero between
steps: n + 1 for emitted circuits, one 64-bit word, so every construction
verifies up to n = 16 (general-depth1 at n = 16, 131071 qubits, in about
0.2 s on a 2-vCPU Xeon VM; the other constructions in 0.05 to 0.17 s).
There is no qubit cap; circuits whose plan work exceeds ``WORK_BOUND`` row
updates, or with a rotation finer than ``pi / 2**62``, are reported
UNVERIFIABLE before any row work starts.  No random state is drawn and no
tolerance applies; ``seed`` is only echoed in the report.

``apply`` runs Clifford+R1 gates on dense statevectors.  A
measurement-conditioned block splits the state into the two Z-basis
projections of the measured qubit; the block body runs only in the
outcome-1 branch and simulation continues independently per branch.  The
tests check ``verify`` and the paper's diagonal decomposition against it.

Amplitude index convention: qubit q is bit q of the index.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from .boolfn import TruthTable, walsh_hadamard
from .circuit import Circuit, ConditionedBlock, Gate, GateKind
from .synth import SynthesisResult, TargetContract

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


# ---------------------------------------------------------------------------
# Reference oracle


def oracle(f: TruthTable, contract: TargetContract) -> tuple[np.ndarray, np.ndarray]:
    """The ground-truth permutation ``|x>|y> -> |x>|y xor f(x)>`` on the
    contract's legal basis inputs, as two int64 arrays: the inputs ``x + y
    * 2**n`` in order of x (for the arbitrary contract, every y = 0 input
    first), and their images ``x + (y xor f(x)) * 2**n``.  It reads only
    ``f.bits``."""
    n = f.n
    flip = np.array(f.bits, dtype=np.int64) << n  # f(x) on the target bit
    if contract is TargetContract.ARBITRARY:
        inputs = np.arange(2 << n, dtype=np.int64)
        flip = np.concatenate((flip, flip))
    else:
        inputs = np.arange(1 << n, dtype=np.int64)
        if contract is TargetContract.F_OF_X:
            inputs |= flip
    return inputs, inputs ^ flip


# ---------------------------------------------------------------------------
# Verification: exact sum over paths of every legal input at once


#: Largest verification work verify() takes on, in row updates: a Hadamard
#: writes two rows per row it reads, and a run of the plan costs what its
#: cheaper phase evaluation costs (see :meth:`_Run.cost`).  A row is one
#: uint64 word per 64 slots, and every step's work on a row grows with its
#: width, so a row update is counted once per word.  The plan bounds the
#: work before any row work starts, taking each step to see the most rows
#: it can, legal inputs x 2**(Hadamards before it); circuits over the bound
#: are reported UNVERIFIABLE.  Every circuit the compiler emits has one-word
#: rows and stays below it: the most, 3.3 million, is general-lowwidth or
#: general-depth1 at n = 16.  At the bound, a circuit of Hadamards on 20
#: idle wires holds about 700 MiB of rows; wider rows leave fewer of them.
WORK_BOUND = 1 << 23


@dataclass(frozen=True, kw_only=True)
class VerificationReport:
    """Outcome of checking one synthesized circuit against the oracle.

    ``seed`` echoes the argument.  ``max_infidelity`` is 0.0 on PASS and
    the counterexample's infidelity on FAIL.  ``max_branches`` counts the
    measurement branches reached, ``peak_support`` is the most path-sum
    rows one input ever held, and ``row_updates`` is the row work done,
    counted as ``WORK_BOUND`` counts it (0 when no row work ran).
    """

    construction: str
    function: str
    basis_inputs: int = 0
    seed: int
    max_infidelity: float = 0.0
    aux_restored: bool = True
    verdict: str
    counterexample: str | None = None
    max_branches: int = 0
    peak_support: int = 0
    row_updates: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self))


_FIELDS = ("branch", "inp", "idx", "h", "e", "coef")


@dataclass
class _Terms:
    """Path-sum rows of all legal inputs at once.

    Row r is the term ``coef * w**e / sqrt(2)**h`` on basis index ``idx[r]``
    for input number ``inp[r]`` in measurement branch ``branch[r]``, where
    ``w = exp(i pi / 2**62)`` for every circuit: each angle verify() takes
    on is a multiple of ``pi / 2**62``.  Rows hold only the plan's slots,
    the wires that can be nonzero at some step boundary; every other wire
    is |0> there.  Slot s is bit ``s % 64`` of the uint64 word ``idx[r, s
    // 64]``.  Phases add to the uint64 ``e``, which only has to be right
    modulo the period ``2**63`` of ``w``.  Since ``w**(2**62) = -1``, the
    powers ``w**0 .. w**(2**62 - 1)`` are an integer basis of the
    amplitudes: before each merge and at the end, ``e`` is reduced into
    ``[0, 2**62)`` and one row kept per (branch, inp, idx, e) with a
    nonzero coefficient, which makes the form canonical, so amplitudes
    compare exactly.
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

    def bit(self, s: int) -> np.ndarray:
        return (self.idx[:, s >> 6] >> (s & 63)) & 1

    def terms(self, rows) -> np.ndarray:
        """The complex value of each term at ``rows``."""
        phases = np.exp(1j * math.pi * self.e[rows] / (1 << _MAX_K))
        return self.coef[rows] * phases / math.sqrt(2.0) ** self.h[rows]


_H, _X, _CNOT = GateKind.H, GateKind.X, GateKind.CNOT
_ONE = np.uint64(1)

#: Finest rotation verify() takes on: angles are multiples of pi / 2**_MAX_K,
#: and phases are powers of ``w = exp(i pi / 2**_MAX_K)``, of period _PERIOD.
_MAX_K = 62
_PERIOD = 2 << _MAX_K


class _Refused(Exception):
    """The plan will not be run; the message says why."""


def _phase_exponent(g: Gate) -> int:
    """The power of ``w`` that the phase gate ``g`` puts on |1>, mod
    ``_PERIOD``.  Raises :class:`_Refused` for a rotation finer than ``pi /
    2**_MAX_K``."""
    if g.kind is GateKind.S:
        return 1 << (_MAX_K - 1)
    if g.kind is GateKind.SDG:
        return 3 << (_MAX_K - 1)
    a = g.angle
    shift = _MAX_K + 1 - a.denominator.bit_length()
    if shift < 0:
        raise _Refused(f"unverifiable rotation angle (finer than pi/2**{_MAX_K})")
    step = a.numerator << shift
    return (step if g.kind is GateKind.R1 else -step) % _PERIOD


def _canonical(t: _Terms) -> None:
    """Reduce every ``e`` into ``[0, 2**_MAX_K)``, moving ``w**(2**_MAX_K) =
    -1`` into the sign of ``coef``."""
    flip = ((t.e >> _MAX_K) & 1).astype(bool)
    t.coef = np.where(flip, -t.coef, t.coef)
    t.e &= (1 << _MAX_K) - 1


def _merge(t: _Terms) -> _Terms:
    """Sum the rows that share (branch, inp, idx, e) and drop zero rows."""
    _canonical(t)
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


def _h_rows(t: _Terms, s: int) -> _Terms:
    """H on slot s of every row, unmerged: row r becomes rows 2r (slot s
    clear) and 2r + 1 (slot s set, sign flipped where s was set)."""
    word, bit = s >> 6, np.uint64(1 << (s & 63))
    idx = t.idx.repeat(2, axis=0)
    idx[0::2, word] &= ~bit
    idx[1::2, word] |= bit
    coef = t.coef.repeat(2)
    coef[1::2] *= 1 - 2 * t.bit(s).astype(np.int64)
    return _Terms(t.branch.repeat(2), t.inp.repeat(2), idx, t.h.repeat(2) + 1,
                  t.e.repeat(2), coef)


def _hadamard(t: _Terms, s: int) -> _Terms:
    """Apply H to slot s of every row; returns the merged new rows."""
    if not t.branch.any() and (t.inp[1:] > t.inp[:-1]).all():
        # One row per input, in input order, as before the first Hadamard:
        # no two new rows share an index, and with each row's halves side
        # by side they are already in merged order.
        new = _h_rows(t, s)
        _canonical(new)
        return new
    # no name holds the unmerged rows, so _merge can free them as it sorts
    return _merge(_h_rows(t, s))


def _words(masks: list[int], words: int) -> np.ndarray:
    """Slot masks as rows of uint64 words, laid out like ``_Terms.idx``."""
    data = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").reshape(-1, words)


def _parity(idx: np.ndarray, masks: list[int]) -> np.ndarray:
    """The uint64 parities ``popcount(idx[r] & masks[j]) % 2``, shaped
    (rows, masks).  The words are folded by XOR, which keeps the parity,
    so no (rows, masks, words) array is made."""
    m = _words(masks, idx.shape[1])
    folded = reduce(np.bitwise_xor, (idx[:, j, None] & m[:, j] for j in range(idx.shape[1])))
    return np.bitwise_count(folded) & _ONE


def _gather(a: np.ndarray, slots: list[int]) -> np.ndarray:
    """Pack the bits of each row of words ``a`` at the ascending ``slots``
    into one integer per row."""
    out = np.zeros(len(a), dtype=np.uint64)
    for j, s in enumerate(slots):
        out |= ((a[:, s >> 6] >> (s & 63)) & 1) << j
    return out


#: The transform's fixed cost in row updates: about 40 us of numpy calls,
#: the time a direct evaluation takes for some 12000 row updates (measured
#: on a 2-vCPU Xeon VM).
_TRANSFORM_START = 12000


class _Run:
    """A run of CNOT, X, S, Sdg and R1 gates between Hadamards and block
    edges, as the map it makes on the slot values z at its start: an
    affine map on the wires plus a phase polynomial (Amy, Maslov & Mosca,
    arXiv:1303.2042).

    Slot ``slots[j]`` ends holding the parity ``rewrites[j] . z`` XOR
    ``flips[j]``; every other slot keeps its value.  Each row gains the
    phase exponent ``constant + sum_j exponents[j] * (masks[j] . z)`` over
    the distinct parities ``masks``, which :meth:`apply` evaluates either
    parity by parity, or for every z at once from one integer
    Walsh-Hadamard transform of the exponent table ``acc`` over the s
    slots the masks touch: ``sum_m acc[m] (m . z) = (sum(acc) -
    WHT(acc)(z)) / 2``.
    """

    def __init__(self, phases: dict[int, int], constant: int,
                 rewrites: dict[int, int]) -> None:
        """``phases`` maps slot masks to exponents; ``rewrites`` maps slots
        to their affine masks (bit 0 the constant, bit s + 1 slot s)."""
        self.masks = list(phases)
        self.exponents = np.array(list(phases.values()), dtype=np.uint64)
        self.constant = constant
        self.slots = list(rewrites)
        self.rewrites = [m >> 1 for m in rewrites.values()]
        self.flips = [m & 1 for m in rewrites.values()]
        support = 0
        for m in self.masks:
            support |= m
        self.support = [s for s in range(support.bit_length()) if support >> s & 1]

    def cost(self, rows: int) -> tuple[int, bool]:
        """(row updates, whether to use the transform) on ``rows`` rows.
        The direct evaluation updates every row once per parity; the
        transform updates each of its ``s * 2**s`` table entries once and
        then every row once.  Both update every row once per rewritten
        slot."""
        s = len(self.support)
        direct = rows * len(self.masks)
        transform = (s << s) + rows
        use = transform + _TRANSFORM_START < direct
        return (transform if use else direct) + rows * len(self.slots), use

    def apply(self, t: _Terms) -> int:
        """Apply the run to every row; returns the row updates done."""
        cost, transform = self.cost(t.e.size)
        masks = self.rewrites if transform else self.rewrites + self.masks
        parity = _parity(t.idx, masks) if masks else None
        if transform:
            table = np.zeros(1 << len(self.support), dtype=np.uint64)
            masks = _words(self.masks, t.idx.shape[1])
            table[_gather(masks, self.support)] = self.exponents
            spectrum = walsh_hadamard(table.view(np.int64)).view(np.uint64)
            # 2 * phase(z) is exact modulo 2**64, so phase(z) is exact
            # modulo 2**63, the period of w.
            t.e += (table.sum() - spectrum)[_gather(t.idx, self.support)] >> 1
        elif self.masks:
            t.e += parity[:, len(self.slots):] @ self.exponents
        if self.constant:
            t.e += self.constant
        for j, s in enumerate(self.slots):
            t.idx[:, s >> 6] &= ~np.uint64(1 << (s & 63))
            t.idx[:, s >> 6] |= (parity[:, j] ^ self.flips[j]) << (s & 63)
        return cost


@dataclass(frozen=True)
class _Block:
    """Measure ``wire`` (slot ``slot``) and run ``body`` on the outcome-1
    rows."""

    wire: int
    slot: int
    body: list


class _Plan:
    """The circuit as steps on compact rows, made by one static pass before
    any row work.  A step is a :class:`_Run`, a :class:`_Block` or, as an
    int, a Hadamard on that slot.

    The pass tracks which wires can be nonzero (``live``): the controls and
    the target at the start, each wire a Hadamard touches, and each wire a
    run leaves on a nonzero parity.  It hands them slots as they go live,
    in ``start`` order first.  It keeps one affine parity mask per wire
    over the live slots at the current run's start, with bit 0 for X's
    constant; between runs a live wire's mask is its own slot and any
    other wire's is 0.  A CNOT XORs the control's mask into the target's,
    an X flips bit 0, and a phase gate adds its exponent (a power of ``w =
    exp(i pi / 2**_MAX_K)``, computed when the pass first meets that
    distinct gate of the circuit or block body) to its wire's current mask
    in a table; a Hadamard or a block ends the run, and only the wires a
    CNOT or X changed are looked at again.  ``work`` is the row updates of
    the plan with every step seeing the most rows it can, ``inputs <<
    (Hadamards before it)``.

    The pass raises :class:`_Refused` at the first of two points: the work,
    counted once per word of a row, passes ``WORK_BOUND`` at the end of a
    run, or a rotation finer than ``pi / 2**_MAX_K`` comes up.  So a circuit
    over the bound before its first too-fine rotation is refused for its
    size.
    """

    def __init__(self, circuit: Circuit, start: list[int], inputs: int) -> None:
        self.slot = {q: s for s, q in enumerate(start)}
        self.live = set(start)
        self.masks = [0] * circuit.qubit_count
        for q, s in self.slot.items():
            self.masks[q] = 2 << s
        self.rows = inputs
        self.work = 0
        self.steps = self._steps(circuit)

    @property
    def words(self) -> int:
        """The uint64 words of a row, one per 64 slots."""
        return (len(self.slot) + 63) >> 6

    def _slot_of(self, q: int) -> int:
        return self.slot.setdefault(q, len(self.slot))

    def _go_live(self, q: int) -> None:
        self.live.add(q)
        self.masks[q] = 2 << self._slot_of(q)

    def _steps(self, circuit: Circuit) -> list:
        steps: list = []
        masks, live = self.masks, self.live
        exponents: list[int | None] = [None] * len(circuit.distinct)
        acc: dict[int, int] = {}
        changed: set[int] = set()
        for i, el in zip(circuit.order.tolist(), circuit.elements):
            if type(el) is Gate:
                kind = el.kind
                if kind is _CNOT:
                    control, target = el.qubits
                    masks[target] ^= masks[control]
                    changed.add(target)
                    continue
                if kind is _X:
                    q = el.qubits[0]
                    masks[q] ^= 1
                    changed.add(q)
                    continue
                if kind is not _H:
                    e = exponents[i]
                    if e is None:
                        e = exponents[i] = _phase_exponent(el)
                    m = masks[el.qubits[0]]
                    acc[m] = acc.get(m, 0) + e
                    continue
            self._end_run(acc, changed, steps)
            acc, changed = {}, set()
            if type(el) is Gate:
                self._go_live(el.qubits[0])
                self.work += 2 * self.rows
                self.rows *= 2
                steps.append(self.slot[el.qubits[0]])
            else:
                before = set(live)
                slot = self._slot_of(el.measured_qubit)
                steps.append(_Block(el.measured_qubit, slot, self._steps(el.body)))
                # the outcome-0 rows skip the body, so its dead wires live on
                for q in before - live:
                    self._go_live(q)
        self._end_run(acc, changed, steps)
        return steps

    def _end_run(self, acc: dict[int, int], changed: set[int], steps: list) -> None:
        phases: dict[int, int] = {}
        constant = 0
        for m, a in acc.items():
            if m & 1:  # the wire holds 1 XOR parity: a phase on 1 - parity
                constant += a
                a = -a
            if m > 1:
                phases[m >> 1] = phases.get(m >> 1, 0) + a
        phases = {m: a % _PERIOD for m, a in phases.items() if a % _PERIOD}
        masks, live, slot = self.masks, self.live, self.slot
        rewrites = {}
        for q in sorted(changed):
            m = masks[q]
            if m != (2 << slot[q] if q in live else 0):
                rewrites[self._slot_of(q)] = m
        run = _Run(phases, constant % _PERIOD, rewrites)
        if run.masks or run.constant or run.slots:
            self.work += run.cost(self.rows)[0]
            steps.append(run)
        if self.work * self.words > WORK_BOUND:
            raise _Refused(f"unverifiable at this size (at least {self.work * self.words}"
                           f" row updates > bound {WORK_BOUND})")
        for q in changed:
            if masks[q]:
                self._go_live(q)
            else:
                live.discard(q)


def _simulate(plan: _Plan, t: _Terms, inputs: int):
    """Run the plan on the rows.  Returns (rows, the measurement outcomes
    of each branch id, peak rows held by one input, row updates done)."""
    peak = 1
    work = 0
    outcomes: list[dict[int, int]] = [{}]

    def run(t: _Terms, steps, held_elsewhere) -> _Terms:
        nonlocal peak, work
        for step in steps:
            if isinstance(step, _Run):
                work += step.apply(t)
            else:
                work += 2 * t.e.size
                t = _hadamard(t, step)
                held = np.bincount(t.inp, minlength=inputs) + held_elsewhere
                peak = max(peak, int(held.max()))
        return t

    for step in plan.steps:
        if isinstance(step, _Block):
            outcome = t.bit(step.slot).astype(np.int64)
            ids, t.branch = np.unique(t.branch * 2 + outcome, return_inverse=True)
            outcomes = [{**outcomes[i >> 1], step.wire: i & 1} for i in ids.tolist()]
            rest = t.select(outcome == 0)
            body = run(t.select(outcome == 1), step.body,
                       np.bincount(rest.inp, minlength=inputs))
            t = rest.join(body)
        else:
            t = run(t, (step,), 0)
    return t, outcomes, peak, work


def _embed(slots: list[int], values: np.ndarray, words: int) -> np.ndarray:
    """Rows of the basis indices ``values`` of the start wires, bit i on
    slot ``slots[i]``, as words.  The start slots are the first, so they all
    lie in word 0."""
    bits = ((values[:, None] >> np.arange(len(slots))) & 1).astype(np.uint64)
    idx = np.zeros((values.size, words), dtype=np.uint64)
    idx[:, 0] = bits @ np.array([1 << s for s in slots], dtype=np.uint64)
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


def verify(result: SynthesisResult, f: TruthTable, *, seed: int = 1) -> VerificationReport:
    """Certify a synthesis result against the brute-force oracle, exactly.

    All legal basis inputs, auxiliaries at |0>, run through the circuit at
    once as exact sum-over-paths rows (see :class:`_Terms`), one plan step
    at a time (see :class:`_Plan`); a conditioned block splits the rows by
    the measured bit.  Per branch the circuit is linear, so it agrees with
    the oracle on every superposition of legal inputs iff every row of
    input x lands on x's oracle image (which also restores the
    auxiliaries) and every input of the branch has the same exact
    amplitude.  PASS means both hold.  A FAIL names a basis input that
    lands elsewhere, or else the equal superposition of two inputs whose
    amplitudes differ.  Circuits whose plan work exceeds ``WORK_BOUND``,
    or with rotations finer than ``pi / 2**62``, are reported UNVERIFIABLE
    before any row work starts, with the reason the plan met first.  No
    random state is drawn and no tolerance applies; ``seed`` is only echoed
    in the report.
    """
    layout = result.layout
    report = partial(VerificationReport, construction=result.kind.value,
                     function=f.hex_form(), seed=seed)
    n = f.n
    legal, images = oracle(f, result.kind.target_contract)
    inputs = legal.size
    # Start slots ordered so that rows differing only there sort as
    # basis-index words would (word 0's top bit first, the last word's
    # bottom bit last).  Other slots are numbered as their wires go live, so
    # rows that also differ on a dirty auxiliary (a FAIL) can sort
    # otherwise, which may move the last bit of the FAIL's infidelity.
    start = sorted((*layout.controls, layout.target), key=lambda q: (-(q >> 6), q & 63))
    try:
        plan = _Plan(result.circuit, start, inputs)
    except _Refused as refusal:
        return report(verdict="UNVERIFIABLE", counterexample=str(refusal))
    slot = plan.slot
    words = plan.words

    slots = [slot[q] for q in (*layout.controls, layout.target)]
    expected = _embed(slots, images, words)
    zeros = np.zeros(inputs, dtype=np.int64)
    rows = _Terms(zeros, np.arange(inputs), _embed(slots, legal, words),
                  zeros.copy(), np.zeros(inputs, dtype=np.uint64),
                  np.ones(inputs, dtype=np.int64))
    t, outcomes, peak, work = _simulate(plan, rows, inputs)
    work *= words
    _canonical(t)

    # An auxiliary wire with no slot is |0> at the end.
    aux = np.zeros(words, dtype=np.uint64)
    for q in layout.aux:
        if q in slot:
            aux[slot[q] >> 6] |= np.uint64(1 << (slot[q] & 63))
    aux_ok = not (t.idx & aux).any()

    def label(i: int) -> str:
        y, x = divmod(int(legal[i]), 1 << n)
        return f"basis x={x:0{n}b} y={y}"

    off = np.flatnonzero((t.idx != expected[t.inp]).any(axis=1))
    if off.size:
        # the first basis input that lands off its image, in its first branch
        r = off[np.lexsort((t.branch[off], t.inp[off]))[0]]
        b, i = int(t.branch[r]), int(t.inp[r])
        mine = np.flatnonzero((t.branch == b) & (t.inp == i))
        # its amplitude on each basis index it reaches, the terms summed in
        # row order, and the norm over the indices in order of first reach
        keys, first, index = np.unique(t.idx[mine], axis=0, return_index=True,
                                       return_inverse=True)
        terms = t.terms(mine)
        re, im = (np.bincount(index, part) for part in (terms.real, terms.imag))
        # np.hypot is bit for bit abs(complex); float ** 2 is libm pow, which
        # can differ from numpy's x * x in the last bit, so it squares here
        size = np.hypot(re, im).tolist()
        norm = math.sqrt(sum(size[g] ** 2 for g in np.argsort(first).tolist()))
        hit = np.flatnonzero((keys == expected[i]).all(axis=1)).tolist()
        infidelity = 1.0 - (size[hit[0]] if hit else 0.0) / norm
        what = label(i)
    else:
        found = _unequal_amplitude(t, inputs)
        if found is None:
            return report(verdict="PASS", basis_inputs=inputs, aux_restored=aux_ok,
                          max_branches=len(outcomes), peak_support=peak, row_updates=work)
        b, i = found
        a0, a1 = (complex(np.sum(t.terms((t.branch == b) & (t.inp == j)))) for j in (0, i))
        fidelity = abs(a0 + a1) / math.sqrt(2.0 * (abs(a0) ** 2 + abs(a1) ** 2))
        infidelity = 1.0 - fidelity
        what = f"({label(0)} + {label(i)})/sqrt2"
    return report(
        verdict="FAIL",
        basis_inputs=inputs,
        max_infidelity=infidelity,
        aux_restored=aux_ok,
        counterexample=f"input {what}, outcomes {outcomes[b]}, infidelity {infidelity:.3e}",
        max_branches=len(outcomes),
        peak_support=peak,
        row_updates=work,
    )

