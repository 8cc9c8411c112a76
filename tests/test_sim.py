"""Simulator semantics, the reference oracle, and the verification harness."""

import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcnot import sim
from fcnot.boolfn import SpectralData, TruthTable, spectrum
from fcnot.circuit import Circuit, ConditionedBlock, Gate, cnot, h, r1, r1dg, s, sdg, x
from fcnot.sim import (
    StateVector,
    apply,
    oracle,
    verify,
)
from fcnot.synth import (
    ConstructionKind,
    Layout,
    SynthesisResult,
    TargetContract,
    _synthesize,
    synthesize,
)
from paper_identities import diagonal_decomposition_check

AND2 = TruthTable.from_value(2, 0b1000)


def corrupted(f: TruthTable, j: int, kind=ConstructionKind.GENERAL_LOW_WIDTH):
    """Synthesis of f with the sign of spectral coefficient j flipped."""
    sd = spectrum(f)
    coefficients = sd.coefficients.copy()
    coefficients[j] = -coefficients[j]
    mutated = SpectralData(sd.n, coefficients)
    return _synthesize(mutated, kind)


# ---------------------------------------------------------------------------
# Gate application


def test_hadamard_on_zero():
    out = apply(Circuit(1, (h(0),)), StateVector.basis(1, 0))
    assert len(out.branches) == 1
    amps = out.branches[0].state.amplitudes
    assert np.allclose(amps, [1 / math.sqrt(2)] * 2)


def test_construction_1_acts_as_toffoli_on_basis():
    circuit = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH).circuit
    # x1 = x2 = 1, y = 0 is amplitude index 3; the target flips to give 7
    out = apply(circuit, StateVector.basis(3, 0b011)).branches[0].state.amplitudes
    assert abs(out[0b111] - 1) < 1e-12
    out = apply(circuit, StateVector.basis(3, 0b001)).branches[0].state.amplitudes
    assert abs(out[0b001] - 1) < 1e-12


def test_uncompute_branches_on_and2():
    circuit = synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH).circuit
    # legal input |x1 x2> = |11>, target |f> = |1>: amplitude index 7
    out = apply(circuit, StateVector.basis(3, 0b111))
    assert len(out.branches) == 2
    for branch in out.branches:
        assert abs(branch.probability - 0.5) < 1e-12
        assert abs(abs(branch.state.amplitudes[0b011]) - 1) < 1e-12


def test_apply_rejects_width_mismatch():
    with pytest.raises(ValueError):
        apply(Circuit(2), StateVector.basis(1, 0))


def test_conditioned_block_only_runs_on_outcome_one():
    # prepare |+>, measure, flip qubit 1 in the 1-branch
    block = ConditionedBlock(0, Circuit(2, (x(1),)))
    out = apply(Circuit(2, (h(0), block)), StateVector.basis(2, 0))
    by_outcome = {br.outcomes[0]: br for br in out.branches}
    assert set(by_outcome) == {0, 1}
    assert abs(by_outcome[0].state.amplitudes[0b00] - 1) < 1e-12
    assert abs(by_outcome[1].state.amplitudes[0b11] - 1) < 1e-12


@st.composite
def random_circuits(draw):
    m = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 3))
        q = draw(st.integers(0, m - 1))
        if kind == 0:
            gates.append(h(q))
        elif kind == 1:
            gates.append(s(q))
        elif kind == 2 and m > 1:
            other = (q + 1) % m
            gates.append(cnot(q, other))
        else:
            gates.append(r1(Fraction(draw(st.integers(-4, 4)), 8), q))
    return Circuit(m, tuple(gates))


@given(random_circuits(), st.integers(0, 7))
@settings(max_examples=60)
def test_unitary_application_preserves_norm(c, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << c.qubit_count) + 1j * rng.normal(size=1 << c.qubit_count)
    amps /= np.linalg.norm(amps)
    out = apply(c, StateVector(c.qubit_count, amps))
    for branch in out.branches:
        assert abs(np.linalg.norm(branch.state.amplitudes) - 1) < 1e-12


def test_branch_probabilities_sum_to_one():
    body = Circuit(2, (x(0),))
    c = Circuit(2, (h(0), h(1), ConditionedBlock(0, body), ConditionedBlock(1, Circuit(2, (x(1),)))))
    out = apply(c, StateVector.basis(2, 0))
    assert abs(sum(br.probability for br in out.branches) - 1) < 1e-12
    assert len(out.branches) == 4


# ---------------------------------------------------------------------------
# Oracle


def images_of(f: TruthTable, contract: TargetContract) -> dict[int, int]:
    """The oracle as a map from each legal input index to its image."""
    return dict(zip(*(a.tolist() for a in oracle(f, contract))))


def test_oracle_general_and2():
    image = images_of(AND2, TargetContract.ARBITRARY)
    assert image[0b011] == 0b111
    assert image[0b111] == 0b011
    for idx in (0, 1, 2, 4, 5, 6):
        assert image[idx] == idx


def test_oracle_constant_zero_is_identity():
    f = TruthTable.from_value(2, 0)
    inputs, images = oracle(f, TargetContract.ARBITRARY)
    assert inputs.tolist() == images.tolist() == list(range(8))


def test_oracle_parity_example():
    f = TruthTable(2, (0, 1, 1, 0))  # x1 xor x2
    image = images_of(f, TargetContract.ARBITRARY)
    # x1=1, x2=0 (index 1), y=1: f = 1 so y' = 0
    assert image[0b101] == 0b001


def test_oracle_rejects_illegal_inputs():
    # y = 1 is outside the target-zero subspace, so it is no input there
    assert 0b100 not in images_of(AND2, TargetContract.ZERO)
    contracts = {
        TargetContract.ARBITRARY: 8,
        TargetContract.ZERO: 4,
        TargetContract.F_OF_X: 4,
    }
    for contract, count in contracts.items():
        inputs, images = oracle(AND2, contract)
        assert (inputs.dtype, images.dtype) == (np.int64, np.int64)
        assert inputs.size == images.size == count


@pytest.mark.parametrize("contract", list(TargetContract))
def test_oracle_matches_per_entry_brute_force(contract):
    """Every function with n <= 3: the legal inputs in order, each sent to
    ``x + (y xor f(x)) * 2**n``."""
    for n in (1, 2, 3):
        for value in range(1 << (1 << n)):
            f = TruthTable.from_value(n, value)
            xs = range(1 << n)
            if contract is TargetContract.ARBITRARY:
                pairs = [(x, y) for y in (0, 1) for x in xs]
            elif contract is TargetContract.ZERO:
                pairs = [(x, 0) for x in xs]
            else:
                pairs = [(x, f.bits[x]) for x in xs]
            inputs, images = oracle(f, contract)
            assert inputs.tolist() == [x + (y << n) for x, y in pairs]
            assert images.tolist() == [x + ((y ^ f.bits[x]) << n) for x, y in pairs]


# ---------------------------------------------------------------------------
# verify()


def test_verify_passes_construction_1_on_and2():
    result = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH)
    report = verify(result, AND2)
    assert report.verdict == "PASS"
    assert report.max_infidelity < 1e-12
    assert report.basis_inputs == 8
    assert report.aux_restored


def test_verify_fails_on_corrupted_angle():
    result = corrupted(AND2, 3)
    report = verify(result, AND2)
    assert report.verdict == "FAIL"
    assert report.counterexample is not None
    assert report.counterexample.startswith("input basis")


@pytest.mark.parametrize("kind", list(ConstructionKind))
def test_every_construction_catches_a_flipped_coefficient(kind):
    # 3-ary AND: all eight coefficients are nonzero, so every flip changes
    # the circuit, except s_0 on the |f(x)> contract, which has no term for it
    f = TruthTable.from_value(3, 1 << 7)
    verdicts = "".join(verify(corrupted(f, j, kind), f).verdict[0] for j in range(8))
    uncompute = kind.target_contract is TargetContract.F_OF_X
    assert verdicts == ("PFFFFFFF" if uncompute else "FFFFFFFF")


def test_verify_report_serializes_to_json():
    result = synthesize(AND2, ConstructionKind.ANDDG_DEPTH1)
    report = verify(result, AND2, seed=9)
    record = json.loads(report.to_json())
    assert record["verdict"] == "PASS"
    assert record["construction"] == "anddg-depth1"
    assert record["function"] == "0x8:2"
    assert record["seed"] == 9


def test_verify_reports_unverifiable_sizes(monkeypatch):
    # a Hadamard on each of 40 auxiliary wires: 4 legal inputs could spread
    # over 2**40 rows each, far over WORK_BOUND
    f = TruthTable.from_value(1, 1)
    layout = Layout(controls=(0,), target=1, aux=tuple(range(2, 42)))
    circuit = Circuit(42, tuple(h(q) for q in layout.aux), layout.roles(42))
    result = SynthesisResult(ConstructionKind.GENERAL_LOW_WIDTH, circuit, layout)

    def no_row_work(*args):
        raise AssertionError("row work started")

    monkeypatch.setattr(sim, "_simulate", no_row_work)
    report = verify(result, f)
    assert report.verdict == "UNVERIFIABLE"
    assert "unverifiable" in report.counterexample
    assert (report.max_branches, report.peak_support, report.row_updates) == (0, 0, 0)


def test_verify_fail_report_sums_many_rows_per_input():
    # Hadamards on 17 idle auxiliaries leave every input on 2**17 basis
    # indices, each with amplitude 2**-8.5; the FAIL report sums all of the
    # failing input's rows
    f = TruthTable.from_value(1, 2)
    result = synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH)
    idle = tuple(range(2, 19))
    layout = Layout(result.layout.controls, result.layout.target, idle)
    spread = Circuit(19, result.circuit.elements + tuple(h(q) for q in idle),
                     layout.roles(19))
    report = verify(SynthesisResult(result.kind, spread, layout), f)
    assert report.verdict == "FAIL"
    assert report.counterexample == "input basis x=0 y=0, outcomes {}, infidelity 9.972e-01"
    assert math.isclose(report.max_infidelity, 1 - 2 ** -8.5, rel_tol=1e-12)
    assert not report.aux_restored
    assert report.peak_support == 1 << 17


def test_verify_reports_unverifiable_angles():
    f = TruthTable.from_value(1, 0)
    result = synthesize(f, ConstructionKind.AND_LOW_WIDTH)
    fine = Circuit(2, result.circuit.elements + (r1(Fraction(1, 1 << 70), 1),),
                   result.circuit.roles)
    report = verify(dataclasses.replace(result, circuit=fine), f)
    assert report.verdict == "UNVERIFIABLE"
    assert "angle" in report.counterexample


@pytest.mark.parametrize("where", ["block", "before-bound", "after-bound"])
def test_verify_refuses_at_the_first_reason_before_row_work(monkeypatch, where):
    # the plan stops at whichever comes first: a rotation finer than
    # pi/2**62, or a run that takes the work over the bound (here the run
    # after Hadamards on 40 idle auxiliaries)
    fine = r1(Fraction(1, 1 << 70), 0)
    if where == "block":
        result = synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH)
        c = result.circuit
        *head, block = c.elements
        body = Circuit(c.qubit_count, block.body.elements + (fine,))
        elements = (*head, ConditionedBlock(block.measured_qubit, body))
        result = dataclasses.replace(result, circuit=Circuit(c.qubit_count, elements, c.roles))
    else:
        layout = Layout(controls=(0, 1), target=2, aux=tuple(range(3, 43)))
        spread = tuple(h(q) for q in layout.aux)
        body = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH).circuit.elements
        elements = ((fine,) + spread + body if where == "before-bound"
                    else spread + body + (fine,))
        result = SynthesisResult(ConstructionKind.GENERAL_LOW_WIDTH,
                                 Circuit(43, elements, layout.roles(43)), layout)

    def no_row_work(*args):
        raise AssertionError("row work started")

    monkeypatch.setattr(sim, "_simulate", no_row_work)
    report = verify(result, AND2)
    reason = ("unverifiable at this size (at least 16777200 row updates > bound 8388608)"
              if where == "after-bound" else
              "unverifiable rotation angle (finer than pi/2**62)")
    assert (report.verdict, report.counterexample) == ("UNVERIFIABLE", reason)
    assert (report.max_branches, report.peak_support, report.row_updates) == (0, 0, 0)


def test_verify_counts_row_updates_within_the_bound():
    for kind in ConstructionKind:
        report = verify(synthesize(AND2, kind), AND2)
        assert 0 < report.row_updates <= sim.WORK_BOUND
    record = json.loads(report.to_json())
    assert list(record)[-2:] == ["peak_support", "row_updates"]


@pytest.mark.parametrize("kind, n", [
    (ConstructionKind.GENERAL_DEPTH1, 4),
    (ConstructionKind.GENERAL_DEPTH1, 5),
    (ConstructionKind.GENERAL_DEPTH1, 6),  # 127 qubits, 7 slots: one index word
    (ConstructionKind.AND_DEPTH1, 5),
])
def test_verify_passes_beyond_the_old_qubit_cap(kind, n):
    rng = np.random.default_rng(n)
    f = TruthTable(n, tuple(int(b) for b in rng.integers(0, 2, size=1 << n)))
    result = synthesize(f, kind)
    assert result.circuit.qubit_count > 24
    report = verify(result, f)
    assert report.verdict == "PASS", report.counterexample
    assert report.max_infidelity == 0.0
    assert (report.max_branches, report.peak_support) == (1, 2)


def test_verify_reports_branches_and_support():
    report = verify(synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH), AND2)
    assert (report.max_branches, report.peak_support) == (2, 2)


def test_verify_verdict_ignores_seed_states_and_tolerance():
    result = corrupted(AND2, 1)
    reports = [verify(result, AND2, seed=sd) for sd in (1, 5, 9)]
    assert {r.verdict for r in reports} == {"FAIL"}
    assert len({r.counterexample for r in reports}) == 1
    assert [r.seed for r in reports] == [1, 5, 9]


def test_verify_is_deterministic():
    result = synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH)
    a = verify(result, AND2, seed=4).to_json()
    b = verify(result, AND2, seed=4).to_json()
    assert a == b


def test_randomized_verification_sweep():
    """Seeded random functions at the largest width each construction can
    still be simulated at (the aux-free forms are capped by feasibility,
    not by the qubit limit)."""
    plans = [
        (ConstructionKind.GENERAL_LOW_WIDTH, 5, 100),
        (ConstructionKind.AND_LOW_WIDTH, 5, 100),
        (ConstructionKind.ANDDG_LOW_WIDTH, 5, 100),
        (ConstructionKind.GENERAL_DEPTH1, 3, 200),
        (ConstructionKind.AND_DEPTH1, 4, 200),
        (ConstructionKind.ANDDG_DEPTH1, 4, 200),
    ]
    rng = np.random.default_rng(41)
    for kind, n, count in plans:
        assert synthesize(TruthTable.from_value(n, 1), kind).circuit.qubit_count <= 24
        for _ in range(count):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=1 << n))
            f = TruthTable(n, bits)
            report = verify(synthesize(f, kind), f, seed=13)
            assert report.verdict == "PASS", (kind, f.hex_form(), report.counterexample)


# ---------------------------------------------------------------------------
# verify() against the dense reference


def embed(layout: Layout, n: int, index: int) -> int:
    """The full-circuit basis index of oracle index ``x + y * 2**n``."""
    out = (index >> n) << layout.target
    for i, q in enumerate(layout.controls):
        out |= ((index >> i) & 1) << q
    return out


def dense_verdict(result, f: TruthTable, superpositions: int = 2) -> str:
    """Reference check on the dense simulator: seeded random superpositions
    of the legal basis inputs, each measurement branch matched against the
    oracle image up to a global phase.  Per branch the circuit is linear,
    so a random superposition exposes any defect with probability 1.  The
    image has every auxiliary at |0>, so the fidelity bound covers their
    restoration."""
    contract = result.kind.target_contract
    m = result.circuit.qubit_count
    n = f.n
    inputs, images = oracle(f, contract)
    legal = inputs.tolist()
    ins = [embed(result.layout, n, k) for k in legal]
    outs = [embed(result.layout, n, k) for k in images.tolist()]
    rng = np.random.default_rng(len(legal))
    for _ in range(superpositions):
        weights = rng.normal(size=len(legal)) + 1j * rng.normal(size=len(legal))
        weights /= np.linalg.norm(weights)
        state = np.zeros(1 << m, dtype=complex)
        state[ins] = weights
        reference = np.zeros(1 << m, dtype=complex)
        reference[outs] = weights
        for branch in apply(result.circuit, StateVector(m, state)).branches:
            if abs(np.vdot(reference, branch.state.amplitudes)) < 1 - 1e-9:
                return "FAIL"
    return "PASS"


def negated_rotations(result):
    """Every variant of the result with one rotation's angle negated,
    inside conditioned blocks too."""
    c = result.circuit

    def negate(elements, i):
        g = elements[i]
        return elements[:i] + (Gate(g.kind, g.qubits, -g.angle),) + elements[i + 1:]

    for i, el in enumerate(c.elements):
        if isinstance(el, ConditionedBlock):
            for j, g in enumerate(el.body.elements):
                if g.is_rotation():
                    body = Circuit(el.body.qubit_count, negate(el.body.elements, j))
                    block = ConditionedBlock(el.measured_qubit, body)
                    elements = c.elements[:i] + (block,) + c.elements[i + 1:]
                    yield dataclasses.replace(
                        result, circuit=Circuit(c.qubit_count, elements, c.roles))
        elif el.is_rotation():
            yield dataclasses.replace(
                result, circuit=Circuit(c.qubit_count, negate(c.elements, i), c.roles))


def test_verify_agrees_with_dense_reference_on_all_small_functions():
    for n in (1, 2, 3):
        for value in range(1 << (1 << n)):
            f = TruthTable.from_value(n, value)
            for kind in ConstructionKind:
                result = synthesize(f, kind)
                assert verify(result, f).verdict == dense_verdict(result, f) == "PASS"


def test_verify_agrees_with_dense_reference_on_negated_rotations():
    verdicts = {"PASS": 0, "FAIL": 0}
    for n in (1, 2):
        for value in range(1 << (1 << n)):
            f = TruthTable.from_value(n, value)
            for kind in ConstructionKind:
                for mutant in negated_rotations(synthesize(f, kind)):
                    report = verify(mutant, f)
                    assert report.verdict == dense_verdict(mutant, f), (
                        f.hex_form(), kind.value, report.counterexample)
                    verdicts[report.verdict] += 1
    rng = np.random.default_rng(3)
    for _ in range(60):
        f = TruthTable.from_value(3, int(rng.integers(0, 256)))
        kind = list(ConstructionKind)[int(rng.integers(0, 6))]
        mutants = list(negated_rotations(synthesize(f, kind)))
        if mutants:
            mutant = mutants[int(rng.integers(0, len(mutants)))]
            report = verify(mutant, f)
            assert report.verdict == dense_verdict(mutant, f), (
                f.hex_form(), kind.value, report.counterexample)
            verdicts[report.verdict] += 1
    # negating a rotation by pi changes nothing, so both verdicts occur
    assert verdicts["PASS"] and verdicts["FAIL"] > verdicts["PASS"]


def test_verify_basis_fail_infidelity_matches_dense_simulation():
    # a basis input's FAIL infidelity, summed from its path-sum rows, against
    # its dense state; Hadamards on idle auxiliaries spread it over more rows
    f = AND2
    checked = 0
    for kind in (ConstructionKind.GENERAL_LOW_WIDTH, ConstructionKind.AND_DEPTH1):
        result = synthesize(f, kind)
        base = result.circuit.qubit_count
        idle = tuple(range(base, base + 3))
        layout = Layout(result.layout.controls, result.layout.target,
                        result.layout.aux + idle)
        for mutant in negated_rotations(result):
            for spread in ((), tuple(h(q) for q in idle[:2])):
                circuit = Circuit(base + 3, mutant.circuit.elements + spread,
                                  layout.roles(base + 3))
                report = verify(SynthesisResult(kind, circuit, layout), f)
                found = re.match(r"input basis x=(\d+) y=(\d)", report.counterexample or "")
                if not found:
                    continue
                index = int(found[1], 2) + (int(found[2]) << f.n)
                start = embed(layout, f.n, index)
                state = apply(circuit, StateVector.basis(base + 3, start)).branches[0]
                amps = state.state.amplitudes
                image = embed(layout, f.n, images_of(f, kind.target_contract)[index])
                expected = 1 - abs(amps[image]) / np.linalg.norm(amps)
                assert report.max_infidelity == pytest.approx(expected, abs=1e-12)
                checked += 1
    assert checked == 19


def test_verify_names_a_superposition_for_relative_phase_errors():
    # a flip on an input-only ladder of general-lowwidth leaves every basis
    # input on its image but changes relative phases between inputs
    f = TruthTable.from_value(2, 0b1000)
    result = synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH)
    mutant = next(negated_rotations(result))
    assert mutant.circuit.elements[2].qubits == (0,)
    report = verify(mutant, f)
    assert report.verdict == dense_verdict(mutant, f) == "FAIL"
    assert report.counterexample.startswith("input (basis x=00 y=0 + basis")
    assert 0 < report.max_infidelity < 1
    assert report.aux_restored


def test_verify_phase_arithmetic_on_sdg_and_z():
    # S = Z . Sdg, so swapping the opening S for Sdg then R1(pi) keeps the
    # circuit; Sdg alone does not
    result = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH)
    elements = result.circuit.elements
    assert elements[1] == s(2)

    def with_opening(*gates):
        circuit = Circuit(3, elements[:1] + gates + elements[2:], result.circuit.roles)
        return dataclasses.replace(result, circuit=circuit)

    same = with_opening(sdg(2), r1(Fraction(1), 2))
    assert verify(same, AND2).verdict == dense_verdict(same, AND2) == "PASS"
    wrong = with_opening(sdg(2))
    assert verify(wrong, AND2).verdict == dense_verdict(wrong, AND2) == "FAIL"


# ---------------------------------------------------------------------------
# The path-sum plan against the dense simulator, and its reach


@st.composite
def wired_circuits(draw):
    """A circuit on up to 5 qubits with Hadamards and blocks anywhere, the
    wires its input may set, and a basis input set only on those."""
    m = draw(st.integers(1, 5))

    def gates(count):
        out = []
        for _ in range(count):
            kind = draw(st.integers(0, 6))
            q = draw(st.integers(0, m - 1))
            if kind == 0:
                out.append(h(q))
            elif kind == 1:
                out.append(x(q))
            elif kind == 2 and m > 1:
                other = draw(st.integers(0, m - 2))
                out.append(cnot(q, other + (other >= q)))
            elif kind == 3:
                out.append(s(q))
            elif kind == 4:
                out.append(sdg(q))
            else:
                angle = Fraction(draw(st.integers(-16, 16)), 16)
                out.append((r1 if kind == 5 else r1dg)(angle, q))
        return out

    elements = gates(draw(st.integers(0, 14)))
    # each qubit is measured at most once, so outcome records name branches
    for q in draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True)):
        elements.append(ConditionedBlock(q, Circuit(m, tuple(gates(draw(st.integers(0, 6)))))))
        elements += gates(draw(st.integers(0, 6)))
    start = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    index = sum(draw(st.integers(0, 1)) << q for q in start)
    return Circuit(m, tuple(elements)), start, index


def path_sum_branches(c: Circuit, start, index: int) -> dict:
    """Amplitudes of each measurement branch of one basis input, from the
    plan's rows."""
    plan = sim._Plan(c, start, 1)
    words = (len(plan.slot) + 63) >> 6
    idx = np.zeros((1, words), dtype=np.uint64)
    for q in start:
        if index >> q & 1:
            idx[0, plan.slot[q] >> 6] |= np.uint64(1 << (plan.slot[q] & 63))
    zero = np.zeros(1, dtype=np.int64)
    rows = sim._Terms(zero, zero.copy(), idx, zero.copy(), np.zeros(1, dtype=np.uint64),
                      np.ones(1, dtype=np.int64))
    t, outcomes, _, work = sim._simulate(plan, rows, 1)
    assert work <= plan.work
    sim._canonical(t)
    out: dict = {}
    for r in range(t.e.size):
        full = sum(int(t.bit(slot)[r]) << q for q, slot in plan.slot.items())
        key = tuple(sorted(outcomes[t.branch[r]].items()))
        out.setdefault(key, np.zeros(1 << c.qubit_count, dtype=complex))[full] += (
            t.terms([r])[0])
    return out


@given(wired_circuits())
@settings(max_examples=300, deadline=None)
def test_plan_agrees_with_dense_simulation(case):
    """Both phase evaluations, on circuits with dirty and constant wires,
    wires going live mid-run and Hadamards inside blocks."""
    c, start, index = case
    dense = {tuple(sorted(b.outcomes.items())): math.sqrt(b.probability) * b.state.amplitudes
             for b in apply(c, StateVector.basis(c.qubit_count, index)).branches}
    cost = sim._Run.cost
    for transform in (False, True):
        sim._Run.cost = lambda run, rows: (cost(run, rows)[0], transform and bool(run.masks))
        try:
            mine = path_sum_branches(c, start, index)
        finally:
            sim._Run.cost = cost
        for key in set(dense) | set(mine):
            zero = np.zeros(1 << c.qubit_count)
            assert np.allclose(dense.get(key, zero), mine.get(key, zero), atol=1e-9), key


def test_verify_with_more_than_64_live_wires():
    # X on 67 idle auxiliaries around the general low-width circuit: they
    # stay live between the Hadamards, so rows span two words
    result = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH)
    aux = tuple(range(3, 70))
    layout = Layout(controls=(0, 1), target=2, aux=aux)
    flips = tuple(x(q) for q in aux)
    elements = result.circuit.elements
    wide = Circuit(70, flips + elements[:1] + flips + elements[1:-1] + flips + elements[-1:]
                   + flips, layout.roles(70))
    wide_result = SynthesisResult(result.kind, wide, layout)
    assert verify(wide_result, AND2).verdict == "PASS"
    for wide_mutant, mutant in zip(negated_rotations(wide_result), negated_rotations(result)):
        assert verify(wide_mutant, AND2).verdict == verify(mutant, AND2).verdict


@pytest.mark.parametrize("wires, hadamards, verdict", [
    (3000, 0, "PASS"),             # 48-word rows, 1.1 million row updates
    (3000, 2, "UNVERIFIABLE"),     # the same rows 4x as many: 36.7 million
    (30000, 0, "UNVERIFIABLE"),    # 470-word rows: over after the first run
])
def test_verify_counts_each_word_of_wide_rows(monkeypatch, wires, hadamards, verdict):
    # X on idle auxiliaries before and after the circuit keeps them live in
    # between, and Hadamards on some of them multiply the rows
    f = TruthTable.from_value(1, 2)
    result = synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH)
    base = result.circuit.qubit_count
    idle = tuple(range(base, base + wires))
    layout = Layout(result.layout.controls, result.layout.target, result.layout.aux + idle)
    flips = tuple(x(q) for q in idle)
    spread = tuple(h(q) for q in idle[:hadamards])
    wide = Circuit(base + wires, flips + spread + result.circuit.elements + spread + flips,
                   layout.roles(base + wires))
    if verdict == "UNVERIFIABLE":
        def no_row_work(*args):
            raise AssertionError("row work started")

        monkeypatch.setattr(sim, "_simulate", no_row_work)
    tracemalloc.start()
    try:
        report = verify(SynthesisResult(result.kind, wide, layout), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == verdict, report.counterexample
    assert report.row_updates <= sim.WORK_BOUND
    assert peak < 64 << 20


@pytest.mark.parametrize("kind", list(ConstructionKind))
def test_verify_every_construction_at_n16(kind, monkeypatch):
    plans = []

    class RecordedPlan(sim._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(sim, "_Plan", RecordedPlan)
    rng = np.random.default_rng(16)
    f = TruthTable(16, tuple(rng.integers(0, 2, size=1 << 16).tolist()))
    result = synthesize(f, kind)
    report = verify(result, f)
    assert report.verdict == "PASS", report.counterexample
    assert report.row_updates <= sim.WORK_BOUND
    # an emitted circuit plans n + 1 slots, so every row is one 64-bit word
    assert (len(plans[0].slot), plans[0].words) == (17, 1)
    if kind in (ConstructionKind.GENERAL_LOW_WIDTH, ConstructionKind.AND_DEPTH1):
        mutant = next(negated_rotations(result))
        assert verify(mutant, f).verdict == "FAIL"


# ---------------------------------------------------------------------------
# Diagonal decomposition identity


def test_diagonal_decomposition_examples():
    assert diagonal_decomposition_check(AND2)
    assert diagonal_decomposition_check(TruthTable.from_value(2, 0))


def test_diagonal_decomposition_random_n4():
    rng = np.random.default_rng(23)
    for _ in range(10):
        f = TruthTable.from_value(4, int(rng.integers(0, 1 << 16)))
        assert diagonal_decomposition_check(f)


def test_diagonal_decomposition_rejects_large_n():
    with pytest.raises(ValueError):
        diagonal_decomposition_check(TruthTable.from_value(7, 1))
