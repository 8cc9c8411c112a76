"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them
as they complete).  Tolerances are fixed here, not configurable."""

import functools
from fractions import Fraction

import numpy as np

from fcnot.boolfn import SpectralData, TruthTable, spectrum
from fcnot.circuit import compose, resource_counts, rotation_depth
from fcnot.sim import StateVector, apply, verify
from fcnot.synth import ConstructionKind, _synthesize, synthesize
from paper_identities import diagonal_decomposition_check, lifted_oracle, lifted_spectrum

FIDELITY_TOL = 1e-9
SEED = 20260810

AND2 = TruthTable.from_value(2, 0b1000)

DEPTH1_KINDS = (
    ConstructionKind.GENERAL_DEPTH1,
    ConstructionKind.AND_DEPTH1,
    ConstructionKind.ANDDG_DEPTH1,
)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return decorate


def all_functions(n):
    return (TruthTable.from_value(n, value) for value in range(1 << (1 << n)))


def random_functions(n, count, rng):
    size = 1 << n
    for _ in range(count):
        bits = rng.integers(0, 2, size=size)
        yield TruthTable(n, tuple(int(b) for b in bits))


@criterion("A1 exhaustive functional correctness, n in {1,2,3}, six constructions")
def test_criterion_1_exhaustive_verification():
    for n in (1, 2, 3):
        for f in all_functions(n):
            for kind in ConstructionKind:
                result = synthesize(f, kind)
                report = verify(result, f, seed=SEED)
                assert report.verdict == "PASS", (
                    n, f.hex_form(), kind.value, report.counterexample
                )
                assert report.aux_restored


@criterion("A2 two-control resource reproduction (exact counts)")
def test_criterion_2_ccnot_resources():
    result = synthesize(AND2, ConstructionKind.GENERAL_LOW_WIDTH)
    counts = resource_counts(result.circuit)
    assert counts.r1_non_clifford == 7
    assert result.ancilla_count == 0
    rotation_angles = {
        el.angle
        for el in result.circuit.elements
        if getattr(el, "is_rotation", lambda: False)()
    }
    assert rotation_angles == {Fraction(1, 4), Fraction(-1, 4)}

    result = synthesize(AND2, ConstructionKind.GENERAL_DEPTH1)
    assert result.ancilla_count == 4
    assert rotation_depth(result.circuit) == 1
    assert resource_counts(result.circuit).r1_total == 7

    result = synthesize(AND2, ConstructionKind.AND_LOW_WIDTH)
    assert resource_counts(result.circuit).r1_total == 4

    result = synthesize(AND2, ConstructionKind.ANDDG_LOW_WIDTH)
    assert resource_counts(result.circuit).r1_non_clifford == 0


@criterion("A3 auxiliary-count formulas for n <= 6")
def test_criterion_3_ancilla_formulas():
    expected = {
        ConstructionKind.GENERAL_LOW_WIDTH: lambda n: 0,
        ConstructionKind.GENERAL_DEPTH1: lambda n: 2 ** (n + 1) - n - 2,
        ConstructionKind.AND_LOW_WIDTH: lambda n: 0,
        ConstructionKind.AND_DEPTH1: lambda n: 2**n - n - 1,
        ConstructionKind.ANDDG_LOW_WIDTH: lambda n: 0,
        ConstructionKind.ANDDG_DEPTH1: lambda n: 2**n - n - 1,
    }
    rng = np.random.default_rng(SEED)
    for n in range(1, 7):
        for f in random_functions(n, 3, rng):
            for kind, formula in expected.items():
                result = synthesize(f, kind)
                assert result.ancilla_count == formula(n), (n, kind)
                assert len(result.layout.aux) == formula(n)


@criterion("A4 single rotation stage for the depth-1 constructions")
def test_criterion_4_rotation_depth_one():
    # exhaustive where enumeration is feasible, seeded samples above that
    for n in (1, 2, 3, 4):
        for f in all_functions(n):
            for kind in DEPTH1_KINDS:
                assert rotation_depth(synthesize(f, kind).circuit) <= 1
    rng = np.random.default_rng(SEED)
    for n in (5, 6):
        for f in random_functions(n, 100, rng):
            for kind in DEPTH1_KINDS:
                assert rotation_depth(synthesize(f, kind).circuit) <= 1


@criterion("A5 lifted-spectrum identity (exact integers)")
def test_criterion_5_lifted_spectrum():
    for n in (1, 2, 3):
        for f in all_functions(n):
            assert lifted_spectrum(spectrum(f)).tolist() == lifted_oracle(f)
    rng = np.random.default_rng(SEED)
    for n in (4, 5, 6):
        for f in random_functions(n, 100, rng):
            assert lifted_spectrum(spectrum(f)).tolist() == lifted_oracle(f)


@criterion("A6 diagonal-decomposition identity")
def test_criterion_6_diagonal_decomposition():
    for n in (1, 2, 3):
        for f in all_functions(n):
            assert diagonal_decomposition_check(f), f.hex_form()
    rng = np.random.default_rng(SEED)
    for f in random_functions(4, 50, rng):
        assert diagonal_decomposition_check(f), f.hex_form()


def _roundtrip(compute_kind, uncompute_kind, rng):
    n = 3
    f = TruthTable(n, tuple(int(b) for b in rng.integers(0, 2, size=8)))
    compute = synthesize(f, compute_kind)
    uncompute = synthesize(f, uncompute_kind)
    assert compute.layout == uncompute.layout
    layout = compute.layout
    m = compute.circuit.qubit_count

    alpha = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    alpha /= np.linalg.norm(alpha)
    state = np.zeros(1 << m, dtype=complex)
    for x_val in range(1 << n):
        index = 0
        for i, q in enumerate(layout.controls):
            index |= ((x_val >> i) & 1) << q
        state[index] = alpha[x_val]

    round_trip = compose(compute.circuit, uncompute.circuit)
    for branch in apply(round_trip, StateVector(m, state)).branches:
        fidelity = abs(np.vdot(state, branch.state.amplitudes))
        assert fidelity >= 1 - FIDELITY_TOL, (
            f.hex_form(), branch.outcomes, 1 - fidelity
        )


@criterion("A7 compute-then-uncompute roundtrip on random superpositions")
def test_criterion_7_roundtrip():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        _roundtrip(
            ConstructionKind.AND_LOW_WIDTH, ConstructionKind.ANDDG_LOW_WIDTH, rng
        )
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        # reference state has every auxiliary at |0>, so the fidelity bound
        # asserts their restoration as well
        _roundtrip(ConstructionKind.AND_DEPTH1, ConstructionKind.ANDDG_DEPTH1, rng)


@criterion("A8 self-inverse low-width construction, n <= 3")
def test_criterion_8_self_inverse():
    for n in (1, 2, 3):
        for f in all_functions(n):
            circuit = synthesize(f, ConstructionKind.GENERAL_LOW_WIDTH).circuit
            doubled = compose(circuit, circuit)
            for k in range(1 << (n + 1)):
                out = apply(doubled, StateVector.basis(n + 1, k))
                amp = out.branches[0].state.amplitudes[k]
                assert abs(amp) >= 1 - FIDELITY_TOL, (f.hex_form(), k)


@criterion("A9 mutation sensitivity of the verifier")
def test_criterion_9_mutation_sensitivity():
    # 3-ary AND: every spectral coefficient is nonzero, so each flip is a
    # genuine circuit change
    f = TruthTable.from_value(3, 1 << 7)
    sd = spectrum(f)
    assert all(int(v) != 0 for v in sd.coefficients)
    rng = np.random.default_rng(SEED)
    for j in rng.integers(0, 8, size=10):
        coefficients = sd.coefficients.copy()
        coefficients[int(j)] = -coefficients[int(j)]
        mutated = SpectralData(sd.n, coefficients)
        result = _synthesize(mutated, ConstructionKind.GENERAL_LOW_WIDTH)
        report = verify(result, f, seed=SEED)
        assert report.verdict == "FAIL", f"flip of coefficient {j} went unnoticed"
