"""Truth tables, spectra, Gray codes, and the function parser."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fcnot.boolfn import (
    ParseError,
    TruthTable,
    angles,
    gray_code,
    mu,
    parse_function,
    pm_one_vector,
    rho,
    spectrum,
    trailing_bit,
    walsh_hadamard,
)
from paper_identities import lifted_oracle, lifted_spectrum

AND2 = TruthTable.from_value(2, 0b1000)

tables = st.integers(1, 4).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
        lambda v: TruthTable.from_value(n, v)
    )
)


def hadamard_matrix(n: int) -> np.ndarray:
    """Independent dense transform oracle: entry (j, k) = (-1)**popcount(j & k)."""
    size = 1 << n
    return np.array(
        [[(-1) ** ((j & k).bit_count() & 1) for k in range(size)] for j in range(size)],
        dtype=np.int64,
    )


# ---------------------------------------------------------------------------
# Parsing


def test_parse_and_expression():
    assert parse_function("x1 & x2").bits == (0, 0, 0, 1)


def test_parse_hex_form():
    f = parse_function("0x8:2")
    assert f.n == 2
    assert f.bits == (0, 0, 0, 1)


def test_parse_xor_with_not():
    # enumerate all four assignments by hand: x1 ^ ~x2
    expected = tuple((k & 1) ^ (1 - ((k >> 1) & 1)) for k in range(4))
    assert parse_function("x1 ^ ~x2").bits == expected == (1, 0, 0, 1)


def test_parse_precedence_and_associativity():
    # ~ > & > ^ > |
    f = parse_function("x1 | x2 & x3")
    g = parse_function("x1 | (x2 & x3)")
    assert f.bits == g.bits
    f = parse_function("x1 ^ x2 | x3")
    g = parse_function("(x1 ^ x2) | x3")
    assert f.bits == g.bits
    f = parse_function("~x1 & x2")
    g = parse_function("(~x1) & x2")
    assert f.bits == g.bits


def test_parse_n_is_highest_subscript():
    assert parse_function("x3").n == 3
    assert parse_function("x1 & x3").n == 3


def test_parse_constant_expression_defaults_to_one_variable():
    assert parse_function("0").bits == (0, 0)
    assert parse_function("1 ^ 1").bits == (0, 0)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_function("x1 & & x2")
    assert exc.value.position == 5

    with pytest.raises(ParseError):
        parse_function("(x1 & x2")
    with pytest.raises(ParseError):
        parse_function("x1 $ x2")


def test_parse_out_of_range_variable():
    with pytest.raises(ParseError):
        parse_function("x17")
    with pytest.raises(ParseError):
        parse_function("0x0:17")
    with pytest.raises(ParseError):
        parse_function("0x0:0")


@pytest.mark.parametrize("text, message, position", [
    # a syntax error is reported before the out-of-range count
    ("x17 & & x1", "expected a variable, constant, or '(', got '&'", 6),
    ("(x1 & x17", "expected ')'", 9),
    ("x0 & x1", "variable subscripts start at 1", 0),
    ("x17", "variable count 17 out of range [1, 16]", None),
    ("x99999999999999999999 & x1",
     "variable count 99999999999999999999 out of range [1, 16]", None),
    ("", "expected a variable, constant, or '(', got ''", 0),
    ("~", "expected a variable, constant, or '(', got ''", 1),
    ("x1 $", "unexpected character '$'", 3),
    # decimal fields too long for int() are range errors, still after syntax
    pytest.param("x" + "9" * 5000, "variable count of over 100 digits out of range [1, 16]",
                 None, id="5000-digit-subscript"),
    pytest.param("0x1:" + "9" * 5000, "variable count of over 100 digits out of range [1, 16]",
                 None, id="5000-digit-hex-count"),
    pytest.param("x1 & & x" + "9" * 5000, "expected a variable, constant, or '(', got '&'", 5,
                 id="syntax-error-before-5000-digit-subscript"),
])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_function(text)
    assert exc.value.position == position
    suffix = "" if position is None else f" (at position {position})"
    assert str(exc.value) == message + suffix


def test_parse_leading_zeros_are_not_significant_digits():
    assert parse_function("x" + "0" * 5000 + "1") == parse_function("x1")
    assert parse_function("0x1:" + "0" * 5000 + "1") == parse_function("0x1:1")


def test_parse_expression_at_16_variables():
    f = parse_function("x16 ^ ~x1")
    assert f.n == 16
    assert f.bits == tuple(((k >> 15) & 1) ^ (1 - (k & 1)) for k in range(1 << 16))
    assert parse_function(f.hex_form()) == f


@pytest.mark.parametrize("text", ["(" * 3000 + "x1" + ")" * 3000, "~" * 3000 + "x1"],
                         ids=["parentheses", "negations"])
def test_parse_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_function(text)
    assert parse_function("(" * 50 + "~" * 50 + "x1" + ")" * 50).bits == (0, 1)


def test_parse_hex_payload_too_wide():
    with pytest.raises(ParseError):
        parse_function("0x10:1")  # 5 bits into a 2-entry table
    assert parse_function("0x3:1").bits == (1, 1)
    assert parse_function("0x003:1").bits == (1, 1)  # leading zeros are harmless


def test_hex_form_round_trips():
    f = TruthTable.from_value(3, 0xB6)
    assert parse_function(f.hex_form()).bits == f.bits


def test_packed_value_round_trips_at_16_variables():
    rng = np.random.default_rng(16)
    f = TruthTable(16, tuple(int(b) for b in rng.integers(0, 2, size=1 << 16)))
    value = f.value()
    packed = np.packbits(np.array(f.bits, dtype=np.uint8), bitorder="little")
    assert value == int.from_bytes(packed.tobytes(), "little")
    assert TruthTable.from_value(16, value) == f
    assert parse_function(f.hex_form()) == f


def test_from_value_rejects_oversized_and_negative_values():
    with pytest.raises(ValueError):
        TruthTable.from_value(2, 1 << 4)
    with pytest.raises(ValueError):
        TruthTable.from_value(2, -1)
    assert TruthTable.from_value(2, (1 << 4) - 1).bits == (1, 1, 1, 1)


@given(tables)
def test_parser_round_trip_on_hex(f):
    assert parse_function(f.hex_form()) == f


_expr_leaves = st.sampled_from(["0", "1", "x1", "x2", "x3", "x4"])
_expr_trees = st.recursive(
    _expr_leaves,
    lambda children: st.one_of(
        st.tuples(st.just("~"), children),
        st.tuples(st.sampled_from(["&", "^", "|"]), children, children),
    ),
    max_leaves=12,
)


def _render(tree, python: bool) -> str:
    if isinstance(tree, str):
        return tree
    if tree[0] == "~":
        child = _render(tree[1], python)
        # on {0, 1}, ~a == 1 ^ a; the parenthesized form keeps the
        # reference evaluation independent of operator precedence
        return f"(1 ^ ({child}))" if python else f"~({child})"
    op, a, b = tree
    return f"({_render(a, python)} {op} {_render(b, python)})"


@given(_expr_trees)
def test_expression_parser_matches_reference_evaluation(tree):
    """Reference route: render the same tree for Python's own parser and
    integer operators, then compare value tables."""
    f = parse_function(_render(tree, python=False))
    python_text = _render(tree, python=True)
    for k in range(1 << f.n):
        env = {f"x{i + 1}": (k >> i) & 1 for i in range(f.n)}
        assert f.bits[k] == eval(python_text, {}, env) & 1


# ---------------------------------------------------------------------------
# Bit helpers


def test_mu():
    assert mu(0) == 0
    assert mu(0b1011) == 3
    assert mu(2**15) == 1


def test_rho_and_trailing_bit():
    assert rho(12) == 2
    assert rho(7) == 0
    assert trailing_bit(12) == 2 ** rho(12) == 4
    with pytest.raises(ValueError):
        rho(0)
    with pytest.raises(ValueError):
        trailing_bit(0)


# ---------------------------------------------------------------------------
# Spectra


def test_pm_one_vector_examples():
    assert pm_one_vector(AND2).tolist() == [1, 1, 1, -1]
    assert pm_one_vector(TruthTable.from_value(2, 0)).tolist() == [1, 1, 1, 1]
    assert pm_one_vector(parse_function("x1 & x1")).tolist() == [1, -1]
    # f = x1 over two variables
    assert pm_one_vector(TruthTable(2, (0, 1, 0, 1))).tolist() == [1, -1, 1, -1]


def test_walsh_hadamard_examples():
    assert walsh_hadamard([1, 1, 1, -1]).tolist() == [2, 2, 2, -2]
    assert walsh_hadamard([1, 1, 1, 1]).tolist() == [4, 0, 0, 0]
    v = np.array([1, -1, 1, -1])
    assert walsh_hadamard(v).tolist() == (hadamard_matrix(2) @ v).tolist() == [0, 4, 0, 0]


def test_walsh_hadamard_rejects_bad_length():
    with pytest.raises(ValueError):
        walsh_hadamard([1, 2, 3])
    with pytest.raises(ValueError):
        walsh_hadamard([])
    with pytest.raises(ValueError):
        walsh_hadamard([[1, 1], [1, -1]])


@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_hadamard_matches_sylvester_product(n):
    sylvester = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        sylvester = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), sylvester)
    v = np.random.default_rng([7, n]).integers(-1000, 1000, size=1 << n)
    before = v.copy()
    assert np.array_equal(walsh_hadamard(v), sylvester @ v)
    assert np.array_equal(v, before)  # the input is left alone


@given(st.integers(0, 3).flatmap(
    lambda n: st.lists(st.integers(-50, 50), min_size=1 << n, max_size=1 << n)
))
def test_walsh_hadamard_is_self_inverse_up_to_size(v):
    twice = walsh_hadamard(walsh_hadamard(v))
    assert twice.tolist() == [len(v) * value for value in v]


@given(st.integers(0, 3).flatmap(
    lambda n: st.lists(st.integers(-50, 50), min_size=1 << n, max_size=1 << n)
))
def test_walsh_hadamard_matches_dense_oracle(v):
    n = (len(v) - 1).bit_length()
    assert walsh_hadamard(v).tolist() == (hadamard_matrix(n) @ np.array(v)).tolist()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_angles_are_coefficients_over_two_to_n_plus_one(n):
    bits = np.random.default_rng([11, n]).integers(0, 2, size=1 << n)
    sd = spectrum(TruthTable(n, tuple(bits.tolist())))
    table = angles(sd)
    assert len(table.angles) == 1 << n
    for j, s_j in enumerate(sd.coefficients.tolist()):
        assert table.angles[j] == Fraction(s_j, 2 ** (n + 1))
        assert type(table.angles[j]) is Fraction


def test_spectrum_and_angles_examples():
    sd = spectrum(AND2)
    assert sd.coefficients.tolist() == [2, 2, 2, -2]
    table = angles(sd)
    assert table.angles == (
        Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4)
    )
    assert not any(table.is_clifford(j) for j in range(4))

    sd = spectrum(TruthTable.from_value(2, 0))
    assert angles(sd).angles == (Fraction(1, 2), 0, 0, 0)
    assert angles(sd).is_clifford(0)

    sd = spectrum(parse_function("x1 ^ x2"))
    assert sd.coefficients.tolist() == [0, 0, 0, 4]
    assert angles(sd).angles[3] == Fraction(1, 2)


@given(tables)
def test_spectrum_invariants(f):
    s = spectrum(f).coefficients
    assert int(np.sum(s.astype(object) ** 2)) == 4**f.n
    assert all(int(v) % 2 == 0 for v in s)
    assert all(abs(int(v)) <= 2**f.n for v in s)


# ---------------------------------------------------------------------------
# Lifted spectrum


def test_lifted_spectrum_examples():
    assert lifted_spectrum(spectrum(AND2)).tolist() == [6, 2, 2, -2, 2, -2, -2, 2]
    assert lifted_oracle(AND2) == [6, 2, 2, -2, 2, -2, -2, 2]

    const0 = parse_function("0")
    assert lifted_spectrum(spectrum(const0)).tolist() == [4, 0, 0, 0]

    f_x1 = parse_function("x1 & x1")
    assert lifted_spectrum(spectrum(f_x1)).tolist() == [2, 2, 2, -2]


@given(tables)
def test_lifted_spectrum_matches_direct_transform(f):
    assert lifted_spectrum(spectrum(f)).tolist() == lifted_oracle(f)


def test_lifted_spectrum_exhaustive_small():
    for n in (1, 2, 3):
        for value in range(1 << (1 << n)):
            f = TruthTable.from_value(n, value)
            assert lifted_spectrum(spectrum(f)).tolist() == lifted_oracle(f)


# ---------------------------------------------------------------------------
# Gray codes


def test_gray_code_examples():
    code = gray_code(2)
    assert code.codewords == (0b00, 0b01, 0b11, 0b10)
    assert code.deltas == (0, 1, 0, 1)

    code = gray_code(1)
    assert code.codewords == (0, 1)
    assert code.deltas == (0, 0)

    assert gray_code(3).deltas == (0, 1, 0, 2, 0, 1, 0, 2)


def test_gray_code_degenerate():
    code = gray_code(0)
    assert code.codewords == (0,)
    assert code.deltas == ()
    with pytest.raises(ValueError):
        gray_code(-1)


@given(st.integers(1, 8))
def test_gray_code_invariants(n):
    code = gray_code(n)
    size = 1 << n
    assert code.codewords[0] == 0
    assert len(set(code.codewords)) == size
    acc = 0
    for k in range(size):
        succ = code.codewords[(k + 1) % size]
        assert mu(code.codewords[k] ^ succ) == 1
        assert succ == code.codewords[k] ^ (1 << code.deltas[k])
        acc ^= 1 << code.deltas[k]
    assert acc == 0


# ---------------------------------------------------------------------------
# Table validation


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(0, ())
    with pytest.raises(ValueError):
        TruthTable(1, (0,))
    with pytest.raises(ValueError):
        TruthTable(1, (0, 2))
    with pytest.raises(ValueError):
        TruthTable(17, tuple([0] * (1 << 17)))


@pytest.mark.parametrize("entry", [2, -1, 0.5, "1", None, (1,)])
def test_truth_table_rejects_entries_other_than_zero_and_one(entry):
    with pytest.raises(ValueError):
        TruthTable(1, (0, entry))
    with pytest.raises(ValueError):
        TruthTable(1, (entry, 1))


def test_truth_table_accepts_entries_equal_to_zero_or_one():
    assert TruthTable(1, (0.0, 1.0)).bits == (0, 1)
    for bits in ((False, True), (np.int64(1), np.uint8(0))):
        assert TruthTable(1, bits).value() == int(bits[0]) + 2 * int(bits[1])
