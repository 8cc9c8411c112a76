"""Boolean function representation, spectra, Gray codes, and bit utilities.

The index convention is fixed across the whole package: a truth table for
``n`` variables has ``2**n`` entries, and variable ``x_i`` occupies bit
position ``i - 1`` of the table index (``x_1`` is the least significant
bit).  Spectral indices and linear-combination indices follow the same
convention, which keeps rotation-angle indices aligned with the circuit
constructions in :mod:`fcnot.synth`.

Rotation angles are kept as exact rational multiples of pi (a
:class:`fractions.Fraction` in units of pi, always with a power-of-two
denominator).  Floating point only appears inside the simulator, so
Clifford-angle detection and adjoint cancellation are exact.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import countOf

import numpy as np

MAX_VARIABLES = 16


class ParseError(ValueError):
    """Malformed function text.  ``position`` is a 0-based offset when known."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Bit utilities


def mu(x: int) -> int:
    """Sideways sum (Hamming weight) of a nonnegative integer."""
    if x < 0:
        raise ValueError("mu is defined for nonnegative integers")
    return x.bit_count()


def rho(x: int) -> int:
    """Ruler function: the largest k such that 2**k divides x.

    ``rho(0)`` would be infinite; it is rejected because no construction
    ever evaluates it.
    """
    if x <= 0:
        raise ValueError("rho requires a positive integer")
    return (x & -x).bit_length() - 1


def trailing_bit(x: int) -> int:
    """Lowest set bit of x as a power of two, i.e. ``2**rho(x)``."""
    if x <= 0:
        raise ValueError("trailing_bit requires a positive integer")
    return x & -x


# ---------------------------------------------------------------------------
# Truth tables


# Between the digits "0"/"1" and the byte values 0/1, for bytes.translate.
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class TruthTable:
    """An n-variable Boolean function as a flat table of ``2**n`` bits.

    ``bits[k]`` is the function value at the assignment encoded by ``k``,
    where bit ``i - 1`` of ``k`` is the value of ``x_i``.
    """

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARIABLES:
            raise ValueError(
                f"variable count must be in [1, {MAX_VARIABLES}], got {self.n}"
            )
        if len(self.bits) != 1 << self.n:
            raise ValueError(
                f"table for n={self.n} needs {1 << self.n} entries, "
                f"got {len(self.bits)}"
            )
        # Each entry equal to 0 or to 1 is counted once, at C speed.
        if countOf(self.bits, 0) + countOf(self.bits, 1) != len(self.bits):
            raise ValueError("table entries must be 0 or 1")

    @classmethod
    def from_value(cls, n: int, value: int) -> "TruthTable":
        """Build a table from its packed integer (bit k of value = entry k)."""
        if value < 0 or value.bit_length() > 1 << n:
            raise ValueError(f"value does not fit a {1 << n}-entry table")
        return cls(n, tuple(format(value, f"0{1 << n}b")[::-1].encode().translate(_FROM_DIGITS)))

    def value(self) -> int:
        """Packed integer form (bit k = entry k)."""
        return int(bytes(self.bits[::-1]).translate(_TO_DIGITS), 2)

    def hex_form(self) -> str:
        """Canonical text form, accepted by :func:`parse_function`."""
        return f"0x{self.value():x}:{self.n}"


# ---------------------------------------------------------------------------
# Walsh-Hadamard spectra


def pm_one_vector(f: TruthTable) -> np.ndarray:
    """The +-1 coding of a truth table: entry k is ``(-1)**bits[k]``."""
    return 1 - 2 * np.asarray(f.bits, dtype=np.int64)


def walsh_hadamard(v) -> np.ndarray:
    """Hadamard transform of an integer vector of power-of-two length.

    Computed in place in ``O(n * 2**n)`` integer additions, as one
    vectorised butterfly ``(lo, hi) -> (lo + hi, lo - hi)`` per bit of the
    index: for bit b, ``lo`` and ``hi`` are the entries with that bit clear
    and set, as views of the vector reshaped to ``(-1, 2, 2**b)``.
    Self-inverse up to the factor ``2**n``.
    """
    a = np.array(v, dtype=np.int64)
    if a.ndim != 1 or a.size == 0 or a.size & (a.size - 1):
        raise ValueError("length must be a positive power of two")
    for b in range(a.size.bit_length() - 1):
        lo, hi = a.reshape(-1, 2, 1 << b).swapaxes(0, 1)
        lo += hi
        hi *= -2
        hi += lo
    return a


@dataclass(frozen=True)
class SpectralData:
    """The spectral coefficients of an n-variable Boolean function."""

    n: int
    coefficients: np.ndarray


def spectrum(f: TruthTable) -> SpectralData:
    """Spectral coefficients ``s = H_n * pm_one_vector(f)``."""
    return SpectralData(n=f.n, coefficients=walsh_hadamard(pm_one_vector(f)))


@dataclass(frozen=True)
class AngleTable:
    """Rotation angles ``theta_j = s_j * pi / 2**(n+1)``, exact in units of pi.

    Entry ``j`` is a Fraction ``a`` meaning the angle ``a * pi``; the
    denominator is always a power of two, so ``is_clifford`` is an exact
    test (an R1 rotation is Clifford iff its angle is a multiple of pi/2,
    i.e. iff ``s_j`` is a multiple of ``2**n``).
    """

    n: int
    angles: tuple[Fraction, ...]

    def is_clifford(self, j: int) -> bool:
        return self.angles[j].denominator <= 2


def angles(sd: SpectralData) -> AngleTable:
    """Angle table derived from spectral coefficients."""
    den = 1 << (sd.n + 1)
    coefficients = sd.coefficients.tolist()
    distinct = {s: Fraction(s, den) for s in set(coefficients)}
    return AngleTable(n=sd.n, angles=tuple(map(distinct.__getitem__, coefficients)))


# ---------------------------------------------------------------------------
# Gray codes


@dataclass(frozen=True)
class GrayCode:
    """Cyclic reflected binary Gray code on n bits.

    ``codewords[k]`` is the k-th word; ``deltas[k]`` is the bit position in
    which word k and word (k+1) mod 2**n differ.  For ``n == 0`` the code
    degenerates to the single empty word with no transitions.
    """

    n: int
    codewords: tuple[int, ...]
    deltas: tuple[int, ...]


@lru_cache(maxsize=MAX_VARIABLES + 1)
def gray_code(n: int) -> GrayCode:
    """Standard reflected binary Gray code starting at the all-zero word.

    ``deltas[k] = rho(k + 1)`` except for the final wrap-around step, which
    flips the top bit ``n - 1``.  Codes are immutable and cached, one per
    n up to ``MAX_VARIABLES``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return GrayCode(0, (0,), ())
    size = 1 << n
    codewords = tuple(k ^ (k >> 1) for k in range(size))
    deltas = tuple(rho(k + 1) for k in range(size - 1)) + (n - 1,)
    return GrayCode(n, codewords, deltas)


# ---------------------------------------------------------------------------
# Function parsing

_HEX_RE = re.compile(r"^0[xX]([0-9a-fA-F]+):(\d+)$")
_TOKEN_RE = re.compile(r"\s*(?:(x\d+)|([01])|([~&^|()]))")


def parse_function(text: str) -> TruthTable:
    """Parse a function given as ``0x<hex>:<n>`` or as a Boolean expression.

    The hex form packs the truth table into an integer (bit k = value at
    index k).  Expressions use variables ``x1 ... xn``, constants ``0``/``1``,
    and operators ``~`` (NOT), ``&`` (AND), ``^`` (XOR), ``|`` (OR) with
    precedence ``~ > & > ^ > |``, left-associative, plus parentheses.  The
    variable count is the highest subscript mentioned (an expression with
    no variables is treated as a 1-variable constant).  An expression is
    evaluated bit-parallel, on whole packed truth tables as it is parsed,
    so each operator costs one integer operation over all ``2**n``
    assignments.  Nesting deeper than the interpreter's recursion limit is
    a ParseError.
    """
    stripped = text.strip()
    m = _HEX_RE.match(stripped)
    if m is not None:
        return _parse_hex(m.group(1), m.group(2))
    if ":" in stripped:
        raise ParseError(f"malformed hex table {stripped!r}, expected 0x<hex>:<n>")
    try:
        return _parse_expression(stripped)
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


#: A decimal field (variable count or subscript) with more significant
#: digits than this is out of every range here, and is not converted:
#: Python refuses to convert over 4300 digits.
_MAX_DIGITS = 100
_TOO_LONG = 10**_MAX_DIGITS


def _decimal(digits: str) -> int:
    """The value of a decimal field, or ``_TOO_LONG`` past ``_MAX_DIGITS``."""
    if len(digits) > _MAX_DIGITS:
        digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= _MAX_DIGITS else _TOO_LONG


def _count_out_of_range(n: int) -> ParseError:
    count = f"of over {_MAX_DIGITS} digits" if n == _TOO_LONG else n
    return ParseError(f"variable count {count} out of range [1, {MAX_VARIABLES}]")


def _parse_hex(payload: str, n_text: str) -> TruthTable:
    n = _decimal(n_text)
    if not 1 <= n <= MAX_VARIABLES:
        raise _count_out_of_range(n)
    value = int(payload, 16)
    if value.bit_length() > 1 << n:
        raise ParseError(f"hex payload is wider than {1 << n} bits")
    return TruthTable.from_value(n, value)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            break
        var, const, op = m.groups()
        start = m.end() - len(m.group().lstrip())
        if var is not None:
            tokens.append(("var", var, start))
        elif const is not None:
            tokens.append(("const", const, start))
        else:
            tokens.append((op, op, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


#: The binary operators from the loosest binding to the tightest, each with
#: the level of its operands in this table (None: unary expressions).
_BINARY = (("|", operator.or_, 1), ("^", operator.xor, 2), ("&", operator.and_, None))


class _ExpressionParser:
    """Recursive-descent parser that evaluates as it parses: each method
    returns the packed truth table (bit k = value at assignment k) of the
    subexpression it read, over ``n`` variables, so the whole table is
    computed by a few integer operations per token."""

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        # The variable count is the highest subscript; the tables are no
        # wider than MAX_VARIABLES, since a larger count is rejected after
        # the parse (a syntax error is reported first).
        self.subscripts = {t: _decimal(t[1:]) for kind, t, _ in self.tokens if kind == "var"}
        self.top = max(self.subscripts.values(), default=1)
        self.n = min(self.top, MAX_VARIABLES)
        self.ones = (1 << (1 << self.n)) - 1

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> int:
        value = self.parse_binary()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return value

    def parse_binary(self, level: int = 0) -> int:
        """A left-associative chain of the ``level``-th operator of ``_BINARY``."""
        symbol, combine, operand = _BINARY[level]
        value = self.parse_binary(operand) if operand else self.parse_unary()
        while self.peek()[0] == symbol:
            self.advance()
            value = combine(value, self.parse_binary(operand) if operand else self.parse_unary())
        return value

    def parse_unary(self) -> int:
        if self.peek()[0] == "~":
            self.advance()
            return self.parse_unary() ^ self.ones
        return self.parse_atom()

    def parse_atom(self) -> int:
        kind, text, pos = self.advance()
        if kind == "var":
            subscript = self.subscripts[text]
            if subscript < 1:
                raise ParseError("variable subscripts start at 1", pos)
            # past MAX_VARIABLES the result is rejected, so any value will do
            return _variable_table(self.n, subscript) if subscript <= self.n else 0
        if kind == "const":
            return self.ones if text == "1" else 0
        if kind == "(":
            value = self.parse_binary()
            kind, text, pos = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"expected a variable, constant, or '(', got {text!r}", pos)


@lru_cache(maxsize=MAX_VARIABLES * MAX_VARIABLES)
def _variable_table(n: int, i: int) -> int:
    """The packed truth table of ``x_i`` over n variables: bit k is bit
    ``i - 1`` of k, i.e. ``2**(i-1)`` zeros then as many ones, repeated.
    The repetition is one product with ``sum_j 2**(j * 2**i)``."""
    half = 1 << (i - 1)
    block = ((1 << half) - 1) << half
    return block * (((1 << (1 << n)) - 1) // ((1 << (2 * half)) - 1))


def _parse_expression(text: str) -> TruthTable:
    parser = _ExpressionParser(text)
    value = parser.parse()
    if parser.top > MAX_VARIABLES:
        raise _count_out_of_range(parser.top)
    return TruthTable.from_value(parser.n, value)
