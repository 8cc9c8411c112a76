"""The paper's two spectral identities, as checks for the tests.

The constructions read only the spectrum of f itself, so neither identity
runs in the compiler.  ``lifted_spectrum`` gives the spectrum of ``g =
x_{n+1} and f`` from that of f, and ``lifted_oracle`` computes the same
numbers the dense way.  ``diagonal_decomposition_check`` checks that
Hadamards on the target turn the diagonal of g's +-1 coding into the oracle
permutation.
"""

import cmath
import math

import numpy as np

from fcnot.boolfn import SpectralData, TruthTable, pm_one_vector, spectrum
from fcnot.circuit import Gate, GateKind
from fcnot.sim import _apply_gate, oracle
from fcnot.synth import TargetContract


def lifted_spectrum(sd: SpectralData) -> np.ndarray:
    """Spectral coefficients of ``g = x_{n+1} and f`` from those of ``f``.

    For ``0 <= k < 2**(n+1)``::

        s'_k = 2**n * [k mod 2**n == 0] + (-1)**[k >= 2**n] * s_{k mod 2**n}

    which equals the direct transform of the +-1 coding of ``g`` (all-ones
    upper half, ``pm_one_vector(f)`` lower half).
    """
    s = sd.coefficients
    lifted = np.concatenate([s, -s])
    lifted[0] += 1 << sd.n
    lifted[1 << sd.n] += 1 << sd.n
    return lifted


def lifted_oracle(f: TruthTable) -> list[int]:
    """Independent route: evaluate the conjunction with a fresh top variable
    directly, +-1 code it, and apply the dense transform matrix."""
    n = f.n
    size = 1 << (n + 1)
    ghat = np.array(
        [1 - 2 * ((k >> n) & f.bits[k & ((1 << n) - 1)]) for k in range(size)],
        dtype=np.int64,
    )
    matrix = np.array(
        [[(-1) ** ((j & k).bit_count() & 1) for k in range(size)] for j in range(size)],
        dtype=np.int64,
    )
    return (matrix @ ghat).tolist()


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
    # the arbitrary contract's inputs are 0 .. dim - 1 in order
    _, image = oracle(f, TargetContract.ARBITRARY)

    for k in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        _apply_gate(amps, Gate(GateKind.H, (n,)), m)
        amps *= ghat
        _apply_gate(amps, Gate(GateKind.H, (n,)), m)
        if abs(amps[image[k]] - 1.0) > 1e-9:
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
