"""Exact statevector simulation of the hybrid model's quantum head.

The circuit family is fixed: a pairwise-entangling data encoding (Hadamard
layer, per-qubit data phases, XOR-conditioned pairwise phases), a trainable
single-qubit Ry ansatz, and a full-parity Z measurement mapped to a
probability. Gradients come from the two-point parameter-shift rule applied
per gate occurrence, with the chain rule onto features and ansatz angles.

`pqc_forward` and `pqc_backward` share one closed-form evaluator that runs a
stack of circuits (the base circuit, or all its +-pi/2 shifts) as one array.
The gate-level simulator (`StateVector`, `apply_*`) and the dense-matrix
oracle in the tests are the references it is checked against.

Qubit 0 is the least-significant bit of the basis index. Simulation is
complex128 throughout; the register is capped at 12 qubits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLength, BadQubit

MAX_QUBITS = 12

_SQRT2_INV = 1.0 / math.sqrt(2.0)


@dataclass
class StateVector:
    """2^n complex amplitudes of an n-qubit register."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise BadQubit(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (2**self.n_qubits,):
            raise BadLength(f"need {2**self.n_qubits} amplitudes, got shape {self.amps.shape}")

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise BadQubit(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def _check_qubit(s: StateVector, q: int) -> None:
    if not 0 <= q < s.n_qubits:
        raise BadQubit(f"qubit {q} outside [0, {s.n_qubits})")


def _bit(n_states: int, q: int) -> np.ndarray:
    return (np.arange(n_states) >> q) & 1


def _apply_1q(s: StateVector, q: int, m00: complex, m01: complex, m10: complex, m11: complex) -> StateVector:
    _check_qubit(s, q)
    lo = _bit(s.amps.size, q) == 0
    hi = ~lo
    a0 = s.amps[lo]
    a1 = s.amps[hi]
    out = np.empty_like(s.amps)
    out[lo] = m00 * a0 + m01 * a1
    out[hi] = m10 * a0 + m11 * a1
    return StateVector(s.n_qubits, out)


def apply_h(s: StateVector, q: int) -> StateVector:
    """Hadamard on qubit q."""
    return _apply_1q(s, q, _SQRT2_INV, _SQRT2_INV, _SQRT2_INV, -_SQRT2_INV)


def apply_p(s: StateVector, q: int, lam: float) -> StateVector:
    """Phase gate: amplitudes with qubit q set gain e^{i lam}."""
    _check_qubit(s, q)
    out = s.amps.copy()
    hi = _bit(out.size, q) == 1
    out[hi] *= np.exp(1j * lam)
    return StateVector(s.n_qubits, out)


def apply_cz(s: StateVector, q1: int, q2: int) -> StateVector:
    """Controlled-Z: negates amplitudes where both qubits are set."""
    _check_qubit(s, q1)
    _check_qubit(s, q2)
    if q1 == q2:
        raise BadQubit(f"controlled-Z needs two distinct qubits, got {q1} twice")
    out = s.amps.copy()
    both = (_bit(out.size, q1) & _bit(out.size, q2)) == 1
    out[both] *= -1.0
    return StateVector(s.n_qubits, out)


def apply_ry(s: StateVector, q: int, theta: float) -> StateVector:
    """Real rotation [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]] on qubit q."""
    c, sn = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return _apply_1q(s, q, c, -sn, sn, c)


def apply_zz_phase(s: StateVector, q1: int, q2: int, phi: float) -> StateVector:
    """Pairwise data phase: amplitudes with qubit q1 XOR qubit q2 gain e^{i phi}.

    This is the net effect of the entangler-sandwiched phase in the encoding;
    a literal CZ sandwich around a diagonal phase would cancel (CZ^2 = I).
    """
    _check_qubit(s, q1)
    _check_qubit(s, q2)
    if q1 == q2:
        raise BadQubit(f"pairwise phase needs two distinct qubits, got {q1} twice")
    out = s.amps.copy()
    odd = (_bit(out.size, q1) ^ _bit(out.size, q2)) == 1
    out[odd] *= np.exp(1j * phi)
    return StateVector(s.n_qubits, out)


# head circuit ---------------------------------------------------------

def _validated(x, n: int | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if n is not None and arr.size != n:
        raise BadLength(f"expected length {n}, got {arr.size}")
    if arr.size < 1 or arr.size > MAX_QUBITS:
        raise BadLength(f"vector length must be in [1, {MAX_QUBITS}], got {arr.size}")
    if not np.isfinite(arr).all():
        raise BadLength("vector entries must be finite")
    return arr


@functools.lru_cache(maxsize=None)
def _bit_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(table, parity signs, pair firsts, pair seconds) of the n-qubit head circuit.

    Row b of the table marks the encoding gates that put their phase on basis
    amplitude b: bit q of b for each qubit's phase gate, then bit i XOR bit j
    for each pairwise phase, pairs i < j in lexicographic order. The arrays
    are shared between calls and read-only.
    """
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    first, second = np.triu_indices(n, 1)
    table = np.concatenate([bits, bits[:, first] ^ bits[:, second]], axis=1).astype(np.float64)
    signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
    for arr in (table, signs, first, second):
        arr.flags.writeable = False
    return table, signs, first, second


def _encoding_angles(x: np.ndarray) -> np.ndarray:
    """Phase-gate angles 2 x_q, then pairwise angles 2 (pi - x_i)(pi - x_j)."""
    _, _, first, second = _bit_table(x.size)
    return np.concatenate([2.0 * x, 2.0 * (math.pi - x[first]) * (math.pi - x[second])])


def _parity_expectations(n: int, rows: np.ndarray) -> np.ndarray:
    """<Z x ... x Z> of the head circuit for each row of (encoding angles, Ry angles).

    After the Hadamard layer the encoding is diagonal, so the encoded state is
    2^{-n/2} exp(i * table . angles); the Ry layer is one real rotation per
    tensor axis, qubit 0 (the least-significant bit) first.
    """
    table, signs, _, _ = _bit_table(n)
    amps = np.exp(1j * (rows[:, :-n] @ table.T)) * 2.0 ** (-n / 2.0)
    half = rows[:, -n:] / 2.0
    cos, sin = np.cos(half), np.sin(half)
    for q in range(n):
        c, s = cos[:, q, None, None], sin[:, q, None, None]
        pairs = amps.reshape(len(rows), -1, 2, 2**q)  # axis 2 is bit q
        a0, a1 = pairs[:, :, 0], pairs[:, :, 1]
        amps = np.stack([c * a0 - s * a1, s * a0 + c * a1], axis=2)
    return (signs * np.abs(amps.reshape(len(rows), -1)) ** 2).sum(axis=1)


def encode_zz(x) -> StateVector:
    """Encode features as |0..0> -> H layer -> per-qubit phases -> pairwise phases.

    Single repetition, full pairwise topology in lexicographic (i < j) order.
    The encoding is diagonal after the Hadamard layer, so every output
    amplitude has magnitude 2^{-n/2}.
    """
    x = _validated(x)
    table = _bit_table(x.size)[0]
    return StateVector(x.size, np.exp(1j * (table @ _encoding_angles(x))) * 2.0 ** (-x.size / 2.0))


def apply_ansatz(s: StateVector, theta) -> StateVector:
    """Trainable Ry(theta_q) on each qubit, in qubit-index order."""
    theta = _validated(theta, s.n_qubits)
    for q in range(s.n_qubits):
        s = apply_ry(s, q, theta[q])
    return s


def expectation_parity(s: StateVector) -> float:
    """<Z x ... x Z>: sum of (+-1 by bit parity) times basis probabilities."""
    return float(np.sum(_bit_table(s.n_qubits)[1] * np.abs(s.amps) ** 2))


def pqc_forward(x, theta) -> float:
    """Probability output (parity expectation + 1) / 2, in [0, 1]."""
    x = _validated(x)
    theta = _validated(theta, x.size)
    row = np.concatenate([_encoding_angles(x), theta])
    return (float(_parity_expectations(x.size, row[None])[0]) + 1.0) / 2.0


def pqc_backward(x, theta, upstream: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-shift gradients of the probability output.

    Every parameterized gate (phase, pairwise phase, Ry) gets the two-point
    rule with shift pi/2 and divisor 2, valid for all three families (Ry
    generator eigenvalues +-1/2, phase generators {0, 1}); all 2G shifted
    circuits are evaluated in one call. Returns (grad_x, grad_theta), each
    scaled by `upstream` times the 1/2 factor from mapping the expectation
    to a probability. Feature gradients chain through every gate occurrence
    the feature enters: d(angle)/dx_i is 2 for its own phase gate and
    -2(pi - x_j) for each pairwise phase.
    """
    x = _validated(x)
    theta = _validated(theta, x.size)
    n = x.size
    base = np.concatenate([_encoding_angles(x), theta])
    shift = np.eye(base.size) * (math.pi / 2.0)
    f = _parity_expectations(n, np.concatenate([base + shift, base - shift]))
    d = (f[: base.size] - f[base.size :]) / 2.0

    grad_x = 2.0 * d[:n]
    _, _, first, second = _bit_table(n)
    for k, (i, j) in enumerate(zip(first, second), start=n):
        grad_x[i] += d[k] * (-2.0 * (math.pi - x[j]))
        grad_x[j] += d[k] * (-2.0 * (math.pi - x[i]))
    scale = 0.5 * upstream
    return grad_x * scale, d[-n:] * scale
