import math

import numpy as np
import pytest

from cqbrain import qsim
from cqbrain.errors import BadLength, BadQubit
from cqbrain.qsim import StateVector

from oracles import dense_circuit_state

SQ2 = 1.0 / math.sqrt(2.0)


def _state(n, amps):
    return StateVector(n, np.asarray(amps, dtype=np.complex128))


def _random_state(n, rng):
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return _state(n, amps / np.linalg.norm(amps))


class TestGates:
    def test_h_on_zero(self):
        s = qsim.apply_h(StateVector.zero(1), 0)
        assert np.allclose(s.amps, [SQ2, SQ2])

    def test_h_on_one(self):
        s = qsim.apply_h(_state(1, [0, 1]), 0)
        assert np.allclose(s.amps, [SQ2, -SQ2])

    def test_h_involution(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            s = _random_state(n, rng)
            back = qsim.apply_h(qsim.apply_h(s, n - 1), n - 1)
            assert np.abs(back.amps - s.amps).max() < 1e-12

    def test_p_zero_is_identity(self):
        s = _random_state(2, np.random.default_rng(1))
        assert np.allclose(qsim.apply_p(s, 0, 0.0).amps, s.amps)

    def test_p_pi_flips_plus_to_minus(self):
        s = qsim.apply_p(_state(1, [SQ2, SQ2]), 0, math.pi)
        assert np.allclose(s.amps, [SQ2, -SQ2], atol=1e-12)

    def test_p_preserves_magnitudes(self):
        s = _random_state(3, np.random.default_rng(2))
        out = qsim.apply_p(s, 1, 1.234)
        assert np.allclose(np.abs(out.amps), np.abs(s.amps))

    def test_cz_signs(self):
        s = qsim.apply_cz(_state(2, [0, 0, 0, 1]), 0, 1)
        assert np.allclose(s.amps, [0, 0, 0, -1])
        for basis in (0, 1, 2):
            amps = np.zeros(4)
            amps[basis] = 1.0
            assert np.allclose(qsim.apply_cz(_state(2, amps), 0, 1).amps, amps)

    def test_cz_symmetric(self):
        s = _random_state(3, np.random.default_rng(3))
        a = qsim.apply_cz(s, 0, 2)
        b = qsim.apply_cz(s, 2, 0)
        assert np.allclose(a.amps, b.amps)

    def test_cz_needs_distinct_qubits(self):
        with pytest.raises(BadQubit):
            qsim.apply_cz(StateVector.zero(2), 1, 1)

    def test_ry_pi_maps_zero_to_one(self):
        s = qsim.apply_ry(StateVector.zero(1), 0, math.pi)
        assert np.allclose(s.amps, [0, 1], atol=1e-12)

    def test_ry_zero_is_identity(self):
        s = _random_state(2, np.random.default_rng(4))
        assert np.allclose(qsim.apply_ry(s, 1, 0.0).amps, s.amps)

    def test_ry_keeps_real_amplitudes_real(self):
        amps = np.random.default_rng(5).standard_normal(4)
        amps /= np.linalg.norm(amps)
        out = qsim.apply_ry(_state(2, amps), 0, 0.7)
        assert np.abs(out.amps.imag).max() == 0.0

    def test_zz_phase_zero_identity(self):
        s = _random_state(2, np.random.default_rng(6))
        assert np.allclose(qsim.apply_zz_phase(s, 0, 1, 0.0).amps, s.amps)

    def test_zz_phase_xor_rule(self):
        phi = 0.9
        out = qsim.apply_zz_phase(_state(2, [0.5, 0.5, 0.5, 0.5]), 0, 1, phi)
        assert np.allclose(out.amps[0], 0.5)
        assert np.allclose(out.amps[3], 0.5)
        assert np.allclose(out.amps[1], 0.5 * np.exp(1j * phi))
        assert np.allclose(out.amps[2], 0.5 * np.exp(1j * phi))

    def test_zz_phase_diagonal(self):
        s = _random_state(3, np.random.default_rng(7))
        out = qsim.apply_zz_phase(s, 0, 2, 2.5)
        assert np.allclose(np.abs(out.amps), np.abs(s.amps))

    def test_bad_qubit_indices(self):
        s = StateVector.zero(2)
        with pytest.raises(BadQubit):
            qsim.apply_h(s, 2)
        with pytest.raises(BadQubit):
            qsim.apply_p(s, -1, 0.3)
        with pytest.raises(BadQubit):
            qsim.apply_ry(s, 5, 0.3)


class TestNormAndInverses:
    GATES = ("h", "p", "cz", "ry", "zz")

    def _random_gate(self, rng, n):
        kind = self.GATES[rng.integers(0, len(self.GATES))]
        q1 = int(rng.integers(0, n))
        q2 = int((q1 + 1 + rng.integers(0, n - 1)) % n) if n > 1 else 0
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        if n == 1 and kind in ("cz", "zz"):
            kind = "ry"
        return kind, q1, q2, angle

    def _apply(self, s, kind, q1, q2, angle, invert=False):
        sign = -1.0 if invert else 1.0
        if kind == "h":
            return qsim.apply_h(s, q1)
        if kind == "p":
            return qsim.apply_p(s, q1, sign * angle)
        if kind == "cz":
            return qsim.apply_cz(s, q1, q2)
        if kind == "ry":
            return qsim.apply_ry(s, q1, sign * angle)
        return qsim.apply_zz_phase(s, q1, q2, sign * angle)

    def test_long_random_sequences_preserve_norm(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            s = StateVector.zero(n)
            for _ in range(1000):
                s = self._apply(s, *self._random_gate(rng, n))
            assert abs(s.norm() - 1.0) < 1e-10

    def test_gate_inverse_restores_state(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            for _ in range(50):
                s = _random_state(n, rng)
                gate = self._random_gate(rng, n)
                out = self._apply(self._apply(s, *gate), *gate, invert=True)
                assert np.abs(out.amps - s.amps).max() < 1e-12


class TestEncoding:
    def test_single_qubit_case(self):
        s = qsim.encode_zz([math.pi / 2])
        # H then P(pi): (|0> - |1>)/sqrt(2)
        assert np.allclose(s.amps, [SQ2, -SQ2], atol=1e-12)

    def test_two_qubit_against_dense_oracle(self):
        x = [0.0, 0.0]
        ops = [
            ("h", (0,), None),
            ("h", (1,), None),
            ("p", (0,), 0.0),
            ("p", (1,), 0.0),
            ("zz", (0, 1), 2.0 * math.pi**2),
        ]
        expected = dense_circuit_state(2, ops)
        got = qsim.encode_zz(x)
        assert np.abs(got.amps - expected).max() < 1e-12
        phase = np.exp(2j * math.pi**2)
        assert np.allclose(got.amps, 0.5 * np.array([1.0, phase, phase, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_amplitude_magnitudes_uniform(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            s = qsim.encode_zz(rng.uniform(-3, 3, n))
            assert np.allclose(np.abs(s.amps), 2.0 ** (-n / 2.0), atol=1e-12)
            assert abs(s.norm() - 1.0) < 1e-12

    def test_random_encodings_match_dense_oracle(self):
        rng = np.random.default_rng(10)
        for n in (2, 3):
            for _ in range(5):
                x = rng.uniform(-2, 2, n)
                ops = [("h", (q,), None) for q in range(n)]
                ops += [("p", (q,), 2.0 * x[q]) for q in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        ops.append(("zz", (i, j), 2.0 * (math.pi - x[i]) * (math.pi - x[j])))
                expected = dense_circuit_state(n, ops)
                assert np.abs(qsim.encode_zz(x).amps - expected).max() < 1e-12

    def test_bad_length(self):
        with pytest.raises(BadLength):
            qsim.encode_zz([])
        with pytest.raises(BadLength):
            qsim.encode_zz(np.zeros(13))
        with pytest.raises(BadLength):
            qsim.encode_zz([np.nan])


class TestAnsatzAndMeasurement:
    def test_zero_angles_identity(self):
        s = _random_state(3, np.random.default_rng(11))
        out = qsim.apply_ansatz(s, np.zeros(3))
        assert np.allclose(out.amps, s.amps)

    def test_single_qubit_quarter_turn(self):
        out = qsim.apply_ansatz(StateVector.zero(1), [math.pi / 2])
        assert np.allclose(out.amps, [SQ2, SQ2], atol=1e-12)

    def test_order_independence_across_qubits(self):
        rng = np.random.default_rng(12)
        s = _random_state(3, rng)
        theta = rng.uniform(-2, 2, 3)
        a = qsim.apply_ansatz(s, theta)
        b = qsim.apply_ry(qsim.apply_ry(qsim.apply_ry(s, 2, theta[2]), 0, theta[0]), 1, theta[1])
        assert np.abs(a.amps - b.amps).max() < 1e-12

    def test_ansatz_length_mismatch(self):
        with pytest.raises(BadLength):
            qsim.apply_ansatz(StateVector.zero(2), [0.1])

    def test_parity_basis_states(self):
        assert qsim.expectation_parity(_state(2, [1, 0, 0, 0])) == pytest.approx(1.0)
        assert qsim.expectation_parity(_state(2, [0, 1, 0, 0])) == pytest.approx(-1.0)

    def test_parity_bell_state(self):
        bell = _state(2, [SQ2, 0, 0, SQ2])
        assert qsim.expectation_parity(bell) == pytest.approx(1.0)

    def test_parity_in_range_and_consistent(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            s = _random_state(n, rng)
            val = qsim.expectation_parity(s)
            assert -1.0 <= val <= 1.0
            probs = np.abs(s.amps) ** 2
            signs = [(-1) ** bin(b).count("1") for b in range(2**n)]
            assert val == pytest.approx(float(np.dot(signs, probs)))


class TestPqc:
    def test_forward_balanced_point(self):
        assert qsim.pqc_forward([0.0], [0.0]) == pytest.approx(0.5)

    def test_forward_quarter_turn_hits_zero(self):
        # analytic response: p = (1 - sin(theta) cos(2x)) / 2 -> 0 at theta=pi/2, x=0
        assert qsim.pqc_forward([0.0], [math.pi / 2]) == pytest.approx(0.0, abs=1e-12)

    def test_forward_range(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            val = qsim.pqc_forward(rng.uniform(-4, 4, n), rng.uniform(-4, 4, n))
            assert 0.0 <= val <= 1.0

    def test_forward_periodic_in_theta(self):
        rng = np.random.default_rng(15)
        for n in (1, 2, 3):
            x = rng.uniform(-2, 2, n)
            theta = rng.uniform(-2, 2, n)
            base = qsim.pqc_forward(x, theta)
            for i in range(n):
                bumped = theta.copy()
                bumped[i] += 2 * math.pi
                assert qsim.pqc_forward(x, bumped) == pytest.approx(base, abs=1e-12)

    def test_backward_matches_cosine_response(self):
        x, theta, up = 0.3, 0.8, 1.7
        grad_x, grad_theta = qsim.pqc_backward([x], [theta], upstream=up)
        # d/dtheta of (1 - sin t cos 2x)/2 and d/dx, derived by hand
        assert grad_theta[0] == pytest.approx(up * (-math.cos(theta) * math.cos(2 * x)) / 2.0, abs=1e-10)
        assert grad_x[0] == pytest.approx(up * math.sin(theta) * math.sin(2 * x), abs=1e-10)

    def test_backward_zero_at_extremum(self):
        grad_x, grad_theta = qsim.pqc_backward([0.0], [math.pi / 2])
        assert abs(grad_theta[0]) <= 1e-8

    def test_backward_length_mismatch(self):
        with pytest.raises(BadLength):
            qsim.pqc_backward([0.1, 0.2], [0.1])

    def test_shift_rule_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        h = 1e-5
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(1, 4))
            x = rng.uniform(-3, 3, n)
            theta = rng.uniform(-3, 3, n)
            grad_x, grad_theta = qsim.pqc_backward(x, theta)
            for i in range(n):
                for vec, grad in ((x, grad_x), (theta, grad_theta)):
                    bump = vec.copy()
                    bump[i] = vec[i] + h
                    hi = qsim.pqc_forward(bump if vec is x else x, bump if vec is theta else theta)
                    bump[i] = vec[i] - h
                    lo = qsim.pqc_forward(bump if vec is x else x, bump if vec is theta else theta)
                    worst = max(worst, abs(grad[i] - (hi - lo) / (2 * h)))
        assert worst <= 1e-6


def _head_ops(x, theta):
    """Gate list (kind, qubits, angle) of the full head circuit."""
    n = len(x)
    ops = [("h", (q,), None) for q in range(n)]
    ops += [("p", (q,), 2.0 * x[q]) for q in range(n)]
    ops += [("zz", (i, j), 2.0 * (math.pi - x[i]) * (math.pi - x[j]))
            for i in range(n) for j in range(i + 1, n)]
    return ops + [("ry", (q,), theta[q]) for q in range(n)]


def _dense_parity(n, ops):
    probs = np.abs(dense_circuit_state(n, ops)) ** 2
    return float(np.dot([(-1) ** bin(b).count("1") for b in range(2**n)], probs))


class TestEvaluatorAgainstDenseOracle:
    """The closed-form evaluator against gate-by-gate dense-matrix circuits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forward_and_per_gate_shift_gradients(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            x = rng.uniform(-3, 3, n)
            theta = rng.uniform(-3, 3, n)
            up = float(rng.uniform(-2, 2))
            ops = _head_ops(x, theta)
            assert abs(qsim.pqc_forward(x, theta) - (_dense_parity(n, ops) + 1.0) / 2.0) <= 1e-12

            want_x, want_theta = np.zeros(n), np.zeros(n)
            for k, (kind, qubits, angle) in enumerate(ops):
                if kind == "h":
                    continue
                shifted = list(ops)
                shifted[k] = (kind, qubits, angle + math.pi / 2.0)
                plus = _dense_parity(n, shifted)
                shifted[k] = (kind, qubits, angle - math.pi / 2.0)
                d = 0.5 * up * (plus - _dense_parity(n, shifted)) / 2.0
                if kind == "p":
                    want_x[qubits[0]] += 2.0 * d
                elif kind == "zz":
                    i, j = qubits
                    want_x[i] += -2.0 * (math.pi - x[j]) * d
                    want_x[j] += -2.0 * (math.pi - x[i]) * d
                else:
                    want_theta[qubits[0]] += d
            grad_x, grad_theta = qsim.pqc_backward(x, theta, upstream=up)
            assert np.abs(grad_x - want_x).max() <= 1e-10
            assert np.abs(grad_theta - want_theta).max() <= 1e-10
