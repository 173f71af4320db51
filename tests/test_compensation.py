import dataclasses
import math
import pickle
from itertools import product

import numpy as np
import pytest
from scipy.optimize import minimize

import polalign as pa
from polalign import compensation
from polalign.compensation import (
    _POLE_TOLERANCE,
    CompensationResult,
    _least_travel,
    _plate_settings,
    _wahba_rotation,
    wrapped_angle_distance,
)
from polalign.montecarlo import TrialConfig, generate_counts, stokes_axes
from polalign.tomography import CountMatrix, Direction, ReconstructionSet

import oracles
from conftest import (
    default_jobs,
    drawn_count_matrix,
    exact_count_matrix,
    haar_channel,
    stokes_qber,
)
from oracles import KETS

IDENTITY_ROTATION = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def exact_reconstruction(
    u: np.ndarray, fs: float = 1.0, direction: Direction = Direction.FORWARD
) -> ReconstructionSet:
    """Reconstruction set built from the Stokes vectors of the exact states.

    Forward: the post-channel states U|psi>.  Reversed: the inputs U+|psi>
    that the channel maps onto each outcome.
    """
    op = u if direction is Direction.FORWARD else u.conj().T
    stokes = [oracles.stokes(oracles.depolarize(op @ KETS[label], fs)) for label in pa.BB84_LABELS]
    return ReconstructionSet(direction=direction, rows=np.array(stokes))


def _fidelity_objective(recon: ReconstructionSet):
    """-sum_n <psi_n| V rho_n V+ |psi_n> (V+ rho_n V when reversed) over the plate angles.

    Written in scalar complex arithmetic: a Nelder-Mead search calls it
    thousands of times per reconstruction.
    """
    pairs = [(KETS[label].tolist(), oracles.rho_from_stokes(s).ravel().tolist())
             for label, s in zip(pa.BB84_LABELS, recon.rows)]
    forward = recon.direction is Direction.FORWARD

    def objective(x):
        v00, v01, v10, v11 = oracles.stack_entries(*x)
        if forward:  # V+
            v00, v01, v10, v11 = (v00.conjugate(), v10.conjugate(),
                                  v01.conjugate(), v11.conjugate())
        total = 0.0
        for (p0, p1), (a, b, c, d) in pairs:
            # the state w each rho_n is scored against, and <w| rho_n |w>
            w0, w1 = v00 * p0 + v01 * p1, v10 * p0 + v11 * p1
            total += (w0.conjugate() * (a * w0 + b * w1) + w1.conjugate() * (c * w0 + d * w1)).real
        return -total

    return objective


class TestInternalResults:
    """The results reconstruct_* and optimize build from their own checked values."""

    @pytest.mark.parametrize("direction", list(Direction))
    def test_equal_to_the_public_constructors(self, direction):
        # they skip the constructors, so they must hold what the constructors
        # would make of the same values, field for field and pickle for pickle
        rng = np.random.default_rng(27)
        reconstruct = (pa.reconstruct_forward if direction is Direction.FORWARD
                       else pa.reconstruct_reversed)
        for fs in (0.95, 1.0):
            axes = stokes_axes(pa.haar_random_unitary(rng, 200), direction)
            counts = generate_counts(axes, TrialConfig(direction, 400, fs), rng)
            for cm in CountMatrix.block(direction, counts):
                recon = reconstruct(cm)
                public = ReconstructionSet(direction, np.array(recon.rows))
                assert type(recon) is ReconstructionSet
                assert recon == public
                assert pickle.dumps(recon) == pickle.dumps(public)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    recon.rows = public.rows
                for plates in (True, False):
                    result = pa.optimize(recon, plates=plates)
                    public = CompensationResult(result.angles, result.rotation,
                                                result.predicted_qber, 1, True)
                    assert type(result) is CompensationResult
                    assert result == public
                    assert pickle.dumps(result) == pickle.dumps(public)
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        result.predicted_qber = 0.0


class TestCost:
    """The test-side cost, minus the summed fidelity, that optimize is checked against."""

    def test_ideal_projectors_at_zero_angles(self):
        value = _fidelity_objective(exact_reconstruction(np.eye(2)))((0, 0, 0))
        assert value == pytest.approx(-4.0, abs=1e-12)

    def test_maximally_mixed_recon(self, rng):
        objective = _fidelity_objective(
            ReconstructionSet(direction=Direction.FORWARD, rows=np.zeros((4, 3)))
        )
        for _ in range(10):
            assert objective(rng.uniform(0, math.pi, 3)) == pytest.approx(-2.0, abs=1e-12)

    def test_reversed_orientation(self, rng):
        # with reversed reconstructions of U, the correct pre-compensation
        # V = U+ must score a perfect cost
        for _ in range(10):
            u = haar_channel(rng)
            fwd = pa.reconstruct_forward(exact_count_matrix(u, Direction.FORWARD))
            angles = pa.optimize(fwd).angles  # V(angles) ~ U+
            rev = pa.reconstruct_reversed(exact_count_matrix(u, Direction.REVERSED))
            assert _fidelity_objective(rev)(angles.as_tuple()) == pytest.approx(-4.0, abs=1e-5)

    def test_matches_fidelity_definition(self, rng):
        # forward cost is -sum <psi| V rho V+ |psi>, checked against numpy
        u = haar_channel(rng)
        recon = exact_reconstruction(u, fs=0.9)
        angles = pa.WavePlateAngles(*rng.uniform(0, math.pi, 3))
        v = oracles.stack(*angles.as_tuple())
        expected = 0.0
        for label, s in zip(pa.BB84_LABELS, recon.rows):
            ket = KETS[label]
            rho = oracles.rho_from_stokes(s)
            expected -= float(np.real(ket.conj() @ v @ rho @ v.conj().T @ ket))
        assert _fidelity_objective(recon)(angles.as_tuple()) == pytest.approx(expected, abs=1e-12)


class TestOptimize:
    def test_identity_channel(self, rng):
        recon = pa.reconstruct_forward(exact_count_matrix(np.eye(2), Direction.FORWARD))
        result = pa.optimize(recon)
        assert result.predicted_qber < 1e-6
        assert sum(wrapped_angle_distance(t, 0.0) for t in result.angles.as_tuple()) < 1e-9

    def test_exact_states_100_haar_channels(self, rng):
        good = 0
        for _ in range(100):
            u = haar_channel(rng)
            result = pa.optimize(exact_reconstruction(u))
            if (result.predicted_qber < 1e-6
                    and stokes_qber(u, result.rotation, Direction.FORWARD) < 1e-6):
                good += 1
        assert good >= 99

    def test_result_invariants(self, rng):
        u = haar_channel(rng)
        recon = exact_reconstruction(u, fs=0.92)
        result = pa.optimize(recon)
        assert 0.0 <= result.predicted_qber <= 1.0
        cost = _fidelity_objective(recon)(result.angles.as_tuple())
        assert result.predicted_qber == pytest.approx(1.0 + cost / 4.0, abs=1e-9)
        for t in result.angles.as_tuple():
            assert 0.0 <= t < math.pi

    def test_never_worse_than_any_start(self):
        # the closed form is the global optimum: no 10-start Nelder-Mead
        # search of the cost finds a lower value on noisy reconstructions
        for direction, seed in product(Direction, range(100)):
            rng = np.random.default_rng(seed)
            u = haar_channel(rng)
            cm = drawn_count_matrix(u, pa.TrialConfig(direction, 400, 0.9), rng)
            if direction is Direction.FORWARD:
                recon = pa.reconstruct_forward(cm)
            else:
                recon = pa.reconstruct_reversed(cm)
            objective = _fidelity_objective(recon)
            result = pa.optimize(recon)
            cost = 4.0 * (result.predicted_qber - 1.0)
            assert cost == pytest.approx(objective(result.angles.as_tuple()), abs=1e-12)
            starts = [(0.0, 0.0, 0.0)] + [tuple(rng.uniform(0, math.pi, 3)) for _ in range(9)]
            searched = min(
                minimize(
                    objective, x0, method="Nelder-Mead", options={"xatol": 1e-6, "fatol": 1e-13}
                ).fun
                for x0 in starts
            )
            assert cost <= searched + 1e-10

    @pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.REVERSED])
    @pytest.mark.parametrize("tilt", [0.0, 1e-10])
    def test_degenerate_rotators(self, direction, tilt):
        # channels that keep the S3 axis in place (identity, rotated linear
        # frames, half-wave plates) leave theta1 free; a 1e-10 tilt away
        # from that case must not cost accuracy
        tilted = oracles.unitary(
            np.array([[math.cos(tilt / 2), -1j * math.sin(tilt / 2)],
                      [-1j * math.sin(tilt / 2), math.cos(tilt / 2)]])
        )
        channels = [np.eye(2)]
        for alpha in (0.3, math.pi / 2, 2.0, math.pi):
            c, s = math.cos(alpha / 2), math.sin(alpha / 2)
            channels.append(np.array([[c, -s], [s, c]]))
        channels += [oracles.half(t) for t in (0.0, 0.4, 1.3)]
        prev = pa.WavePlateAngles(0.7, 0.2, 2.9)
        for channel in channels:
            u = oracles.unitary(tilted @ channel)
            recon = exact_reconstruction(u, direction=direction)
            for previous in (None, prev):
                result = pa.optimize(recon, previous_angles=previous)
                assert 4.0 * result.predicted_qber == pytest.approx(0.0, abs=1e-12)
                assert stokes_qber(u, result.rotation, direction) < 1e-12
                assert oracles.jones_qber(u, result.angles.as_tuple(), direction) < 1e-12
                if tilt == 0.0:
                    reference = 0.0 if previous is None else prev.theta1
                    assert wrapped_angle_distance(result.angles.theta1, reference) < 1e-12

    @pytest.mark.parametrize("direction", list(Direction))
    def test_no_plates_same_rotation_and_prediction(self, direction):
        # plates=False skips the plate setting and changes nothing else, bit for bit
        cfg = pa.TrialConfig(direction, 400, 0.95)
        rng = np.random.default_rng(1981)
        reconstruct = (pa.reconstruct_forward if direction is Direction.FORWARD
                       else pa.reconstruct_reversed)
        for _ in range(200):
            recon = reconstruct(drawn_count_matrix(haar_channel(rng), cfg, rng))
            full, bare = pa.optimize(recon), pa.optimize(recon, plates=False)
            assert bare.angles is None and full.angles is not None
            assert bare.rotation == full.rotation
            assert bare.predicted_qber == full.predicted_qber

    @pytest.mark.parametrize("plates", [True, False])
    @pytest.mark.parametrize("h", [math.nan, 5.0])
    def test_prediction_outside_range_refused(self, monkeypatch, plates, h):
        # a rotation maximum h outside [0, 4] (here planted) is refused with
        # or without plates
        monkeypatch.setattr(compensation, "_wahba_rotation",
                            lambda a, b: (IDENTITY_ROTATION, h))
        with pytest.raises(ValueError, match="escaped"):
            pa.optimize(exact_reconstruction(np.eye(2)), plates=plates)

    def test_prediction_invariant_to_previous(self, rng):
        # the reference only picks among settings of one rotation
        u = haar_channel(rng)
        recon = exact_reconstruction(u)
        res_a = pa.optimize(recon)
        res_b = pa.optimize(recon, previous_angles=pa.WavePlateAngles(1.0, 0.5, 0.2))
        assert abs(res_a.predicted_qber - res_b.predicted_qber) <= 1e-9

    def test_predicted_is_pessimistic_by_reconstruction_impurity(self):
        # the self-predicted error scores the compensation against the
        # reconstructed states, which finite counting leaves slightly
        # mixed; the prediction therefore upper-bounds the true residual,
        # and the bias equals the mean reconstruction impurity
        cfg = pa.TrialConfig(Direction.FORWARD, 400, 1.0)
        predicted, actual, impurity = [], [], []
        for seed in range(1000):
            rng = np.random.default_rng(31_000 + seed)
            u = haar_channel(rng)
            cm = drawn_count_matrix(u, cfg, rng)
            recon = pa.reconstruct_forward(cm)
            impurity.append(
                np.mean([np.linalg.eigvalsh(oracles.rho_from_stokes(s)).min()
                         for s in recon.rows])
            )
            result = pa.optimize(recon)
            predicted.append(result.predicted_qber)
            actual.append(stokes_qber(u, result.rotation, Direction.FORWARD))
        mean_pred = float(np.mean(predicted))
        mean_act = float(np.mean(actual))
        mean_impurity = float(np.mean(impurity))
        assert mean_pred >= mean_act
        # gap tracks the impurity scale and stays small in absolute terms
        assert mean_pred - mean_act == pytest.approx(mean_impurity, abs=0.005)
        assert mean_pred - mean_act < 0.025


def kabsch_maximum(b: np.ndarray) -> float:
    """max of tr(R B) over rotations R, from the SVD (Kabsch, Acta Cryst. A32, 922 (1976))."""
    u, sigma, vt = np.linalg.svd(b)
    return float(sigma[0] + sigma[1] + np.sign(np.linalg.det(u @ vt)) * sigma[2])


def wahba_cases():
    """1000 random (a, b) pairs, then the rank <= 1 and nearly rank-1 cases."""
    rng = np.random.default_rng(1965)
    for _ in range(1000):
        yield rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)
    a = np.array([0.7, -1.1, 0.3])
    side = np.cross(a, [0.2, 0.5, -0.9])
    side /= np.linalg.norm(side)
    zero = np.zeros(3)
    yield a, -0.6 * a  # a parallel to b
    yield a, 1.3 * a
    yield zero, a
    yield a, zero
    yield zero, zero
    yield np.array([2.0, 0.0, 0.0]), zero  # pure H and V, no D/A information
    yield np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])  # both along S3
    for tilt in (1e-9, 1e-15):
        yield a, 0.8 * a + tilt * side
        yield 0.8 * a + tilt * side, a


class TestWahbaRotation:
    """The closed-form rotation for B = [a b 0] against the SVD oracle."""

    def test_matches_kabsch(self):
        for a, b in wahba_cases():
            rows, h = _wahba_rotation(a.tolist(), b.tolist())
            r = np.array(rows)
            bmat = np.column_stack([a, b, np.zeros(3)])
            np.testing.assert_allclose(r @ r.T, np.eye(3), rtol=0, atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12
            trace = float(np.trace(r @ bmat))
            assert trace >= kabsch_maximum(bmat) - 1e-12, (a, b)
            assert h == pytest.approx(trace, rel=0, abs=1e-12)
            # so the singular values come free: h = s1 + s2 and s1 s2 = |a x b|
            sigma = np.linalg.svd(bmat, compute_uv=False)
            assert h == pytest.approx(sigma[0] + sigma[1], rel=0, abs=1e-12)
            assert np.linalg.norm(np.cross(a, b)) == pytest.approx(sigma[0] * sigma[1], abs=1e-12)


class TestResidualQber:
    def test_identity(self):
        for direction in Direction:
            assert stokes_qber(np.eye(2), IDENTITY_ROTATION, direction) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_swap_channel_uncompensated(self):
        u = oracles.half(math.pi / 4)
        for direction in Direction:
            assert stokes_qber(u, IDENTITY_ROTATION, direction) == pytest.approx(0.5, abs=1e-12)
            assert oracles.jones_qber(u, (0, 0, 0), direction) == pytest.approx(0.5, abs=1e-12)

    def test_optimized_haar_channel(self):
        rng = np.random.default_rng(9)
        u = haar_channel(rng)
        result = pa.optimize(exact_reconstruction(u))
        assert stokes_qber(u, result.rotation, Direction.FORWARD) < 1e-6

    def test_exact_compensation_not_negative(self, rng):
        # the trace of an exact compensation can round above 2
        for direction in Direction:
            for _ in range(200):
                u = haar_channel(rng)
                result = pa.optimize(exact_reconstruction(u, direction=direction))
                assert 0.0 <= stokes_qber(u, result.rotation, direction) < 1e-12

    def test_affine_link_to_cost(self, rng):
        # with exact unit-fidelity reconstructions, residual = 1 + cost/4,
        # in the orientation the reconstructions were taken in
        for direction in Direction:
            for _ in range(100):
                u = haar_channel(rng)
                recon = exact_reconstruction(u, direction=direction)
                x = rng.uniform(0, math.pi, 3)
                lhs = oracles.jones_qber(u, x, direction)
                rhs = 1.0 + _fidelity_objective(recon)(x) / 4.0
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_operator_order_matches_jones_form(self, rng):
        # 1 - (1/4) sum |<psi| W |psi>|^2 with W = V U forward (plates after
        # the channel) and W = U V reversed (plates before it), V built from
        # scalar plate matrices: the program's Stokes score of the plates'
        # rotation and the oracle's Jones score both equal it
        kets = [KETS[label] for label in pa.BB84_LABELS]
        for _ in range(200):
            u = haar_channel(rng)
            x = rng.uniform(0, math.pi, 3)
            v = oracles.stack(*x)
            rotation = oracles.stokes_rotation(v).tolist()
            for direction, w in ((Direction.FORWARD, v @ u), (Direction.REVERSED, u @ v)):
                expected = oracles.qber([oracles.overlap(k, w @ k) for k in kets])
                assert stokes_qber(u, rotation, direction) == pytest.approx(expected, abs=1e-12)
                assert oracles.jones_qber(u, x, direction) == pytest.approx(expected, abs=1e-12)

    def test_direction_required(self):
        axes = pa.stokes_axes(np.eye(2), Direction.FORWARD)
        with pytest.raises(TypeError):
            pa.residual_qber(axes, IDENTITY_ROTATION)


class TestMonotoneImprovement:
    def test_mean_residual_nonincreasing_in_n(self):
        jobs = default_jobs()
        sweep = pa.run_sweep(
            directions=[Direction.FORWARD],
            n_values=[400, 1600, 6400],
            fs_values=[1.0, 0.95],
            samples=500,
            master_seed=90210,
            jobs=jobs,
        )
        for fs in (1.0, 0.95):
            means = [
                c.mean_qber
                for c in sorted(
                    (c for c in sweep.cells if c.signal_fidelity == fs),
                    key=lambda c: c.n_detected,
                )
            ]
            assert len(means) == 3
            for lo, hi in zip(means[1:], means[:-1]):
                assert lo <= hi + 5e-4


class TestPlateSettings:
    @staticmethod
    def assert_realised(rotation, reference):
        settings = _plate_settings(rotation, reference)
        assert len(settings) == 4
        for setting in settings:
            realised = oracles.stokes_rotation(oracles.stack(*setting))
            np.testing.assert_allclose(realised, rotation, rtol=0, atol=1e-12)

    def test_every_setting_realises_haar_rotations(self):
        # the second pair is derived from the first, not solved for: all
        # four settings must still give the rotation through the Jones plates
        rng = np.random.default_rng(1976)
        for k in range(1000):
            rotation = oracles.stokes_rotation(oracles.haar_unitary(*rng.random(4)))
            reference = (0.0, 0.0, 0.0) if k % 4 == 0 else tuple(rng.uniform(0.0, math.pi, 3))
            self.assert_realised(tuple(map(tuple, rotation)), reference)

    @pytest.mark.parametrize("tilt", [0.0, 1e-13, 0.9 * _POLE_TOLERANCE])
    def test_every_setting_realises_pole_rotations(self, tilt):
        # R keeps the S3 pole (or sends it to the other pole) to within the
        # tolerance, so theta1 comes from the reference
        rng = np.random.default_rng(1977)
        for _ in range(100):
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            turn = oracles.stokes_rotation(oracles.unitary(
                [[math.cos(alpha / 2), -math.sin(alpha / 2)],
                 [math.sin(alpha / 2), math.cos(alpha / 2)]]))
            tilted = oracles.stokes_rotation(oracles.unitary(
                [[math.cos(tilt / 2), -1j * math.sin(tilt / 2)],
                 [-1j * math.sin(tilt / 2), math.cos(tilt / 2)]]))
            half = oracles.half(rng.uniform(0.0, math.pi))
            for flip in (np.eye(3), oracles.stokes_rotation(half)):
                rotation = tilted @ flip @ turn
                assert math.hypot(rotation[2, 0], rotation[2, 1]) <= _POLE_TOLERANCE
                reference = tuple(rng.uniform(0.0, math.pi, 3))
                self.assert_realised(tuple(map(tuple, rotation)), reference)


class TestWrappedDistance:
    def test_symmetric_short_path(self):
        assert wrapped_angle_distance(0.1, math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
        assert wrapped_angle_distance(0.0, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_period(self):
        assert wrapped_angle_distance(0.2, 0.2 + math.pi) == pytest.approx(0.0, abs=1e-12)


class TestLeastTravel:
    @staticmethod
    def four_way(settings, reference):
        r1, r2, r3 = reference
        return min(settings, key=lambda s: (wrapped_angle_distance(s[0], r1)
                                            + wrapped_angle_distance(s[1], r2)
                                            + wrapped_angle_distance(s[2], r3)))

    def test_matches_four_way_min(self):
        # the pairwise choice against every setting's travel summed directly,
        # on the settings of random rotations from random references
        rng = np.random.default_rng(8)
        for k in range(4000):
            rows, _ = _wahba_rotation(tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
            reference = (0.0, 0.0, 0.0) if k % 4 == 0 else tuple(rng.uniform(0.0, math.pi, 3))
            settings = _plate_settings(rows, reference)
            assert _least_travel(settings, reference) is self.four_way(settings, reference)

    def test_ties_at_quarter_pi_keep_the_first(self):
        # half plates at +-pi/4 from the reference are exactly as far from
        # it as their partners, so each pair ties within and keeps its
        # first; quarter plates at 0 or pi/2 a quarter of pi from the
        # reference cost both pairs pi/2 exactly, so the pairs tie across
        # too, and min keeps the first pair
        rng = np.random.default_rng(9)
        q = math.pi / 4.0
        for k in range(2000):
            if k % 2:
                t1, t3, r1, r3 = rng.uniform(0.0, math.pi, 4)
            else:
                t1, t3 = rng.choice([0.0, 2.0 * q], size=2)
                r1, r3 = rng.choice([q, 3.0 * q], size=2)
            t2, u2 = rng.choice([q, -q], size=2)
            reference = (r1, 0.0, r3)
            s1, s3 = t1 + 2.0 * q, t3 + 2.0 * q
            settings = [(t1, t2, t3), (t1, t2 + 2.0 * q, t3), (s1, u2, s3), (s1, u2 + 2.0 * q, s3)]
            chosen = _least_travel(settings, reference)
            assert chosen is self.four_way(settings, reference)
            assert chosen is settings[0] or chosen is settings[2]
            if k % 2 == 0:
                assert chosen is settings[0]
