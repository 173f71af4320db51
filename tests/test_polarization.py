import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest

import polalign as pa
from polalign.compensation import _plate_settings
from polalign.montecarlo import expected_probabilities, stokes_axes

import oracles
from conftest import haar_channel, haar_state, operator_fidelity, stokes_qber
from oracles import KETS

SQ2 = math.sqrt(0.5)
#: non-finite entries, real and imaginary: NaN fails a tolerance test only if written to
NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, -math.inf)]


class TestCanonicalStates:
    def test_h_amplitudes(self):
        np.testing.assert_allclose(KETS["H"], [1, 0], atol=1e-15)

    def test_d_amplitudes(self):
        np.testing.assert_allclose(KETS["D"], [SQ2, SQ2], atol=1e-15)

    def test_r_amplitudes(self):
        np.testing.assert_allclose(KETS["R"], [SQ2, 1j * SQ2], atol=1e-15)

    def test_all_six_unit_norm(self):
        assert tuple(KETS) == pa.ALL_LABELS
        for label in pa.ALL_LABELS:
            assert np.sum(np.abs(oracles.pure(KETS[label])) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_dalr_balanced_magnitudes(self):
        for label in ("D", "A", "R", "L"):
            np.testing.assert_allclose(np.abs(KETS[label]), [SQ2, SQ2], atol=1e-15)


class TestTypeInvariants:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="unit-norm"):
            oracles.pure(np.array([1.0, 1.0]))

    def test_pure_state_shape_enforced(self):
        with pytest.raises(ValueError):
            oracles.pure(np.array([1.0, 0.0, 0.0]))

    def test_density_matrix_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            oracles.density(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_density_matrix_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            oracles.density(np.array([[0.7, 0.0], [0.0, 0.5]]))

    def test_density_matrix_requires_psd(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            oracles.density(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_unitary_enforced(self):
        with pytest.raises(ValueError, match="unitary"):
            oracles.unitary(np.array([[1.0, 0.0], [0.0, 1.1]]))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 3), (2, 3), (1, 2, 2)])
    def test_channel_unitary_shape_enforced(self, shape):
        entries = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError, match=re.escape(f"must be 2x2, got shape {shape}")):
            oracles.unitary(entries)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("index", [0, 1])
    def test_pure_state_rejects_non_finite(self, index, bad):
        amplitudes = np.array([1.0, 0.0], dtype=complex)
        amplitudes[index] = bad
        with pytest.raises(ValueError, match="unit-norm"):
            oracles.pure(amplitudes)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("index", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_density_matrix_rejects_non_finite(self, index, bad):
        entries = np.eye(2, dtype=complex) / 2.0
        entries[index] = bad
        with pytest.raises(ValueError, match="Hermitian|trace|eigenvalue"):
            oracles.density(entries)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("index", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_channel_unitary_rejects_non_finite(self, index, bad):
        entries = np.eye(2, dtype=complex)
        entries[index] = bad
        with pytest.raises(ValueError, match="unitary"):
            oracles.unitary(entries)

    def test_wave_plate_angles_reduced(self):
        angles = pa.WavePlateAngles(-0.25, math.pi + 0.5, 7.0)
        for t in angles.as_tuple():
            assert 0.0 <= t < math.pi

    @pytest.mark.parametrize("x", [-12.3, -0.1, -1e-20, -0.0, 0.0, 0.5, math.pi - 1e-9, 4.7,
                                   1e8 + 0.3, 1e3, -1e3, 1e8, -1e8, 1e300, -1e300])
    def test_angle_reduction_idempotent_exact(self, x):
        once = pa.reduce_angle(x)
        assert pa.reduce_angle(once) == once
        assert 0.0 <= once < math.pi
        # the residue modulo the float pi, rounded once; a residue that
        # rounds up to pi is 0
        exact = float(Fraction(x) % Fraction(math.pi))
        assert once == (0.0 if exact == math.pi else exact)
        assert math.copysign(1.0, once) == 1.0

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            pa.WavePlateAngles(math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("index,bad", [(0, "0.5"), (1, True), (2, b"1")],
                             ids=["str", "bool", "bytes"])
    def test_angles_must_be_real_numbers(self, index, bad):
        # float() reads a numeric string, a bool and bytes as numbers
        angles = [0.5, 1.0, 1.0]
        angles[index] = bad
        with pytest.raises(pa.ConfigError) as caught:
            pa.WavePlateAngles(*angles)
        assert caught.value.field == f"theta{index + 1}"

    def test_immutable_arrays(self):
        # the oracle's kets are shared by every test: none may change them
        with pytest.raises(ValueError):
            KETS["H"][0] = 5.0

    def test_pure_state_copies_caller_array(self):
        amplitudes = np.array([1.0, 0.0], dtype=complex)
        state = oracles.pure(amplitudes)
        amplitudes[0] = 5.0
        assert state[0] == 1.0

    def test_density_matrix_copies_caller_array(self):
        entries = np.eye(2, dtype=complex) / 2.0
        rho = oracles.density(entries)
        entries[0, 0] = 5.0
        assert rho[0, 0] == 0.5

    def test_channel_unitary_copies_caller_array(self):
        entries = np.eye(2, dtype=complex)
        u = oracles.unitary(entries)
        entries[0, 0] = 5.0
        assert u[0, 0] == 1.0


class TestFidelities:
    def test_pure_identity(self):
        assert oracles.overlap(KETS["H"], KETS["H"]) == pytest.approx(1.0, abs=1e-15)

    def test_pure_orthogonal(self):
        assert oracles.overlap(KETS["H"], KETS["V"]) == pytest.approx(0.0, abs=1e-15)

    def test_pure_h_d_half(self):
        assert oracles.overlap(KETS["H"], KETS["D"]) == pytest.approx(0.5, abs=1e-12)

    def test_pure_symmetric_and_phase_invariant(self, rng):
        for _ in range(50):
            a = haar_state(rng, "H")
            b = haar_state(rng, "D")
            f_ab = oracles.overlap(a, b)
            assert f_ab == pytest.approx(oracles.overlap(b, a), abs=1e-12)
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            assert oracles.overlap(phase * a, b) == pytest.approx(f_ab, abs=1e-12)

    def test_mixed_pure_projector(self):
        rho = oracles.density(oracles.projector(KETS["H"]))
        assert oracles.fidelity(KETS["H"], rho) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_maximally_mixed(self):
        rho = oracles.density(np.eye(2) / 2.0)
        assert oracles.fidelity(KETS["H"], rho) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_depolarized_recovers_fs(self):
        d = KETS["D"]
        assert oracles.fidelity(d, oracles.depolarize(d, 0.95)) == pytest.approx(0.95, abs=1e-12)

    def test_mixed_reduces_to_pure(self, rng):
        for _ in range(20):
            a = haar_state(rng)
            b = haar_state(rng)
            rho = oracles.density(oracles.projector(b))
            assert oracles.fidelity(a, rho) == pytest.approx(oracles.overlap(a, b), abs=1e-12)

    def test_simultaneous_rotation_invariance(self, rng):
        # F(U phi, U rho U+) = F(phi, rho)
        for _ in range(50):
            u = haar_channel(rng)
            phi = haar_state(rng, "D")
            rho = oracles.depolarize(haar_state(rng), rng.uniform(0.5, 1.0))
            rotated_rho = oracles.density(u @ rho @ u.conj().T)
            assert oracles.fidelity(u @ phi, rotated_rho) == pytest.approx(
                oracles.fidelity(phi, rho), abs=1e-12
            )


class TestDepolarize:
    def test_fs_one_is_projector(self):
        h = KETS["H"]
        np.testing.assert_allclose(oracles.depolarize(h, 1.0), oracles.projector(h), atol=1e-15)

    def test_fs_half_is_maximally_mixed(self):
        np.testing.assert_allclose(oracles.depolarize(KETS["H"], 0.5), np.eye(2) / 2, atol=1e-15)

    def test_d_0875_matches_direct_evaluation(self):
        # independent evaluation: 0.75 |D><D| + 0.125 I, assembled by hand
        d_ket = np.array([SQ2, SQ2], dtype=complex)
        expected = 0.75 * np.outer(d_ket, d_ket.conj()) + 0.125 * np.eye(2)
        got = oracles.depolarize(KETS["D"], 0.875)
        np.testing.assert_allclose(got, expected, atol=1e-15)

    @pytest.mark.parametrize("fs", [0.3, 0.49999, 1.0001, -1.0])
    def test_out_of_range_rejected(self, fs):
        with pytest.raises(ValueError, match="signal fidelity"):
            oracles.depolarize(KETS["H"], fs)

    def test_eigenvalues_are_fs_and_complement(self, rng):
        for _ in range(20):
            fs = rng.uniform(0.5, 1.0)
            eigs = np.sort(np.linalg.eigvalsh(oracles.depolarize(haar_state(rng), fs)))
            np.testing.assert_allclose(eigs, [1.0 - fs, fs], atol=1e-12)


def born_row(u: np.ndarray, label: str) -> np.ndarray:
    """The program's forward cell probabilities of input ``label`` through channel ``u``."""
    p = expected_probabilities(stokes_axes(u, pa.Direction.FORWARD), pa.Direction.FORWARD, 1.0)
    return p[pa.BB84_LABELS.index(label)]


class TestWavePlates:
    def test_quarter_at_zero(self):
        np.testing.assert_allclose(oracles.quarter(0.0), np.diag([1.0, 1.0j]), atol=1e-15)

    def test_half_at_zero(self):
        np.testing.assert_allclose(oracles.half(0.0), np.diag([1.0, -1.0]), atol=1e-15)

    def test_half_at_pi_over_8_maps_h_to_d(self):
        # written out: R(t) @ diag(1,-1) @ R(-t) applied to (1, 0)
        t = math.pi / 8
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        written = rot @ np.diag([1.0, -1.0]) @ rot.T @ np.array([1.0, 0.0])
        got = oracles.half(t) @ KETS["H"]
        np.testing.assert_allclose(got, written, atol=1e-12)
        assert oracles.overlap(got, KETS["D"]) == pytest.approx(1.0, abs=1e-12)
        # the program's counting model agrees: every Z and Y outcome at 1/24,
        # D at 1/12 and A never
        np.testing.assert_allclose(born_row(oracles.half(t), "H"),
                                   np.array([1, 1, 2, 0, 1, 1]) / 24.0, rtol=0, atol=1e-15)

    def test_quarter_at_pi_over_4_maps_h_to_l(self):
        got = oracles.quarter(math.pi / 4) @ KETS["H"]
        assert oracles.overlap(got, KETS["L"]) == pytest.approx(1.0, abs=1e-12)
        # so the program's R/L outcome signs follow the oracle's kets
        np.testing.assert_allclose(born_row(oracles.quarter(math.pi / 4), "H"),
                                   np.array([1, 1, 1, 1, 0, 2]) / 24.0, rtol=0, atol=1e-15)

    def test_pi_periodicity(self, rng):
        for _ in range(20):
            t = rng.uniform(-10, 10)
            np.testing.assert_allclose(oracles.quarter(t + math.pi), oracles.quarter(t),
                                       atol=1e-12)
            np.testing.assert_allclose(oracles.half(t + math.pi), oracles.half(t), atol=1e-12)

    def test_retardance(self):
        # eigenvalue ratio between slow and fast axis fixes the retardance
        for build, delta in ((oracles.quarter, math.pi / 2), (oracles.half, math.pi)):
            m = build(0.0)
            ratio = m[1, 1] / m[0, 0]
            assert np.angle(ratio) == pytest.approx(delta, abs=1e-12)

    def test_unitarity_random_angles(self, rng):
        # unitary, and R(t) @ diag(1, e^{i delta}) @ R(-t) as written
        for _ in range(30):
            t = rng.uniform(0, math.pi)
            rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for u, phase in ((oracles.quarter(t), 1j), (oracles.half(t), -1.0)):
                np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
                np.testing.assert_allclose(u, rot @ np.diag([1.0, phase]) @ rot.T, atol=1e-12)

    def test_nonfinite_angle_rejected(self):
        # no plate of the program's stack can be set to a non-finite angle
        with pytest.raises(ValueError, match="finite"):
            pa.WavePlateAngles(0.0, math.inf, 0.0)


def _analytic_stack_fidelities(target: np.ndarray) -> list[float]:
    """Operator fidelity to a target of each of the program's closed-form plate settings."""
    settings = _plate_settings(oracles.stokes_rotation(target).tolist())
    return [operator_fidelity(target, oracles.stack(*t)) for t in settings]


def _grid_refined_stack_fidelity(target: np.ndarray, levels: int = 9, width: float = math.pi):
    """Independent oracle: multiscale grid search over the three plate angles."""
    center = np.array([math.pi / 2, math.pi / 2, math.pi / 2])
    pts = 11
    best_val = -1.0
    for _ in range(levels):
        axes = [np.linspace(c - width / 2, c + width / 2, pts) for c in center]
        g1, g2, g3 = np.meshgrid(*axes, indexing="ij")
        fids = np.empty(g1.shape)
        for i in range(pts):
            for j in range(pts):
                for k in range(pts):
                    v = oracles.stack(g1[i, j, k], g2[i, j, k], g3[i, j, k])
                    fids[i, j, k] = operator_fidelity(target, v)
        flat = int(np.argmax(fids))
        i, j, k = np.unravel_index(flat, fids.shape)
        best_val = float(fids[i, j, k])
        center = np.array([g1[i, j, k], g2[i, j, k], g3[i, j, k]])
        width /= 4.0
    return best_val


class TestCompensationUnitary:
    def test_zero_angles_identity_up_to_phase(self):
        v = oracles.stack(0.0, 0.0, 0.0)
        assert operator_fidelity(np.eye(2), v) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_for_random_angles(self, rng):
        # the oracle's stack is the unitary product of its plates, and its
        # Stokes rotation undoes its adjoint in the program's score, which
        # reads the plates' rotation forward and its transpose reversed
        for _ in range(50):
            angles = pa.WavePlateAngles(*rng.uniform(0, math.pi, 3))
            t1, t2, t3 = angles.as_tuple()
            v = oracles.stack(t1, t2, t3)
            product = oracles.quarter(t3) @ oracles.half(t2) @ oracles.quarter(t1)
            np.testing.assert_allclose(v, product, atol=1e-12)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
            plates = oracles.stokes_rotation(v)
            for direction, rotation in zip(pa.Direction, (plates, plates.T)):
                assert stokes_qber(v.conj().T, rotation.tolist(), direction) < 1e-12
                assert oracles.jones_qber(v.conj().T, angles.as_tuple(), direction) < 1e-12

    def test_surjective_onto_su2(self, rng):
        # 200 Haar targets, each reached by all four closed-form settings
        for _ in range(200):
            target = haar_channel(rng)
            fidelities = _analytic_stack_fidelities(target)
            assert len(fidelities) == 4
            assert min(fidelities) >= 1.0 - 1e-12

    def test_surjectivity_grid_oracle(self, rng):
        # independent multiscale grid search corroborates the closed form
        for _ in range(3):
            target = haar_channel(rng)
            analytic = min(_analytic_stack_fidelities(target))
            grid = _grid_refined_stack_fidelity(target)
            assert analytic >= 1.0 - 1e-12
            assert grid >= 1.0 - 1e-6
            assert analytic >= grid - 1e-12


@pytest.fixture(scope="module")
def overlap_samples():
    # |<H|U|H>|^2 over one million Haar draws, in one batched draw
    return np.abs(pa.haar_random_unitary(np.random.default_rng(777), 1_000_000)[:, 0, 0]) ** 2


class TestHaarSampling:
    def test_every_draw_unitary(self, rng):
        for _ in range(200):
            u = haar_channel(rng)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    # the entries of draws from default_rng([11, k]), k = 0..4, as hex floats
    PINNED = [
        [("-0x1.6984af0beb9ebp-2", "-0x1.00c0ebbb137fbp-4"),
         ("-0x1.46c58c9e35661p-1", "-0x1.5ccc67b576d12p-1"),
         ("0x1.acce719d5bc12p-1", "-0x1.a6358c3719016p-2"),
         ("-0x1.68ebc22bf1c75p-2", "-0x1.0ddd8e2c3deb9p-4")],
        [("-0x1.bd0f4c070d762p-2", "-0x1.dbb65ca25c487p-4"),
         ("-0x1.ba8d031b20b1dp-1", "-0x1.cc368194d56b7p-3"),
         ("0x1.24338ad6efd55p-2", "0x1.b14b151dbcb42p-1"),
         ("-0x1.2c4972d072418p-3", "-0x1.b38584177e2b0p-2")],
        [("-0x1.aa7f1dbd8f3b6p-2", "-0x1.b39bacd739885p-1"),
         ("0x1.cdd5e01b4ef15p-3", "-0x1.d233a3d7469c8p-3"),
         ("0x1.ee6b0d87283b2p-4", "0x1.2ff13abe59642p-2"),
         ("0x1.6c46d69c3b535p-1", "-0x1.4034ac56494ebp-1")],
        [("-0x1.cd32438bd36ffp-2", "0x1.bed8c96ca86d7p-1"),
         ("-0x1.7e1815d98c070p-3", "0x1.a341c1bef7fe3p-6"),
         ("0x1.7d0f23e9fd9f7p-3", "-0x1.dbbc6a213b9b7p-6"),
         ("-0x1.5d26681cdb1e4p-1", "-0x1.69dbe0857cd32p-1")],
        [("-0x1.2aa9515f2e72ap-6", "-0x1.898a18c8f1d37p-2"),
         ("0x1.c9f78d5edffb2p-1", "0x1.d28ef2173de82p-3"),
         ("-0x1.b423fc2f99a72p-1", "0x1.6bfa56a410ac8p-2"),
         ("0x1.3606575facdd3p-5", "0x1.8812421e44c62p-2")],
    ]

    def test_entries_pinned(self):
        # bit for bit: the phase product rounds as NumPy's complex multiply
        # does, and a change of arithmetic there changes the last bits
        for k, expected in enumerate(self.PINNED):
            u = haar_channel(np.random.default_rng([11, k]))
            got = [(z.real.hex(), z.imag.hex()) for z in u.ravel().tolist()]
            assert got == expected

    def test_batch_rows_follow_scalar_formula(self):
        # row k of a batched draw is the oracle's scalar formula on the
        # block's k-th four uniforms
        size = 1000
        uniforms = np.random.default_rng(5).random((size, 4))
        draws = pa.haar_random_unitary(np.random.default_rng(5), size)
        assert draws.shape == (size, 2, 2)
        for k in range(size):
            expected = oracles.haar_unitary(*uniforms[k].tolist())
            assert np.max(np.abs(draws[k] - expected)) <= 4e-16, k

    def test_mean_overlap_is_half(self, overlap_samples):
        assert abs(overlap_samples.mean() - 0.5) < 0.002

    def test_overlap_uniform_on_unit_interval(self, overlap_samples):
        statistic = kstest(overlap_samples, "uniform").statistic
        assert statistic < 0.005


class TestQber:
    def test_perfect(self):
        assert oracles.qber((1, 1, 1, 1)) == 0.0

    def test_half(self):
        assert oracles.qber((0, 0, 1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_arithmetic(self):
        assert oracles.qber((0.99, 0.98, 0.97, 0.96)) == pytest.approx(0.025, abs=1e-12)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="four"):
            oracles.qber((1, 1, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            oracles.qber((1, 1, 1, 1.5))


class TestStokes:
    def test_round_trip(self, rng):
        for _ in range(20):
            rho = oracles.depolarize(haar_state(rng), rng.uniform(0.5, 1.0))
            back = oracles.rho_from_stokes(oracles.stokes(rho))
            np.testing.assert_allclose(back, rho, atol=1e-12)

    def test_canonical_axes(self):
        for label, expected in (
            ("H", [1, 0, 0]), ("V", [-1, 0, 0]),
            ("D", [0, 1, 0]), ("A", [0, -1, 0]),
            ("R", [0, 0, 1]), ("L", [0, 0, -1]),
        ):
            rho = oracles.density(oracles.projector(KETS[label]))
            np.testing.assert_allclose(oracles.stokes(rho), expected, atol=1e-12)
