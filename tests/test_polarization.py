import math

import numpy as np
import pytest
from scipy.stats import kstest

import polalign as pa
from polalign.compensation import plate_angle_candidates

from conftest import operator_fidelity, stokes_rotation

SQ2 = math.sqrt(0.5)


class TestCanonicalStates:
    def test_h_amplitudes(self):
        np.testing.assert_allclose(pa.canonical_state("H").amplitudes, [1, 0], atol=1e-15)

    def test_d_amplitudes(self):
        np.testing.assert_allclose(pa.canonical_state("D").amplitudes, [SQ2, SQ2], atol=1e-15)

    def test_r_amplitudes(self):
        np.testing.assert_allclose(pa.canonical_state("R").amplitudes, [SQ2, 1j * SQ2], atol=1e-15)

    def test_all_six_unit_norm(self):
        for label in pa.ALL_LABELS:
            amp = pa.canonical_state(label).amplitudes
            assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_dalr_balanced_magnitudes(self):
        for label in ("D", "A", "R", "L"):
            amp = pa.canonical_state(label).amplitudes
            np.testing.assert_allclose(np.abs(amp), [SQ2, SQ2], atol=1e-15)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown state label"):
            pa.canonical_state("Q")


class TestTypeInvariants:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="unit-norm"):
            pa.PureState(np.array([1.0, 1.0]))

    def test_pure_state_shape_enforced(self):
        with pytest.raises(ValueError):
            pa.PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_matrix_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            pa.DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_density_matrix_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            pa.DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.5]]))

    def test_density_matrix_requires_psd(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            pa.DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_unitary_enforced(self):
        with pytest.raises(ValueError, match="unitary"):
            pa.ChannelUnitary(np.array([[1.0, 0.0], [0.0, 1.1]]))

    def test_wave_plate_angles_reduced(self):
        angles = pa.WavePlateAngles(-0.25, math.pi + 0.5, 7.0)
        for t in angles.as_tuple():
            assert 0.0 <= t < math.pi

    def test_angle_reduction_idempotent_exact(self):
        for x in (-12.3, -0.1, 0.0, 0.5, math.pi - 1e-9, 4.7, 1e8 + 0.3):
            once = pa.reduce_angle(x)
            assert pa.reduce_angle(once) == once
            assert 0.0 <= once < math.pi

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            pa.WavePlateAngles(math.nan, 0.0, 0.0)

    def test_immutable_arrays(self):
        state = pa.canonical_state("H")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0

    def test_pure_state_copies_caller_array(self):
        amplitudes = np.array([1.0, 0.0], dtype=complex)
        state = pa.PureState(amplitudes)
        amplitudes[0] = 5.0
        assert state.amplitudes[0] == 1.0

    def test_density_matrix_copies_caller_array(self):
        entries = np.eye(2, dtype=complex) / 2.0
        rho = pa.DensityMatrix(entries)
        entries[0, 0] = 5.0
        assert rho.entries[0, 0] == 0.5

    def test_channel_unitary_copies_caller_array(self):
        entries = np.eye(2, dtype=complex)
        u = pa.ChannelUnitary(entries)
        entries[0, 0] = 5.0
        assert u.entries[0, 0] == 1.0


class TestFidelities:
    def test_pure_identity(self):
        h = pa.canonical_state("H")
        assert pa.fidelity_pure(h, h) == pytest.approx(1.0, abs=1e-15)

    def test_pure_orthogonal(self):
        assert pa.fidelity_pure(
            pa.canonical_state("H"), pa.canonical_state("V")
        ) == pytest.approx(0.0, abs=1e-15)

    def test_pure_h_d_half(self):
        assert pa.fidelity_pure(
            pa.canonical_state("H"), pa.canonical_state("D")
        ) == pytest.approx(0.5, abs=1e-12)

    def test_pure_symmetric_and_phase_invariant(self, rng):
        for _ in range(50):
            a = pa.haar_random_unitary(rng).apply(pa.canonical_state("H"))
            b = pa.haar_random_unitary(rng).apply(pa.canonical_state("D"))
            f_ab = pa.fidelity_pure(a, b)
            f_ba = pa.fidelity_pure(b, a)
            assert f_ab == pytest.approx(f_ba, abs=1e-12)
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            a_rot = pa.PureState(phase * a.amplitudes)
            assert pa.fidelity_pure(a_rot, b) == pytest.approx(f_ab, abs=1e-12)

    def test_mixed_pure_projector(self):
        h = pa.canonical_state("H")
        rho = pa.DensityMatrix(h.projector())
        assert pa.fidelity_mixed(h, rho) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_maximally_mixed(self):
        h = pa.canonical_state("H")
        rho = pa.DensityMatrix(np.eye(2) / 2.0)
        assert pa.fidelity_mixed(h, rho) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_depolarized_recovers_fs(self):
        d = pa.canonical_state("D")
        assert pa.fidelity_mixed(d, pa.depolarize(d, 0.95)) == pytest.approx(0.95, abs=1e-12)

    def test_mixed_reduces_to_pure(self, rng):
        for _ in range(20):
            a = pa.haar_random_unitary(rng).apply(pa.canonical_state("H"))
            b = pa.haar_random_unitary(rng).apply(pa.canonical_state("H"))
            rho = pa.DensityMatrix(b.projector())
            assert pa.fidelity_mixed(a, rho) == pytest.approx(
                pa.fidelity_pure(a, b), abs=1e-12
            )

    def test_simultaneous_rotation_invariance(self, rng):
        # F(U phi, U rho U+) = F(phi, rho)
        for _ in range(50):
            u = pa.haar_random_unitary(rng)
            phi = pa.haar_random_unitary(rng).apply(pa.canonical_state("D"))
            rho = pa.depolarize(
                pa.haar_random_unitary(rng).apply(pa.canonical_state("H")),
                rng.uniform(0.5, 1.0),
            )
            rotated_phi = u.apply(phi)
            rotated_rho = pa.DensityMatrix(u.entries @ rho.entries @ u.entries.conj().T)
            assert pa.fidelity_mixed(rotated_phi, rotated_rho) == pytest.approx(
                pa.fidelity_mixed(phi, rho), abs=1e-12
            )


class TestDepolarize:
    def test_fs_one_is_projector(self):
        h = pa.canonical_state("H")
        np.testing.assert_allclose(pa.depolarize(h, 1.0).entries, h.projector(), atol=1e-15)

    def test_fs_half_is_maximally_mixed(self):
        h = pa.canonical_state("H")
        np.testing.assert_allclose(pa.depolarize(h, 0.5).entries, np.eye(2) / 2, atol=1e-15)

    def test_d_0875_matches_direct_evaluation(self):
        # independent evaluation: 0.75 |D><D| + 0.125 I, assembled by hand
        d_ket = np.array([SQ2, SQ2], dtype=complex)
        expected = 0.75 * np.outer(d_ket, d_ket.conj()) + 0.125 * np.eye(2)
        got = pa.depolarize(pa.canonical_state("D"), 0.875).entries
        np.testing.assert_allclose(got, expected, atol=1e-15)

    @pytest.mark.parametrize("fs", [0.3, 0.49999, 1.0001, -1.0])
    def test_out_of_range_rejected(self, fs):
        with pytest.raises(ValueError, match="signal fidelity"):
            pa.depolarize(pa.canonical_state("H"), fs)

    def test_eigenvalues_are_fs_and_complement(self, rng):
        for _ in range(20):
            fs = rng.uniform(0.5, 1.0)
            psi = pa.haar_random_unitary(rng).apply(pa.canonical_state("H"))
            eigs = np.sort(np.linalg.eigvalsh(pa.depolarize(psi, fs).entries))
            np.testing.assert_allclose(eigs, [1.0 - fs, fs], atol=1e-12)


class TestWavePlates:
    def test_quarter_at_zero(self):
        np.testing.assert_allclose(
            pa.quarter_wave(0.0).entries, np.diag([1.0, 1.0j]), atol=1e-15
        )

    def test_half_at_zero(self):
        np.testing.assert_allclose(
            pa.half_wave(0.0).entries, np.diag([1.0, -1.0]), atol=1e-15
        )

    def test_half_at_pi_over_8_maps_h_to_d(self):
        # brute-force oracle: R(t) @ diag(1,-1) @ R(-t) applied to (1, 0)
        t = math.pi / 8
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        oracle = rot @ np.diag([1.0, -1.0]) @ rot.T @ np.array([1.0, 0.0])
        got = pa.half_wave(t).apply(pa.canonical_state("H"))
        np.testing.assert_allclose(got.amplitudes, oracle, atol=1e-12)
        assert pa.fidelity_pure(got, pa.canonical_state("D")) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_at_pi_over_4_maps_h_to_l(self):
        got = pa.quarter_wave(math.pi / 4).apply(pa.canonical_state("H"))
        assert pa.fidelity_pure(got, pa.canonical_state("L")) == pytest.approx(1.0, abs=1e-12)

    def test_pi_periodicity(self, rng):
        for _ in range(20):
            t = rng.uniform(-10, 10)
            np.testing.assert_allclose(
                pa.quarter_wave(t + math.pi).entries, pa.quarter_wave(t).entries, atol=1e-12
            )
            np.testing.assert_allclose(
                pa.half_wave(t + math.pi).entries, pa.half_wave(t).entries, atol=1e-12
            )

    def test_retardance(self):
        # eigenvalue ratio between slow and fast axis fixes the retardance
        for build, delta in ((pa.quarter_wave, math.pi / 2), (pa.half_wave, math.pi)):
            m = build(0.0).entries
            ratio = m[1, 1] / m[0, 0]
            assert np.angle(ratio) == pytest.approx(delta, abs=1e-12)

    def test_unitarity_random_angles(self, rng):
        for _ in range(30):
            t = rng.uniform(0, math.pi)
            for u in (pa.quarter_wave(t), pa.half_wave(t)):
                np.testing.assert_allclose(
                    u.entries.conj().T @ u.entries, np.eye(2), atol=1e-12
                )

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pa.quarter_wave(math.inf)


def _analytic_stack_fidelities(target: np.ndarray) -> list[float]:
    """Operator fidelity to a target of each closed-form plate setting."""
    rotation = stokes_rotation(target)
    return [
        operator_fidelity(target, pa.compensation_unitary(angles).entries)
        for angles in plate_angle_candidates(rotation)
    ]


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
                    v = pa.compensation_unitary(
                        pa.WavePlateAngles(g1[i, j, k], g2[i, j, k], g3[i, j, k])
                    )
                    fids[i, j, k] = operator_fidelity(target, v.entries)
        flat = int(np.argmax(fids))
        i, j, k = np.unravel_index(flat, fids.shape)
        best_val = float(fids[i, j, k])
        center = np.array([g1[i, j, k], g2[i, j, k], g3[i, j, k]])
        width /= 4.0
    return best_val


class TestCompensationUnitary:
    def test_zero_angles_identity_up_to_phase(self):
        v = pa.compensation_unitary(pa.WavePlateAngles(0, 0, 0)).entries
        assert operator_fidelity(np.eye(2), v) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_for_random_angles(self, rng):
        for _ in range(50):
            angles = pa.WavePlateAngles(*rng.uniform(0, math.pi, 3))
            v = pa.compensation_unitary(angles).entries
            np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_surjective_onto_su2(self, rng):
        # 200 Haar targets, each reached by all four closed-form settings
        for _ in range(200):
            target = pa.haar_random_unitary(rng).entries
            fidelities = _analytic_stack_fidelities(target)
            assert len(fidelities) == 4
            assert min(fidelities) >= 1.0 - 1e-12

    def test_surjectivity_grid_oracle(self, rng):
        # independent multiscale grid search corroborates the closed form
        for _ in range(3):
            target = pa.haar_random_unitary(rng).entries
            analytic = min(_analytic_stack_fidelities(target))
            grid = _grid_refined_stack_fidelity(target)
            assert analytic >= 1.0 - 1e-12
            assert grid >= 1.0 - 1e-6
            assert analytic >= grid - 1e-12


@pytest.fixture(scope="module")
def overlap_samples():
    # |<H|U|H>|^2 over one million Haar draws
    rng = np.random.default_rng(777)
    return np.array(
        [abs(pa.haar_random_unitary(rng).entries[0, 0]) ** 2 for _ in range(1_000_000)]
    )


class TestHaarSampling:
    def test_every_draw_unitary(self, rng):
        for _ in range(200):
            u = pa.haar_random_unitary(rng).entries
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
            u = pa.haar_random_unitary(np.random.default_rng([11, k]))
            got = [(z.real.hex(), z.imag.hex()) for z in u.entries.ravel().tolist()]
            assert got == expected

    def test_mean_overlap_is_half(self, overlap_samples):
        assert abs(overlap_samples.mean() - 0.5) < 0.002

    def test_overlap_uniform_on_unit_interval(self, overlap_samples):
        statistic = kstest(overlap_samples, "uniform").statistic
        assert statistic < 0.005


class TestQber:
    def test_perfect(self):
        assert pa.qber_from_fidelities((1, 1, 1, 1)) == 0.0

    def test_half(self):
        assert pa.qber_from_fidelities((0, 0, 1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_arithmetic(self):
        assert pa.qber_from_fidelities((0.99, 0.98, 0.97, 0.96)) == pytest.approx(
            0.025, abs=1e-12
        )

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="four"):
            pa.qber_from_fidelities((1, 1, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            pa.qber_from_fidelities((1, 1, 1, 1.5))


class TestStokes:
    def test_round_trip(self, rng):
        for _ in range(20):
            fs = rng.uniform(0.5, 1.0)
            rho = pa.depolarize(pa.haar_random_unitary(rng).apply(pa.canonical_state("H")), fs)
            s = pa.stokes_vector(rho)
            back = pa.density_from_stokes(*s)
            np.testing.assert_allclose(back.entries, rho.entries, atol=1e-12)

    def test_canonical_axes(self):
        for label, expected in (
            ("H", [1, 0, 0]), ("V", [-1, 0, 0]),
            ("D", [0, 1, 0]), ("A", [0, -1, 0]),
            ("R", [0, 0, 1]), ("L", [0, 0, -1]),
        ):
            rho = pa.DensityMatrix(pa.canonical_state(label).projector())
            np.testing.assert_allclose(pa.stokes_vector(rho), expected, atol=1e-12)
