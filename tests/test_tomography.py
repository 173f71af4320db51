import math

import numpy as np
import pytest

import polalign as pa
from polalign.errors import InsufficientCountsError, MLEConvergenceError
from polalign.montecarlo import expected_probabilities

from conftest import exact_count_matrix, trace_distance

D = pa.Direction


def _outcome_probabilities(rho: np.ndarray, basis_weights=(1 / 3, 1 / 3, 1 / 3)) -> np.ndarray:
    """Oracle: Born probabilities of the six outcomes for a given state."""
    p = []
    for label, w in zip(pa.ALL_LABELS, np.repeat(basis_weights, 2)):
        ket = pa.CANONICAL_KETS[label]
        p.append(w * float(np.real(ket.conj() @ rho @ ket)))
    return np.array(p)


class TestCountMatrix:
    def test_forward_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            pa.CountMatrix(D.FORWARD, np.zeros((6, 4)))

    def test_reversed_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            pa.CountMatrix(D.REVERSED, np.zeros((4, 6)))

    def test_negative_counts_rejected(self):
        counts = np.zeros((4, 6))
        counts[0, 0] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            pa.CountMatrix(D.FORWARD, counts)

    def test_total(self):
        cm = pa.CountMatrix(D.FORWARD, np.full((4, 6), 2.0))
        assert cm.total == 48.0


class TestLinearInversion:
    def test_pure_h(self):
        rho = pa.linear_inversion([100, 0, 50, 50, 50, 50])
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_maximally_mixed(self):
        rho = pa.linear_inversion([50, 50, 50, 50, 50, 50])
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_two_axis_state(self):
        rho = pa.linear_inversion([75, 25, 75, 25, 50, 50])
        expected = 0.5 * (np.eye(2) + 0.5 * pa.polarization.SIGMA_X + 0.5 * pa.polarization.SIGMA_Z)
        np.testing.assert_allclose(rho, expected, atol=1e-12)
        # cross-check: recompute the outcome probabilities the result implies
        probs = _outcome_probabilities(rho, basis_weights=(1, 1, 1))
        np.testing.assert_allclose(probs, [0.75, 0.25, 0.75, 0.25, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize(
        "counts,basis",
        [
            ([0, 0, 50, 50, 50, 50], "Z"),
            ([50, 50, 0, 0, 50, 50], "X"),
            ([50, 50, 50, 50, 0, 0], "Y"),
        ],
    )
    def test_empty_pair_names_basis(self, counts, basis):
        with pytest.raises(InsufficientCountsError) as err:
            pa.linear_inversion(counts)
        assert err.value.basis == basis

    def test_can_be_nonphysical(self):
        # noisy counts can push the Bloch vector outside the ball
        rho = pa.linear_inversion([100, 0, 100, 0, 100, 0])
        assert np.linalg.eigvalsh(rho).min() < -1e-3


class TestMLE:
    def test_exact_diagonal_state(self):
        rho = pa.mle_reconstruct([500, 500, 1000, 0, 500, 500])
        target = pa.canonical_state("D").projector()
        assert trace_distance(rho.entries, target) < 1e-6

    def test_uniform_counts_give_maximally_mixed(self):
        rho = pa.mle_reconstruct([50, 50, 50, 50, 50, 50])
        assert trace_distance(rho.entries, np.eye(2) / 2) < 1e-6

    def test_agrees_with_physical_linear_inversion(self, rng):
        # when the direct inversion is already physical the MLE must match it
        checked = 0
        for _ in range(50):
            fs = rng.uniform(0.6, 0.85)
            rho_true = pa.depolarize(
                pa.haar_random_unitary(rng).apply(pa.canonical_state("H")), fs
            )
            p = _outcome_probabilities(rho_true.entries)
            counts = rng.multinomial(10_000, p)
            li = pa.linear_inversion(counts)
            if np.linalg.eigvalsh(li).min() < 0:
                continue
            checked += 1
            mle = pa.mle_reconstruct(counts)
            assert trace_distance(mle.entries, li) < 5e-3
        assert checked >= 40

    def test_output_always_physical(self, rng):
        # even for wildly nonphysical linear inversions
        for _ in range(50):
            counts = rng.integers(0, 40, size=6) + np.array([30, 0, 30, 0, 30, 0])
            rho = pa.mle_reconstruct(counts)
            eigs = np.linalg.eigvalsh(rho.entries)
            assert eigs.min() >= -1e-12
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_likelihood_monotone(self, rng):
        for _ in range(50):
            counts = rng.integers(0, 60, size=6)
            if counts.sum() < 6:
                continue
            if (counts[0] + counts[1] == 0) or (counts[2] + counts[3] == 0) or (
                counts[4] + counts[5] == 0
            ):
                continue
            _, diag = pa.mle_reconstruct(counts, with_diagnostics=True)
            trace = np.array(diag.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-12)

    def test_total_below_six_rejected(self):
        with pytest.raises(InsufficientCountsError, match="minimum"):
            pa.mle_reconstruct([1, 0, 1, 0, 1, 1])

    def test_empty_pair_raises_unless_allowed(self):
        counts = [40, 20, 30, 30, 0, 0]
        with pytest.raises(InsufficientCountsError) as err:
            pa.mle_reconstruct(counts)
        assert err.value.basis == "Y"
        rho = pa.mle_reconstruct(counts, allow_empty_basis=True)
        # the unobserved axis stays uncommitted
        assert pa.stokes_vector(rho)[2] == pytest.approx(0.0, abs=1e-9)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="strictly positive"):
            pa.mle_reconstruct([10] * 6, (0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="sum to 1"):
            pa.mle_reconstruct([10] * 6, (0.5, 0.4, 0.2))
        with pytest.raises(ValueError, match="three"):
            pa.mle_reconstruct([10] * 6, (0.5, 0.5))

    def test_dilution_validation(self):
        with pytest.raises(ValueError, match="dilution"):
            pa.mle_reconstruct([10] * 6, dilution=0.0)

    def test_nonuniform_weights_recover_state(self, rng):
        weights = (0.5, 0.3, 0.2)
        rho_true = pa.depolarize(pa.haar_random_unitary(rng).apply(pa.canonical_state("D")), 0.9)
        p = _outcome_probabilities(rho_true.entries, weights)
        counts = rng.multinomial(200_000, p)
        rho = pa.mle_reconstruct(counts, weights)
        assert trace_distance(rho.entries, rho_true.entries) < 0.01

    def test_convergence_error_carries_best_iterate(self):
        # a boundary optimum needs many fixed-point steps to reach
        counts = [100, 0, 100, 0, 100, 0]
        with pytest.raises(MLEConvergenceError) as err:
            pa.mle_reconstruct(counts, max_iterations=2)
        assert isinstance(err.value.best, pa.DensityMatrix)
        assert math.isfinite(err.value.likelihood_delta)

    def test_consistency_scaling(self, rng):
        # median estimation error shrinks like N^(-1/2)
        rho_true = pa.depolarize(pa.haar_random_unitary(rng).apply(pa.canonical_state("D")), 0.9)
        p = _outcome_probabilities(rho_true.entries)
        n_values = [100, 1000, 10_000]
        medians = []
        for n in n_values:
            distances = []
            for _ in range(500):
                counts = rng.multinomial(n, p)
                try:
                    est = pa.mle_reconstruct(counts)
                except InsufficientCountsError:
                    continue
                distances.append(trace_distance(est.entries, rho_true.entries))
            medians.append(np.median(distances))
        slope = np.polyfit(np.log(n_values), np.log(medians), 1)[0]
        assert -0.6 <= slope <= -0.4


class TestReconstructForward:
    def test_identity_channel(self):
        cm = exact_count_matrix(pa.ChannelUnitary(np.eye(2)), D.FORWARD)
        recon = pa.reconstruct_forward(cm)
        for label, state in zip(pa.BB84_LABELS, recon.states):
            target = pa.canonical_state(label).projector()
            assert trace_distance(state.entries, target) < 1e-6

    def test_swap_channel(self):
        # half-wave at 45 degrees swaps H and V; compare against the
        # convention matrix applied to each input directly
        u = pa.half_wave(math.pi / 4)
        cm = exact_count_matrix(u, D.FORWARD)
        recon = pa.reconstruct_forward(cm)
        for label, state in zip(pa.BB84_LABELS, recon.states):
            sent = pa.canonical_state(label).amplitudes
            received = u.entries @ sent
            target = np.outer(received, received.conj())
            assert trace_distance(state.entries, target) < 1e-6
        # explicitly: H lands on V, D stays D up to phase
        assert pa.fidelity_mixed(pa.canonical_state("V"), recon.states[0]) > 1 - 1e-6
        assert pa.fidelity_mixed(pa.canonical_state("D"), recon.states[2]) > 1 - 1e-6

    def test_random_channels_with_depolarization(self, rng):
        for _ in range(10):
            u = pa.haar_random_unitary(rng)
            fs = rng.uniform(0.7, 1.0)
            cm = exact_count_matrix(u, D.FORWARD, signal_fidelity=fs)
            recon = pa.reconstruct_forward(cm)
            for label, state in zip(pa.BB84_LABELS, recon.states):
                expected = pa.depolarize(u.apply(pa.canonical_state(label)), fs)
                assert trace_distance(state.entries, expected.entries) < 1e-6

    def test_empty_circular_columns(self):
        counts = np.full((4, 6), 100.0)
        counts[:, 4] = 0.0
        counts[:, 5] = 0.0
        with pytest.raises(InsufficientCountsError) as err:
            pa.reconstruct_forward(pa.CountMatrix(D.FORWARD, counts))
        assert err.value.basis == "Y"
        assert "input row H" in str(err.value)

    def test_wrong_direction_rejected(self):
        cm = pa.CountMatrix(D.REVERSED, np.full((6, 4), 10.0))
        with pytest.raises(ValueError, match="forward"):
            pa.reconstruct_forward(cm)

    def test_background_subtracted_tolerates_clipped_basis(self):
        counts = np.full((4, 6), 100.0)
        counts[1, 4] = 0.0
        counts[1, 5] = 0.0
        cm = pa.CountMatrix(D.FORWARD, counts, background_subtracted=True)
        recon = pa.reconstruct_forward(cm)
        assert len(recon.states) == 4
        # the strict path still refuses
        with pytest.raises(InsufficientCountsError):
            pa.reconstruct_forward(pa.CountMatrix(D.FORWARD, counts))


class TestReconstructReversed:
    def test_identity_channel(self):
        cm = exact_count_matrix(pa.ChannelUnitary(np.eye(2)), D.REVERSED)
        recon = pa.reconstruct_reversed(cm)
        for label, state in zip(pa.BB84_LABELS, recon.states):
            target = pa.canonical_state(label).projector()
            assert trace_distance(state.entries, target) < 1e-6

    def test_columns_give_back_propagated_outcomes(self, rng):
        # the state reconstructed for outcome m is U+|m><m|U, which rests on
        # |<m|U psi>|^2 = |<U+ m|psi>|^2; check both over Haar draws
        for _ in range(100):
            u = pa.haar_random_unitary(rng)
            psi = pa.haar_random_unitary(rng).apply(pa.canonical_state("H"))
            phi = pa.canonical_state("D")
            lhs = abs(np.vdot(phi.amplitudes, u.entries @ psi.amplitudes)) ** 2
            rhs = abs(np.vdot(u.entries.conj().T @ phi.amplitudes, psi.amplitudes)) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)

        for _ in range(20):
            u = pa.haar_random_unitary(rng)
            cm = exact_count_matrix(u, D.REVERSED)
            recon = pa.reconstruct_reversed(cm)
            for label, state in zip(pa.BB84_LABELS, recon.states):
                phi = pa.canonical_state(label).amplitudes
                back = u.entries.conj().T @ phi
                target = np.outer(back, back.conj())
                assert trace_distance(state.entries, target) < 1e-6

    def test_zero_column_names_outcome(self):
        counts = np.full((6, 4), 50.0)
        counts[:, 2] = 0.0
        with pytest.raises(InsufficientCountsError) as err:
            pa.reconstruct_reversed(pa.CountMatrix(D.REVERSED, counts))
        assert "outcome column D" in str(err.value)

    def test_wrong_direction_rejected(self):
        cm = pa.CountMatrix(D.FORWARD, np.full((4, 6), 10.0))
        with pytest.raises(ValueError, match="reversed"):
            pa.reconstruct_reversed(cm)


class TestForwardReversedDuality:
    def test_noiseless_duality(self, rng):
        # the same channel characterized in either orientation compensates
        # to negligible residual error
        for _ in range(20):
            u = pa.haar_random_unitary(rng)
            fwd = pa.reconstruct_forward(exact_count_matrix(u, D.FORWARD))
            rev = pa.reconstruct_reversed(exact_count_matrix(u, D.REVERSED))
            res_f = pa.optimize(fwd)
            res_r = pa.optimize(rev)
            assert pa.residual_qber(u, res_f.angles) < 1e-6
            assert pa.residual_qber(u, res_r.angles) < 1e-6
