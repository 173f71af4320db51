import math

import numpy as np
import pytest
from scipy.optimize import minimize

import polalign as pa
from polalign.errors import InsufficientCountsError
from polalign.montecarlo import expected_probabilities
from polalign.tomography import _axis_roots

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

    @staticmethod
    def one_bad_cell(bad):
        """Counts of either shape with ``bad`` in the first, a middle or the last cell."""
        for direction in D:
            shape = pa.tomography.COUNT_SHAPE[direction]
            for index in ((0, 0), (shape[0] // 2, shape[1] // 2), (shape[0] - 1, shape[1] - 1)):
                counts = np.zeros(shape)
                counts[index] = bad
                yield direction, counts

    def test_negative_counts_rejected(self):
        for direction, counts in self.one_bad_cell(-1.0):
            with pytest.raises(ValueError, match="nonnegative"):
                pa.CountMatrix(direction, counts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, bad):
        for direction, counts in self.one_bad_cell(bad):
            with pytest.raises(ValueError, match="counts must be finite and nonnegative"):
                pa.CountMatrix(direction, counts)

    def test_large_finite_counts_accepted(self):
        # the check is elementwise: counts whose sum overflows are still finite
        counts = np.full((4, 6), 1e308)
        assert pa.CountMatrix(D.FORWARD, counts).counts[3, 5] == 1e308

    def test_total(self):
        cm = pa.CountMatrix(D.FORWARD, np.full((4, 6), 2.0))
        assert cm.total == 48.0

    def test_caller_array_stays_writable(self):
        m = np.ones((4, 6))
        cm = pa.CountMatrix(D.FORWARD, m)
        m[0, 0] = 5.0
        assert cm.counts[0, 0] == 1.0
        assert not cm.counts.flags.writeable


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("estimator", [pa.linear_inversion, pa.mle_reconstruct])
    def test_non_finite_or_negative_rejected(self, estimator, bad):
        with pytest.raises(ValueError, match="counts must be finite and nonnegative"):
            estimator([bad, 1, 1, 1, 1, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("form", [list, tuple, np.array])
    @pytest.mark.parametrize("estimator", [pa.linear_inversion, pa.mle_reconstruct])
    def test_every_form_checked(self, estimator, form, bad):
        # a list of six floats is checked as it stands, other forms through an array
        with pytest.raises(ValueError, match="counts must be finite and nonnegative"):
            estimator(form([1.0, 1.0, 1.0, 1.0, 1.0, bad]))

    @pytest.mark.parametrize("counts", [[1.0] * 5, [1.0] * 7, [[1.0] * 6], [[1.0] * 3] * 2])
    @pytest.mark.parametrize("estimator", [pa.linear_inversion, pa.mle_reconstruct])
    def test_other_shapes_rejected(self, estimator, counts):
        with pytest.raises(ValueError, match="expected six outcome totals"):
            estimator(counts)


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
            np.testing.assert_array_equal(mle.entries, li)
        assert checked >= 40

    def test_output_always_physical(self, rng):
        # even for wildly nonphysical linear inversions
        for _ in range(50):
            counts = rng.integers(0, 40, size=6) + np.array([30, 0, 30, 0, 30, 0])
            rho = pa.mle_reconstruct(counts)
            eigs = np.linalg.eigvalsh(rho.entries)
            assert eigs.min() >= -1e-12
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_boundary_optimum_beats_slsqp(self, rng):
        # oracle: a generic constrained optimizer on the Bloch ball, best of
        # several starts, never finds a higher likelihood than the closed form
        def loglik(n, s):
            total = 0.0
            for k in range(3):
                for count, p in ((n[2 * k], 1.0 + s[k]), (n[2 * k + 1], 1.0 - s[k])):
                    if count > 0:
                        total += count * math.log(max(p, 1e-300) / 2.0)
            return total

        ball = {"type": "ineq", "fun": lambda s: 1.0 - s @ s, "jac": lambda s: -2.0 * s}
        rows = 0
        while rows < 200:
            pure = pa.haar_random_unitary(rng).apply(pa.canonical_state("H"))
            n = rng.multinomial(int(rng.choice([10, 30, 100, 400])),
                                _outcome_probabilities(pure.projector())).astype(float)
            allow_empty = rows % 4 == 0
            if allow_empty:
                n[2 * rng.integers(3) + np.arange(2)] = 0.0
            pairs = n.reshape(3, 2).sum(axis=1)
            if n.sum() < 6 or (not allow_empty and np.any(pairs == 0)):
                continue
            s_li = np.divide(n[0::2] - n[1::2], pairs, out=np.zeros(3), where=pairs > 0)
            if s_li @ s_li <= 1.0:
                continue
            rows += 1
            s = pa.stokes_vector(pa.mle_reconstruct(n, allow_empty_basis=allow_empty))
            assert abs(np.linalg.norm(s) - 1.0) < 1e-12
            assert np.all(s[pairs == 0] == 0.0)
            best = -math.inf
            for start in rng.normal(size=(4, 3)):
                start *= 0.9 * rng.random() / np.linalg.norm(start)
                res = minimize(lambda x: -loglik(n, x), start, method="SLSQP",
                               bounds=[(-1.0, 1.0)] * 3, constraints=[ball])
                # the reference must be feasible: pull it back into the ball
                best = max(best, loglik(n, res.x / max(1.0, np.linalg.norm(res.x))))
            assert loglik(n, s) >= best - 1e-9

    def test_faint_axes_beside_a_pinned_one(self):
        # X has only A counts, so s_X stays at -1 until lam = 150; the other
        # axes add under 1e-16 to |s|^2 there, so the root sits at that kink
        # and those axes take their values at lam = 150
        n = [1e-9, 1e-6, 0.0, 300.0, 1e-12, 0.0]
        s = pa.stokes_vector(pa.mle_reconstruct(n))
        expected = [_axis_root(1e-9, 1e-6, 150.0)[0], -1.0, _axis_root(1e-12, 0.0, 150.0)[0]]
        np.testing.assert_allclose(s, expected, rtol=0, atol=1e-13)

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

    def test_nonuniform_weights_recover_state(self, rng):
        weights = (0.5, 0.3, 0.2)
        rho_true = pa.depolarize(pa.haar_random_unitary(rng).apply(pa.canonical_state("D")), 0.9)
        p = _outcome_probabilities(rho_true.entries, weights)
        counts = rng.multinomial(200_000, p)
        rho = pa.mle_reconstruct(counts)
        assert trace_distance(rho.entries, rho_true.entries) < 0.01

    def test_three_axis_pure_state(self):
        # every axis all "+": by symmetry the optimum is the pure state
        # along (1, 1, 1)/sqrt(3), while the linear inversion has |s| = sqrt(3)
        rho = pa.mle_reconstruct([100, 0, 100, 0, 100, 0])
        np.testing.assert_allclose(pa.stokes_vector(rho), np.ones(3) / math.sqrt(3), atol=1e-12)

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


#: (n+, n-) outcome pairs of one basis: integer counts, background-subtracted
#: fractions, lopsided pairs and an even split
AXIS_PAIRS = [(3.0, 1.0), (1.0, 3.0), (7.0, 7.0), (399.0, 1.0), (1.0, 399.0), (40.0, 23.0),
              (0.25, 16.75), (16.6667, 0.3333), (1600.0, 2.0), (5.5, 0.5)]


def _stationarity_residual(n_plus, n_minus, lam, s):
    return n_plus / (1.0 + s) - n_minus / (1.0 - s) - lam * s


def _axis_root(n_plus, n_minus, lam):
    """(s, ds/dlam) of one axis from the three-axis pass, the same at each of its positions."""
    results = set()
    for k in range(3):
        pairs = [(5.0, 2.0), (0.0, 9.0), (4.0, 4.0)]
        pairs[k] = (n_plus, n_minus)
        s, ds = _axis_roots(pairs, lam)
        results.add((s[k], ds[k]))
    assert len(results) == 1
    return results.pop()


class TestAxisRoot:
    LAM_FRACTIONS = np.logspace(-12, 4, 161)

    def test_root_inside_interval_and_stationary(self):
        for n_plus, n_minus in AXIS_PAIRS:
            n = n_plus + n_minus
            for lam in n * self.LAM_FRACTIONS:
                s, _ds = _axis_root(n_plus, n_minus, lam)
                assert -1.0 < s < 1.0
                assert abs(_stationarity_residual(n_plus, n_minus, lam, s)) <= 1e-12 * (n + lam)

    def test_tends_to_linear_inversion(self):
        # |ds/dlam| <= |s|/n, so s(lam) stays within lam/n of d/n
        for n_plus, n_minus in AXIS_PAIRS:
            n, d = n_plus + n_minus, n_plus - n_minus
            assert _axis_root(n_plus, n_minus, 0.0)[0] == pytest.approx(d / n, abs=1e-15)
            for fraction in (1e-12, 1e-9, 1e-6, 1e-3):
                s, _ds = _axis_root(n_plus, n_minus, fraction * n)
                assert abs(s - d / n) <= fraction + 1e-15

    def test_derivative_matches_finite_difference(self):
        for n_plus, n_minus in AXIS_PAIRS:
            n = n_plus + n_minus
            for lam in n * np.logspace(-3, 3, 13):
                _s, ds = _axis_root(n_plus, n_minus, lam)
                h = 1e-6 * lam
                diff = (_axis_root(n_plus, n_minus, lam + h)[0]
                        - _axis_root(n_plus, n_minus, lam - h)[0]) / (2.0 * h)
                assert ds == pytest.approx(diff, rel=1e-5, abs=1e-12 / n)

    def test_empty_outcome_exact_above_clamp(self):
        # with n- = 0 the cubic is (s - 1)(lam s^2 + lam s - n+), so above
        # lam = n+/2 the component is the quadratic's root in (0, 1), which
        # meets the spurious root 1 at the clamp itself
        for n_plus in (1.0, 3.0, 37.0, 400.0, 1e4):
            assert _axis_root(n_plus, 0.0, n_plus / 2.0) == (1.0, 0.0)
            assert _axis_root(0.0, n_plus, n_plus / 2.0) == (-1.0, 0.0)
            for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 100.0):
                lam = n_plus / 2.0 * (1.0 + eps)
                q = n_plus / lam
                exact = 2.0 * q / (1.0 + math.sqrt(1.0 + 4.0 * q))
                assert abs(_axis_root(n_plus, 0.0, lam)[0] - exact) <= 5e-16
                assert abs(_axis_root(0.0, n_plus, lam)[0] + exact) <= 5e-16

    def test_empty_pair_held_at_zero(self):
        for lam in (0.0, 1e-9, 1.0, 1e6):
            s, ds = _axis_roots([(3.0, 1.0), (0.0, 0.0), (0.0, 5.0)], lam)
            assert (s[1], ds[1]) == (0.0, 0.0)


class TestReconstructForward:
    def test_identity_channel(self):
        cm = exact_count_matrix(pa.ChannelUnitary(np.eye(2)), D.FORWARD)
        recon = pa.reconstruct_forward(cm)
        for label, s in zip(pa.BB84_LABELS, recon.stokes):
            target = pa.canonical_state(label).projector()
            assert trace_distance(pa.density_from_stokes(*s).entries, target) < 1e-6

    def test_swap_channel(self):
        # half-wave at 45 degrees swaps H and V; compare against the
        # convention matrix applied to each input directly
        u = pa.half_wave(math.pi / 4)
        cm = exact_count_matrix(u, D.FORWARD)
        recon = pa.reconstruct_forward(cm)
        states = [pa.density_from_stokes(*s) for s in recon.stokes]
        for label, state in zip(pa.BB84_LABELS, states):
            sent = pa.canonical_state(label).amplitudes
            received = u.entries @ sent
            target = np.outer(received, received.conj())
            assert trace_distance(state.entries, target) < 1e-6
        # explicitly: H lands on V, D stays D up to phase
        assert pa.fidelity_mixed(pa.canonical_state("V"), states[0]) > 1 - 1e-6
        assert pa.fidelity_mixed(pa.canonical_state("D"), states[2]) > 1 - 1e-6

    def test_random_channels_with_depolarization(self, rng):
        for _ in range(10):
            u = pa.haar_random_unitary(rng)
            fs = rng.uniform(0.7, 1.0)
            cm = exact_count_matrix(u, D.FORWARD, signal_fidelity=fs)
            recon = pa.reconstruct_forward(cm)
            for label, s in zip(pa.BB84_LABELS, recon.stokes):
                expected = pa.depolarize(u.apply(pa.canonical_state(label)), fs)
                assert trace_distance(pa.density_from_stokes(*s).entries, expected.entries) < 1e-6

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
        assert recon.stokes.shape == (4, 3)
        # the strict path still refuses
        with pytest.raises(InsufficientCountsError):
            pa.reconstruct_forward(pa.CountMatrix(D.FORWARD, counts))


class TestReconstructReversed:
    def test_identity_channel(self):
        cm = exact_count_matrix(pa.ChannelUnitary(np.eye(2)), D.REVERSED)
        recon = pa.reconstruct_reversed(cm)
        for label, s in zip(pa.BB84_LABELS, recon.stokes):
            target = pa.canonical_state(label).projector()
            assert trace_distance(pa.density_from_stokes(*s).entries, target) < 1e-6

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
            for label, s in zip(pa.BB84_LABELS, recon.stokes):
                phi = pa.canonical_state(label).amplitudes
                back = u.entries.conj().T @ phi
                target = np.outer(back, back.conj())
                assert trace_distance(pa.density_from_stokes(*s).entries, target) < 1e-6

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


class TestReconstructionSet:
    def test_rows_are_mle_stokes_vectors(self):
        # each row equals the Stokes vector of mle_reconstruct on its counts:
        # boundary rows (an empty outcome per basis), empty outcomes, and a
        # background-subtracted matrix with a clipped basis pair
        forward = np.array([
            [40, 0, 21, 19, 22, 18],
            [0, 30, 30, 0, 12, 15],
            [7, 5, 25, 0, 6, 7],
            [50, 50, 50, 50, 50, 50],
        ], dtype=float)
        subtracted = np.full((4, 6), 3.5)
        subtracted[1, 4:] = 0.0
        subtracted[2, :3] = [9.25, 0.0, 11.0]
        reversed_counts = np.array([
            [30, 0, 12, 11],
            [0, 28, 10, 14],
            [16, 15, 31, 0],
            [14, 13, 0, 27],
            [20, 9, 0, 15],
            [9, 20, 16, 13],
        ], dtype=float)
        cases = [
            (pa.CountMatrix(D.FORWARD, forward), pa.reconstruct_forward, forward),
            (pa.CountMatrix(D.FORWARD, subtracted, background_subtracted=True),
             pa.reconstruct_forward, subtracted),
            (pa.CountMatrix(D.REVERSED, reversed_counts), pa.reconstruct_reversed,
             reversed_counts.T),
        ]
        boundary = 0
        for cm, reconstruct, rows in cases:
            recon = reconstruct(cm)
            assert recon.direction is cm.direction
            for row, s in zip(rows, recon.stokes):
                expected = pa.stokes_vector(
                    pa.mle_reconstruct(row, allow_empty_basis=cm.background_subtracted)
                )
                np.testing.assert_allclose(s, expected, rtol=0, atol=1e-15)
                boundary += abs(np.linalg.norm(s) - 1.0) < 1e-12
        assert boundary >= 5

    def test_read_only_array(self):
        recon = pa.reconstruct_forward(exact_count_matrix(pa.ChannelUnitary(np.eye(2)), D.FORWARD))
        assert not recon.stokes.flags.writeable
        with pytest.raises(ValueError):
            recon.stokes[0, 0] = 0.0

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match=r"\(4, 3\)"):
            pa.ReconstructionSet(D.FORWARD, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row,col", [(0, 0), (1, 2), (3, 2)])
    def test_non_finite_rejected(self, bad, row, col):
        # the first, a middle and the last component
        rows = np.zeros((4, 3))
        rows[row, col] = bad
        for given in (rows, rows.tolist()):
            with pytest.raises(ValueError, match="finite"):
                pa.ReconstructionSet(D.FORWARD, given)

    def test_large_finite_accepted(self):
        rows = np.full((4, 3), 1e308)
        assert pa.ReconstructionSet(D.REVERSED, rows).rows[3][2] == 1e308


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
            assert pa.residual_qber(u, res_f.angles, D.FORWARD) < 1e-6
            assert pa.residual_qber(u, res_r.angles, D.REVERSED) < 1e-6
