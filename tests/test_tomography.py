import dataclasses
import math
from itertools import product

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

import polalign as pa
from polalign import tomography
from polalign.errors import InsufficientCountsError
from polalign.montecarlo import (
    TrialConfig,
    generate_counts,
    stokes_axes,
)
from polalign.tomography import _axis_root

import oracles
from conftest import exact_count_matrix, haar_channel, haar_state, stokes_qber, trace_distance
from oracles import KETS

D = pa.Direction
#: the largest float whose square is at most 1 + 1e-12, the Bloch ball's rounding margin
BALL_EDGE = 1.0000000000005


def _outcome_probabilities(rho: np.ndarray, basis_weights=(1 / 3, 1 / 3, 1 / 3)) -> np.ndarray:
    """Oracle: Born probabilities of the six outcomes for a given state."""
    p = []
    for label, w in zip(pa.ALL_LABELS, np.repeat(basis_weights, 2)):
        ket = KETS[label]
        p.append(w * float(np.real(ket.conj() @ rho @ ket)))
    return np.array(p)


def linear_inversion(n) -> list[float]:
    """The linear inversion (n+ - n-)/(n+ + n-) of six totals, an empty pair at 0."""
    return [(p - m) / (p + m) if p + m else 0.0 for p, m in zip(n[0::2], n[1::2])]


def mle_reconstruct(counts, allow_empty_basis: bool = False) -> np.ndarray:
    """The program's maximum-likelihood Stokes vector of six totals.

    They are row H of a forward matrix whose other rows hold one count per
    outcome, a fit inside the ball.
    """
    rows = np.array([counts] * 4, dtype=float)
    rows[1:] = 1.0
    cm = pa.CountMatrix(D.FORWARD, rows, background_subtracted=allow_empty_basis)
    return np.array(pa.reconstruct_forward(cm).rows[0])


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

    def test_equal_by_value(self):
        counts = np.arange(24.0).reshape(4, 6)
        cm = pa.CountMatrix(D.FORWARD, counts)
        same = pa.CountMatrix("forward", counts.tolist())
        signed = counts.copy()
        signed[0, 0] = -0.0  # equal to 0.0 in value, so in hash as well
        equal = [same, pa.CountMatrix(D.FORWARD, signed)]
        unequal = [pa.CountMatrix(D.FORWARD, counts + 1.0),
                   pa.CountMatrix(D.FORWARD, counts, background_subtracted=True),
                   pa.CountMatrix(D.REVERSED, counts.T)]
        for other in equal:
            assert other == cm and not other != cm
            assert hash(other) == hash(cm)
        for other in unequal:
            assert other != cm and not other == cm
        assert (cm == counts.tolist()) is False
        assert len({cm, *equal, *unequal}) == 1 + len(unequal)
        assert all(other in {cm} for other in equal)
        assert not any(other in {cm} for other in unequal)

    @pytest.mark.parametrize("direction", list(D))
    def test_direction_given_by_its_value(self, direction):
        # the value is stored as the Direction, so the reconstruction, which
        # tests the direction by identity, runs as it does on the enum
        counts = exact_count_matrix(haar_channel(np.random.default_rng(5)), direction).counts
        by_value = pa.CountMatrix(direction.value, counts)
        assert by_value.direction is direction
        reconstruct = pa.reconstruct_forward if direction is D.FORWARD else pa.reconstruct_reversed
        assert reconstruct(by_value) == reconstruct(pa.CountMatrix(direction, counts))
        with pytest.raises(ValueError, match="'sideways' is not a valid Direction"):
            pa.CountMatrix("sideways", counts)


class TestCountMatrixBlock:
    """One check for a stack of count matrices, as a sweep block draws them."""

    @staticmethod
    def stack(direction, subtracted):
        shape = (5, *tomography.COUNT_SHAPE[direction])
        counts = np.random.default_rng(8).integers(0, 40, size=shape)
        # subtraction leaves fractional counts, some clipped to 0
        return np.maximum(counts - 3.3, 0.0) if subtracted else counts

    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("subtracted", [False, True])
    def test_each_row_equals_the_checked_matrix(self, direction, subtracted):
        counts = self.stack(direction, subtracted)
        matrices = pa.CountMatrix.block(direction.value, counts, background_subtracted=subtracted)
        assert len(matrices) == len(counts)
        reconstruct = pa.reconstruct_forward if direction is D.FORWARD else pa.reconstruct_reversed
        for cm, row in zip(matrices, counts):
            checked = pa.CountMatrix(direction, row, background_subtracted=subtracted)
            assert type(cm) is pa.CountMatrix
            assert cm.direction is checked.direction is direction
            assert cm.counts.dtype == checked.counts.dtype == np.float64
            assert np.array_equal(cm.counts, checked.counts)
            assert cm.background_subtracted is subtracted
            assert cm.total == checked.total
            assert reconstruct(cm) == reconstruct(checked)

    @pytest.mark.parametrize("direction", list(D))
    def test_each_matrix_read_only(self, direction):
        counts = self.stack(direction, True)
        matrices = pa.CountMatrix.block(direction, counts)
        counts[0, 0, 0] = 99.0  # the caller's array stays its own
        for cm in matrices:
            assert not cm.counts.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cm.counts[0, 0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                cm.counts = np.zeros(cm.counts.shape)
        assert matrices[0].counts[0, 0] != 99.0

    @pytest.mark.parametrize("direction", list(D))
    def test_wrong_trailing_shape_rejected_as_the_constructor_does(self, direction):
        counts = np.swapaxes(self.stack(direction, False), 1, 2)
        with pytest.raises(ValueError, match="shape") as one:
            pa.CountMatrix(direction, counts[0])
        with pytest.raises(ValueError) as block:
            pa.CountMatrix.block(direction, counts)
        assert str(block.value) == str(one.value)

    @pytest.mark.parametrize("direction", list(D))
    def test_empty_stack_gives_no_matrices(self, direction):
        empty = np.zeros((0, *tomography.COUNT_SHAPE[direction]))
        assert pa.CountMatrix.block(direction, empty) == []

    @pytest.mark.parametrize("direction", list(D))
    def test_single_matrix_rejected_as_no_stack(self, direction):
        rows, columns = tomography.COUNT_SHAPE[direction]
        with pytest.raises(ValueError, match=(
                rf"{direction.value} counts must be a \(B, {rows}, {columns}\) stack of count "
                rf"matrices, got shape \({rows}, {columns}\)$")):
            pa.CountMatrix.block(direction, self.stack(direction, False)[0])

    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("trial", [0, 2, 4])
    def test_bad_count_rejected_as_the_constructor_does(self, direction, bad, trial):
        counts = self.stack(direction, True)
        counts[trial, 1, 2] = bad
        with pytest.raises(ValueError, match="counts must be finite and nonnegative") as one:
            pa.CountMatrix(direction, counts[trial])
        with pytest.raises(ValueError) as block:
            pa.CountMatrix.block(direction, counts)
        assert str(block.value) == str(one.value)


class TestLinearInversion:
    def test_pure_h(self):
        counts = [100, 0, 50, 50, 50, 50]
        rho = oracles.linear_inversion(counts)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(mle_reconstruct(counts), oracles.stokes(rho), atol=1e-12)

    def test_maximally_mixed(self):
        counts = [50, 50, 50, 50, 50, 50]
        rho = oracles.linear_inversion(counts)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(mle_reconstruct(counts), oracles.stokes(rho), atol=1e-12)

    def test_two_axis_state(self):
        counts = [75, 25, 75, 25, 50, 50]
        rho = oracles.linear_inversion(counts)
        expected = 0.5 * (np.eye(2) + 0.5 * oracles.SIGMA_X + 0.5 * oracles.SIGMA_Z)
        np.testing.assert_allclose(rho, expected, atol=1e-12)
        # cross-check: recompute the outcome probabilities the result implies
        probs = _outcome_probabilities(rho, basis_weights=(1, 1, 1))
        np.testing.assert_allclose(probs, [0.75, 0.25, 0.75, 0.25, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(mle_reconstruct(counts), [0.5, 0.5, 0.0], atol=1e-12)

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
            mle_reconstruct(counts)
        assert err.value.basis == basis

    def test_can_be_nonphysical(self):
        # noisy counts can push the Bloch vector outside the ball; the fit
        # then lies on its surface
        counts = [100, 0, 100, 0, 100, 0]
        assert np.linalg.eigvalsh(oracles.linear_inversion(counts)).min() < -1e-3
        assert np.linalg.norm(mle_reconstruct(counts)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="counts must be finite and nonnegative"):
            mle_reconstruct([bad, 1, 1, 1, 1, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("form", [list, tuple, np.array])
    def test_every_form_checked(self, form, bad):
        with pytest.raises(ValueError, match="counts must be finite and nonnegative"):
            mle_reconstruct(form([1.0, 1.0, 1.0, 1.0, 1.0, bad]))

    @pytest.mark.parametrize("counts", [[1.0] * 5, [1.0] * 7, [[1.0] * 6], [[1.0] * 3] * 2])
    def test_other_shapes_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must have shape"):
            mle_reconstruct(counts)


class TestMLE:
    def test_exact_diagonal_state(self):
        rho = oracles.rho_from_stokes(mle_reconstruct([500, 500, 1000, 0, 500, 500]))
        assert trace_distance(rho, oracles.projector(KETS["D"])) < 1e-6

    def test_uniform_counts_give_maximally_mixed(self):
        rho = oracles.rho_from_stokes(mle_reconstruct([50, 50, 50, 50, 50, 50]))
        assert trace_distance(rho, np.eye(2) / 2) < 1e-6

    def test_agrees_with_physical_linear_inversion(self, rng):
        # when the direct inversion is already physical the MLE must match it
        checked = 0
        for _ in range(50):
            fs = rng.uniform(0.6, 0.85)
            rho_true = oracles.depolarize(haar_state(rng), fs)
            p = _outcome_probabilities(rho_true)
            counts = rng.multinomial(10_000, p)
            if np.linalg.eigvalsh(oracles.linear_inversion(counts)).min() < 0:
                continue
            checked += 1
            np.testing.assert_array_equal(mle_reconstruct(counts), linear_inversion(counts))
        assert checked >= 40

    def test_output_always_physical(self, rng):
        # even for wildly nonphysical linear inversions
        for _ in range(50):
            counts = rng.integers(0, 40, size=6) + np.array([30, 0, 30, 0, 30, 0])
            rho = oracles.rho_from_stokes(mle_reconstruct(counts))
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() >= -1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

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
            pure = haar_state(rng)
            n = rng.multinomial(int(rng.choice([10, 30, 100, 400])),
                                _outcome_probabilities(oracles.projector(pure))).astype(float)
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
            s = mle_reconstruct(n, allow_empty_basis=allow_empty)
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
        s = mle_reconstruct(n)
        expected = [_axis_root(1e-9, 1e-6, 150.0), -1.0, _axis_root(1e-12, 0.0, 150.0)]
        np.testing.assert_allclose(s, expected, rtol=0, atol=1e-13)

    def test_total_below_six_rejected(self):
        with pytest.raises(InsufficientCountsError, match="minimum"):
            mle_reconstruct([1, 0, 1, 0, 1, 1])

    def test_empty_pair_raises_unless_allowed(self):
        counts = [40, 20, 30, 30, 0, 0]
        with pytest.raises(InsufficientCountsError) as err:
            mle_reconstruct(counts)
        assert err.value.basis == "Y"
        # the unobserved axis stays uncommitted
        assert mle_reconstruct(counts, allow_empty_basis=True)[2] == pytest.approx(0.0, abs=1e-9)

    def test_nonuniform_weights_recover_state(self, rng):
        weights = (0.5, 0.3, 0.2)
        rho_true = oracles.depolarize(haar_state(rng, "D"), 0.9)
        p = _outcome_probabilities(rho_true, weights)
        counts = rng.multinomial(200_000, p)
        rho = oracles.rho_from_stokes(mle_reconstruct(counts))
        assert trace_distance(rho, rho_true) < 0.01

    def test_three_axis_pure_state(self):
        # every axis all "+": by symmetry the optimum is the pure state
        # along (1, 1, 1)/sqrt(3), while the linear inversion has |s| = sqrt(3)
        s = mle_reconstruct([100, 0, 100, 0, 100, 0])
        np.testing.assert_allclose(s, np.ones(3) / math.sqrt(3), atol=1e-12)

    def test_consistency_scaling(self, rng):
        # median estimation error shrinks like N^(-1/2)
        rho_true = oracles.depolarize(haar_state(rng, "D"), 0.9)
        p = _outcome_probabilities(rho_true)
        n_values = [100, 1000, 10_000]
        medians = []
        for n in n_values:
            distances = []
            for _ in range(500):
                counts = rng.multinomial(n, p)
                try:
                    est = oracles.rho_from_stokes(mle_reconstruct(counts))
                except InsufficientCountsError:
                    continue
                distances.append(trace_distance(est, rho_true))
            medians.append(np.median(distances))
        slope = np.polyfit(np.log(n_values), np.log(medians), 1)[0]
        assert -0.6 <= slope <= -0.4


#: (n+, n-) outcome pairs of one basis: integer counts, background-subtracted
#: fractions, lopsided pairs and an even split
AXIS_PAIRS = [(3.0, 1.0), (1.0, 3.0), (7.0, 7.0), (399.0, 1.0), (1.0, 399.0), (40.0, 23.0),
              (0.25, 16.75), (16.6667, 0.3333), (1600.0, 2.0), (5.5, 0.5)]


def _stationarity_residual(n_plus, n_minus, lam, s):
    return n_plus / (1.0 + s) - n_minus / (1.0 - s) - lam * s


class TestAxisRoot:
    LAM_FRACTIONS = np.logspace(-12, 4, 161)

    def test_root_inside_interval_and_stationary(self):
        for n_plus, n_minus in AXIS_PAIRS:
            n = n_plus + n_minus
            for lam in n * self.LAM_FRACTIONS:
                s = _axis_root(n_plus, n_minus, lam)
                assert -1.0 < s < 1.0
                assert abs(_stationarity_residual(n_plus, n_minus, lam, s)) <= 1e-12 * (n + lam)

    def test_tends_to_linear_inversion(self):
        # |ds/dlam| <= |s|/n, so s(lam) stays within lam/n of d/n
        for n_plus, n_minus in AXIS_PAIRS:
            n, d = n_plus + n_minus, n_plus - n_minus
            for fraction in (1e-12, 1e-9, 1e-6, 1e-3):
                s = _axis_root(n_plus, n_minus, fraction * n)
                assert abs(s - d / n) <= fraction + 1e-15

    def test_bisection_asks_for_no_zero_multiplier(self, monkeypatch):
        # _axis_root has no lam = 0 case: the bisection's midpoints on
        # [0, total] are at least total * 2**-64.  The last row's inversion
        # lies a rounding step outside the ball, so its root is near lam = 0
        rows = ([counts for counts, _, _ in HARD_ROWS] + UNCERTIFIED_ROWS + MPMATH_ROWS
                + [[160.0, 39.99999999999999, 100.0, 100.0, 180.00000000000003,
                    19.999999999999975]])
        asked = []

        def recorded(n_plus, n_minus, lam):
            asked.append(lam / total)
            return _axis_root(n_plus, n_minus, lam)

        monkeypatch.setattr(tomography, "_axis_root", recorded)
        monkeypatch.setattr(tomography, "_newton_sphere", lambda n, s0: None)
        for counts in rows:
            total = sum(counts)
            mle_reconstruct(counts, allow_empty_basis=True)
        assert 2.0**-64 <= min(asked) <= 2.0**-50

    def test_empty_outcome_exact_above_clamp(self):
        # with n- = 0 the cubic is (s - 1)(lam s^2 + lam s - n+), so above
        # lam = n+/2 the component is the quadratic's root in (0, 1), which
        # meets the spurious root 1 at the clamp itself
        for n_plus in (1.0, 3.0, 37.0, 400.0, 1e4):
            assert _axis_root(n_plus, 0.0, n_plus / 2.0) == 1.0
            assert _axis_root(0.0, n_plus, n_plus / 2.0) == -1.0
            for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 100.0):
                lam = n_plus / 2.0 * (1.0 + eps)
                q = n_plus / lam
                exact = 2.0 * q / (1.0 + math.sqrt(1.0 + 4.0 * q))
                assert abs(_axis_root(n_plus, 0.0, lam) - exact) <= 5e-16
                assert abs(_axis_root(0.0, n_plus, lam) + exact) <= 5e-16

    def test_empty_pair_held_at_zero(self, monkeypatch):
        # an empty pair's component is exactly 0, from the Newton and from the
        # bisection, which never evaluates the empty pair
        rows = ([3.0, 1.0, 0.0, 0.0, 0.0, 5.0], [0.0, 0.0, 7.5, 0.25, 6.0, 0.0],
                [300.0, 0.0, 0.0, 0.0, 50.5, 49.5])
        evaluated = []

        def recorded(n_plus, n_minus, lam):
            evaluated.append((n_plus, n_minus))
            return _axis_root(n_plus, n_minus, lam)

        monkeypatch.setattr(tomography, "_axis_root", recorded)
        for newton in (tomography._newton_sphere, lambda n, s0: None):
            monkeypatch.setattr(tomography, "_newton_sphere", newton)
            for counts in rows:
                s = mle_reconstruct(counts, allow_empty_basis=True)
                empty = [k for k in range(3) if counts[2 * k] + counts[2 * k + 1] == 0.0]
                assert [s[k] for k in empty] == [0.0]
        assert evaluated and (0.0, 0.0) not in evaluated


def _reference_grid_rows(seed: int) -> list[list[float]]:
    """The count rows a reconstruction sees in one drawn block of each reference cell.

    The cells are both directions, N in {400, 6400} and F_S in {1, 0.95};
    a reversed matrix contributes its outcome columns.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for direction, n, fs in product(D, (400, 6400), (1.0, 0.95)):
        axes = stokes_axes(pa.haar_random_unitary(rng, 250), direction)
        counts = generate_counts(axes, TrialConfig(direction, n, fs), rng).astype(float)
        if direction is D.REVERSED:
            counts = counts.transpose(0, 2, 1)
        rows.extend(counts.reshape(-1, 6).tolist())
    return rows


def _outside_ball(counts) -> bool:
    s = linear_inversion(counts)
    return s[0] * s[0] + s[1] * s[1] + s[2] * s[2] > 1.0


@pytest.fixture(scope="module")
def reference_boundary_rows():
    rows = [row for row in _reference_grid_rows(2019) if _outside_ball(row)]
    assert len(rows) > 2000
    return rows


#: (counts, allow_empty, sphere point of a Newton search on lam started at 0): an
#: empty outcome whose root sits just past the clamp lam = n/2, counts near
#: 2**53, pinned and faint axes, and empty pairs
HARD_ROWS = [
    ([300.0, 0.0, 51.0, 49.0, 50.0, 50.0], False, [0.9999679988735237, 0.008000076804669817, 0.0]),
    ([0.0, 300.0, 50.0, 50.0, 49.0, 51.0], False,
     [-0.9999679988735237, 0.0, -0.008000076804669817]),
    ([400.0, 0.0, 200.5, 199.5, 200.0, 200.0], False,
     [0.9999986111095036, 0.0016666670524699818, 0.0]),
    ([37.0, 0.0, 10.0, 9.0, 5.0, 5.0], False, [0.9996443187814478, 0.026669006880184986, 0.0]),
    ([16.75, 0.0, 0.25, 0.2, 0.3, 0.3], False, [0.9999839494216645, 0.00566576553080312, 0.0]),
    ([1e4, 0.0, 5001.0, 4999.0, 5000.0, 5000.0], False,
     [0.9999999911111112, 0.0001333333335308011, 0.0]),
    ([300.0, 0.0, 0.0, 0.0, 50.5, 49.5], True, [0.9999919999295989, 0.0, 0.004000009600145899]),
    ([3.0, 0.0, 2.0, 1.0, 1.0, 1.0], False, [0.9747790114189543, 0.22317230763938053, 0.0]),
    ([2.0**53, 2.0**40, 2.0**52, 2.0**48, 2.0**50, 2.0**50], False,
     [0.883157633821777, 0.4690763198268702, 0.0]),
    ([2.0**53 - 1, 1.0, 2.0**53 - 3, 3.0, 2.0**20, 2.0**20 + 5], False,
     [0.7071067811865476, 0.7071067811865475, -6.700788706400153e-16]),
    ([1.0, 2.0**53, 2.0**52, 2.0**52 + 2, 2.0**51, 1.0], False,
     [-0.9403124237432848, -9.264986314810141e-17, 0.34031242374328485]),
    ([2.0**53, 0.0, 2.0**52 + 2.0**30, 2.0**52 - 2.0**30, 2.0**52, 2.0**52], False,
     [0.9999999999999873, 1.589457193887051e-07, 0.0]),
    ([1e-9, 1e-6, 0.0, 300.0, 1e-12, 0.0], False,
     [-6.6599999555556e-09, -1.0, 6.666666666666622e-15]),
    ([100.0, 0.0, 100.0, 0.0, 100.0, 0.0], False,
     [0.5773502691896258, 0.5773502691896258, 0.5773502691896258]),
    ([100.0, 0.0, 0.0, 100.0, 1.0, 1.0], False, [0.7071067811865476, -0.7071067811865476, 0.0]),
    ([0.0, 50.0, 50.0, 0.0, 0.0, 0.0], True, [-0.7071067811865476, 0.7071067811865476, 0.0]),
    ([7.5, 0.5, 6.25, 0.75, 0.0, 0.0], True, [0.7686526397546658, 0.6396664125918947, 0.0]),
    ([30.0, 0.0, 23.0, 24.0, 24.0, 6.0], False,
     [0.9137110070859228, -0.015587827527251413, 0.40606553062653555]),
    ([399.0, 1.0, 1.0, 0.0, 0.0, 1.0], False,
     [0.9946617974537483, 0.07296543252142955, -0.07296543252142955]),
    ([5e-13, 0.0, 200.0, 0.0, 100.0, 100.0], False, [4.999999999999975e-15, 1.0, 0.0]),
    ([2.0, 1e-300, 2.0, 0.0, 2.0, 0.0], False,
     [0.5773502691896257, 0.5773502691896257, 0.5773502691896257]),
]


#: fractional allow-empty rows whose sphere point lies at a multiplier far below the total
MPMATH_ROWS = [[16.98, 8.28, 0.0, 0.0, 0.0, 0.0096], [91.5, 274.4, 0.218, 0.0, 0.0, 0.0]]


#: every boundary row the Newton leaves uncertified among 200,000 drawn the way
#: the KKT test below draws its fractional rows (seed 7, no pair zeroed)
UNCERTIFIED_ROWS = [[9.5, 1.5, 0.5, 18.5, 0.0, 0.5], [14.5, 0.5, 8.5, 6.5, 0.0, 0.5],
                    [13.5, 0.5, 0.0, 1.5, 5.5, 7.5], [8.5, 6.5, 0.5, 14.5, 0.5, 0.0],
                    [0.5, 0.0, 8.5, 2.5, 0.5, 14.5], [2.5, 0.5, 0.5, 2.5, 17.5, 0.5],
                    [20.5, 0.5, 7.5, 4.5, 0.0, 2.5], [12.5, 0.5, 7.5, 10.5, 0.5, 0.0]]


def _fifty_digit_sphere_point(counts):
    """The sphere maximum of six totals to 50 digits, independent of the program's solvers.

    Each component is the root in (-1, 1) of the rational stationarity
    condition n+/(1 + s) - n-/(1 - s) = lam s, or +-1 while one outcome is
    empty and lam <= n+/2 (n-/2), or 0 for an empty pair; lam is the root of
    |s(lam)|^2 - 1 on [0, total].  Both roots are bracketed.
    """
    with mpmath.workdps(50):
        n = [mpmath.mpf(x) for x in counts]
        edge = 1 - mpmath.mpf(10) ** -45

        def component(n_plus, n_minus, lam):
            if n_plus + n_minus == 0:
                return mpmath.mpf(0)
            if n_minus == 0 and lam <= n_plus / 2:
                return mpmath.mpf(1)
            if n_plus == 0 and lam <= n_minus / 2:
                return mpmath.mpf(-1)
            return mpmath.findroot(lambda s: n_plus / (1 + s) - n_minus / (1 - s) - lam * s,
                                   (-edge, edge), solver="anderson")

        def point(lam):
            return [component(n[2 * k], n[2 * k + 1], lam) for k in range(3)]

        lam = mpmath.findroot(lambda lam: sum(x * x for x in point(lam)) - 1, (0, sum(n)),
                              solver="anderson")
        return point(lam)


@pytest.fixture
def axis_root_calls(monkeypatch):
    """A one-item list that counts the program's _axis_root calls from here on."""
    calls = [0]

    def counted(n_plus, n_minus, lam):
        calls[0] += 1
        return _axis_root(n_plus, n_minus, lam)

    monkeypatch.setattr(tomography, "_axis_root", counted)
    return calls


class TestSphereSolver:
    def test_kkt_conditions_on_reference_and_fractional_rows(self, reference_boundary_rows):
        # on the sphere every axis with both outcomes meets
        # n+/(1 + s_k) - n-/(1 - s_k) = lam s_k with one common lam
        rng = np.random.default_rng(7)
        fractional = []
        while len(fractional) < 500:
            # a pure state's counts less a mean background, clipped at 0;
            # every other row loses a whole basis pair
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            bg = rng.choice([0.5, 2.5, 10.0])
            n = rng.multinomial(int(rng.choice([30, 100, 400])),
                                (1.0 + np.repeat(v, 2) * [1, -1, 1, -1, 1, -1]) / 6.0)
            n = np.clip(n + rng.poisson(bg, 6) - bg, 0.0, None)
            if len(fractional) % 2:
                n[2 * rng.integers(3) + np.arange(2)] = 0.0
            if n.sum() >= 6 and _outside_ball(n.tolist()):
                fractional.append(n.tolist())
        rows = ([(row, False) for row in reference_boundary_rows]
                + [(row, True) for row in fractional])
        for counts, allow_empty in rows:
            s = mle_reconstruct(counts, allow_empty_basis=allow_empty)
            assert abs(math.sqrt(s @ s) - 1.0) <= 1e-15
            lams = [(counts[2 * k] / (1.0 + s[k]) - counts[2 * k + 1] / (1.0 - s[k])) / s[k]
                    for k in range(3) if counts[2 * k] > 0.0 and counts[2 * k + 1] > 0.0
                    and s[k] != 0.0]
            if lams:
                assert max(lams) - min(lams) <= 1e-9 * max(lams), counts

    def test_few_multiplier_evaluations_per_boundary_row(self, axis_root_calls,
                                                         reference_boundary_rows):
        # one evaluation is one _axis_root call per non-empty axis; a row the
        # Newton certifies needs none, and the bisection takes 64 on any row
        for counts in reference_boundary_rows:
            mle_reconstruct(counts)
        assert axis_root_calls[0] / (3 * len(reference_boundary_rows)) <= 2.5

    def test_newton_point_is_the_search_point(self, monkeypatch, reference_boundary_rows):
        # the certified Newton point against the bisection, forced to run on
        # every row
        points = [tomography._newton_sphere(row, linear_inversion(row))
                  for row in reference_boundary_rows]
        certified = [(row, point) for row, point in zip(reference_boundary_rows, points)
                     if point is not None]
        assert len(certified) >= 0.95 * len(reference_boundary_rows)
        for row, point in certified[:50]:
            assert mle_reconstruct(row).tolist() == point
        monkeypatch.setattr(tomography, "_newton_sphere", lambda n, s0: None)
        for row, point in certified:
            np.testing.assert_allclose(point, mle_reconstruct(row), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("counts", MPMATH_ROWS)
    def test_fractional_rows_against_fifty_digits(self, counts):
        # allow-empty rows whose root lam lies far below the total, where
        # s(lam) is steep.  The Newton certifies both; the bisection's
        # accuracy on them is pinned with the fallback rows below
        s0 = linear_inversion(counts)
        assert tomography._newton_sphere(counts, s0) is not None
        expected = [float(x) for x in _fifty_digit_sphere_point(counts)]
        np.testing.assert_allclose(mle_reconstruct(counts, allow_empty_basis=True), expected,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("counts", [[5e-13, 0.0, 200.0, 0.0, 100.0, 100.0]]
                             + UNCERTIFIED_ROWS + MPMATH_ROWS)
    def test_fallback_rows_bisect_to_fifty_digits(self, monkeypatch, axis_root_calls, counts):
        # every row the Newton leaves costs the same 64 halvings of
        # [0, total], one _axis_root call per non-empty axis each; the
        # MPMATH_ROWS, which the Newton certifies, are forced through them.
        # The first row's root sits at the X axis's kink lam = 100, where the
        # other axes add under 1e-28 to |s|^2, so it has no stationary point.
        # Just past an outcome's kink, or far below the total, s(lam) is
        # steep: a bracket of eps * total in lam (52 halvings) would leave these
        # rows up to 7.7e-14 off, and total * 2**-64 leaves them within 2e-16
        s0 = linear_inversion(counts)
        certified = tomography._newton_sphere(counts, s0) is not None
        assert certified == (counts in MPMATH_ROWS)
        monkeypatch.setattr(tomography, "_newton_sphere", lambda n, s0: None)
        s = mle_reconstruct(counts, allow_empty_basis=True)
        axes = sum(counts[k] + counts[k + 1] > 0.0 for k in (0, 2, 4))
        assert axis_root_calls[0] == 64 * axes
        expected = [float(x) for x in _fifty_digit_sphere_point(counts)]
        np.testing.assert_allclose(s, expected, rtol=0, atol=2e-16)

    def test_newton_certifies_low_count_integer_rows(self, axis_root_calls):
        # pure states at N from 6 to 80: the first step from s0/|s0| can
        # overshoot (s_X to -1.17 on [0, 1, 0, 30, 14, 16]), and eight steps
        # settle every such row, so none reaches the bisection
        rng = np.random.default_rng(3)
        v = rng.normal(size=(20_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p = (1.0 + np.repeat(v, 2, axis=1) * [1, -1, 1, -1, 1, -1]) / 6.0
        counts = rng.multinomial(rng.integers(6, 81, len(v)), p).astype(float).tolist()
        rows = [row for row in counts if _outside_ball(row)]
        assert len(rows) > 10_000
        bisected = []
        for row in rows:
            before = axis_root_calls[0]
            mle_reconstruct(row, allow_empty_basis=True)
            if axis_root_calls[0] > before:
                bisected.append(row)
        assert bisected == []

    @pytest.mark.parametrize("counts", [[0.0, 100.0, 50.0, 50.0 + 1e-7, 50.0, 50.0],
                                        [100.0, 0.0, 50.0, 50.0 - 1e-7, 50.0, 50.0]])
    def test_start_on_a_pinned_pole_goes_to_the_search(self, counts):
        # s0 = (+-1, 1e-9, 0) scales onto the sphere as itself, so the
        # Newton would divide the empty outcome's 0 by 1 -+ s = 0
        s0 = linear_inversion(counts)
        assert tomography._newton_sphere(counts, s0) is None
        np.testing.assert_array_equal(mle_reconstruct(counts), s0)

    @pytest.mark.parametrize("counts,allow_empty,expected", HARD_ROWS)
    def test_hard_rows_keep_their_sphere_point(self, counts, allow_empty, expected):
        s = mle_reconstruct(counts, allow_empty_basis=allow_empty)
        np.testing.assert_allclose(s, expected, rtol=0, atol=1e-14)


class TestReconstructForward:
    def test_identity_channel(self):
        cm = exact_count_matrix(np.eye(2), D.FORWARD)
        recon = pa.reconstruct_forward(cm)
        for label, s in zip(pa.BB84_LABELS, recon.rows):
            target = oracles.projector(KETS[label])
            assert trace_distance(oracles.rho_from_stokes(s), target) < 1e-6

    def test_swap_channel(self):
        # half-wave at 45 degrees swaps H and V; compare against the
        # convention matrix applied to each input directly
        u = oracles.half(math.pi / 4)
        cm = exact_count_matrix(u, D.FORWARD)
        recon = pa.reconstruct_forward(cm)
        states = [oracles.rho_from_stokes(s) for s in recon.rows]
        for label, state in zip(pa.BB84_LABELS, states):
            received = u @ KETS[label]
            target = np.outer(received, received.conj())
            assert trace_distance(state, target) < 1e-6
        # explicitly: H lands on V, D stays D up to phase
        assert oracles.fidelity(KETS["V"], states[0]) > 1 - 1e-6
        assert oracles.fidelity(KETS["D"], states[2]) > 1 - 1e-6

    def test_random_channels_with_depolarization(self, rng):
        for _ in range(10):
            u = haar_channel(rng)
            fs = rng.uniform(0.7, 1.0)
            cm = exact_count_matrix(u, D.FORWARD, signal_fidelity=fs)
            recon = pa.reconstruct_forward(cm)
            for label, s in zip(pa.BB84_LABELS, recon.rows):
                expected = oracles.depolarize(u @ KETS[label], fs)
                assert trace_distance(oracles.rho_from_stokes(s), expected) < 1e-6

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
        assert np.shape(recon.rows) == (4, 3)
        # the strict path still refuses
        with pytest.raises(InsufficientCountsError):
            pa.reconstruct_forward(pa.CountMatrix(D.FORWARD, counts))


class TestReconstructReversed:
    def test_identity_channel(self):
        cm = exact_count_matrix(np.eye(2), D.REVERSED)
        recon = pa.reconstruct_reversed(cm)
        for label, s in zip(pa.BB84_LABELS, recon.rows):
            target = oracles.projector(KETS[label])
            assert trace_distance(oracles.rho_from_stokes(s), target) < 1e-6

    def test_columns_give_back_propagated_outcomes(self, rng):
        # the state reconstructed for outcome m is U+|m><m|U, which rests on
        # |<m|U psi>|^2 = |<U+ m|psi>|^2; check both over Haar draws
        for _ in range(100):
            u = haar_channel(rng)
            psi = haar_state(rng)
            phi = KETS["D"]
            lhs = abs(np.vdot(phi, u @ psi)) ** 2
            rhs = abs(np.vdot(u.conj().T @ phi, psi)) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)

        for _ in range(20):
            u = haar_channel(rng)
            cm = exact_count_matrix(u, D.REVERSED)
            recon = pa.reconstruct_reversed(cm)
            for label, s in zip(pa.BB84_LABELS, recon.rows):
                back = u.conj().T @ KETS[label]
                target = np.outer(back, back.conj())
                assert trace_distance(oracles.rho_from_stokes(s), target) < 1e-6

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
            for row, s in zip(rows, recon.rows):
                expected = mle_reconstruct(row, allow_empty_basis=cm.background_subtracted)
                np.testing.assert_allclose(s, expected, rtol=0, atol=1e-15)
                boundary += abs(np.linalg.norm(s) - 1.0) < 1e-12
        assert boundary >= 5

    @staticmethod
    def fit_with_row_d(direction, row, subtracted=False):
        """Reconstruct a matrix whose row D is ``row``, 20 counts per outcome elsewhere.

        Row D is the input row D of a forward matrix, or the outcome column D
        of a reversed one.
        """
        rows = np.full((4, 6), 20.0)
        rows[2] = row
        if direction is D.FORWARD:
            return pa.reconstruct_forward(pa.CountMatrix(direction, rows, subtracted))
        return pa.reconstruct_reversed(pa.CountMatrix(direction, rows.T, subtracted))

    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("row,subtracted,error,message,basis", [
        pytest.param([1.0, 1.0, 1.0, 1.0, 1.0, 0.5], True, InsufficientCountsError,
                     "total counts 5.5 below the minimum 6 for a six-outcome fit", None,
                     id="total 5.5"),
        # the total is refused before the empty pair
        pytest.param([3.0, 2.0, 0.5, 0.0, 0.0, 0.0], False, InsufficientCountsError,
                     "total counts 5.5 below the minimum 6 for a six-outcome fit", None,
                     id="total 5.5 and empty pairs"),
        pytest.param([20.0, 20.0, 20.0, 20.0, 0.0, 0.0], False, InsufficientCountsError,
                     "no counts in the Y basis (outcomes R/L)", "Y", id="empty Y pair"),
        # counts that CountMatrix accepts as finite but whose total is not
        pytest.param([1e308] * 6, False, ValueError, "counts sum past float range", None,
                     id="total overflows"),
        pytest.param([1e308] * 6, True, ValueError, "counts sum past float range", None,
                     id="total overflows, subtracted"),
    ])
    def test_refused_row_named(self, direction, row, subtracted, error, message, basis):
        where = "input row" if direction is D.FORWARD else "outcome column"
        with pytest.raises(error) as caught:
            self.fit_with_row_d(direction, row, subtracted)
        assert type(caught.value) is error
        assert str(caught.value) == f"{message} [{where} D]"
        if error is InsufficientCountsError:
            assert caught.value.basis == basis

    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("scale", [100.0, 2.0**50], ids=["100", "2**50"])
    def test_zero_outcome_empty_at_any_total(self, direction, scale):
        # the counts are fitted as given: a lone R count is a pole at any
        # total, and only a pair of zeros is an empty basis
        fitted = self.fit_with_row_d(direction, [scale] * 4 + [1.0, 0.0])
        assert fitted.rows[2] == (0.0, 0.0, 1.0)
        with pytest.raises(InsufficientCountsError) as caught:
            self.fit_with_row_d(direction, [scale] * 4 + [0.0, 0.0])
        assert caught.value.basis == "Y"

    @pytest.mark.parametrize("direction", list(D))
    @pytest.mark.parametrize("solver", ["newton", "bisection"])
    def test_fitted_sets_pass_the_constructor(self, monkeypatch, solver, direction):
        # a fitted set is built without the constructor's check, which would
        # refuse none of them: every row passed s.s <= 1 or is a normalized
        # sphere point, from either solver and in either direction
        if solver == "bisection":
            monkeypatch.setattr(tomography, "_newton_sphere", lambda n, s0: None)
        rng = np.random.default_rng(31)
        v = rng.normal(size=(3000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        # pure states; half the rows near 2**53 below are slightly mixed
        v[2750:] *= rng.uniform(0.999, 1.0, (250, 1))
        p = (1.0 + np.repeat(v, 2, axis=1) * [1, -1, 1, -1, 1, -1]) / 6.0
        low = rng.multinomial(rng.integers(6, 81, 2000), p[:2000]).astype(float)
        bg = rng.choice([0.5, 2.5, 10.0], size=(500, 1))
        clipped = np.clip(rng.multinomial(rng.choice([30, 100, 400], 500), p[2000:2500])
                          + rng.poisson(bg, (500, 6)) - bg, 0.0, None)
        big = np.floor(p[2500:] * 2.0**53)
        rows = ([(counts, allow_empty) for counts, allow_empty, _ in HARD_ROWS]
                + [(counts, True) for counts in UNCERTIFIED_ROWS + MPMATH_ROWS]
                + [(counts, True) for counts in np.vstack([low, clipped, big]).tolist()
                   if sum(counts) >= 6.0])
        assert len(rows) > 2900
        for allow_empty in (False, True):
            group = [counts for counts, allowed in rows if allowed is allow_empty]
            for i in range(0, len(group), 4):
                counts = np.array((group[i:i + 4] * 4)[:4])
                if direction is D.FORWARD:
                    fitted = pa.reconstruct_forward(pa.CountMatrix(direction, counts, allow_empty))
                else:
                    fitted = pa.reconstruct_reversed(
                        pa.CountMatrix(direction, counts.T, allow_empty))
                assert pa.ReconstructionSet(direction, fitted.rows) == fitted

    def test_read_only_array(self):
        # the rows are tuples, copied from the caller's array
        given = np.zeros((4, 3))
        recon = pa.ReconstructionSet(D.FORWARD, given)
        given[0, 0] = 5.0
        assert recon.rows[0][0] == 0.0
        with pytest.raises(TypeError):
            recon.rows[0][0] = 1.0
        with pytest.raises(AttributeError):  # a frozen dataclass
            recon.rows = ()

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match=r"\(4, 3\)"):
            pa.ReconstructionSet(D.FORWARD, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("row,col", [(0, 0), (1, 2), (3, 2)])
    def test_non_finite_rejected(self, bad, row, col):
        # the first, a middle and the last component; an integer beyond
        # float range has no array form
        rows = [[0.0] * 3 for _ in range(4)]
        rows[row][col] = bad
        for given in (rows, np.array(rows)) if isinstance(bad, float) else (rows,):
            with pytest.raises(ValueError, match="finite"):
                pa.ReconstructionSet(D.FORWARD, given)

    @pytest.mark.parametrize("rows", [
        pytest.param([[1.2, 0.0, 0.0], [0.0] * 3, [0.0] * 3, [0.0] * 3], id="1.2"),
        pytest.param([[0.0] * 3, [0.0] * 3, [math.nextafter(BALL_EDGE, 2.0), 0.0, 0.0],
                      [0.0] * 3], id="past 1 + 1e-12"),
        pytest.param([[0.0] * 3, [0.0] * 3, [0.0] * 3, [0.0, 0.0, 1e300]], id="1e300"),
        pytest.param(np.full((4, 3), 1e308), id="1e308"),
    ])
    def test_outside_bloch_ball_rejected(self, rows):
        # a row beyond the ball is no state; one past float range when
        # squared must not slip through as an overflow
        with pytest.raises(ValueError, match="outside the Bloch ball"):
            pa.ReconstructionSet(D.REVERSED, rows)

    def test_non_finite_named_before_a_row_outside_the_ball(self):
        # row H lies outside the ball, row A holds a NaN: the components
        # are checked first, over the whole set
        rows = [[2.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3, [0.0, math.nan, 0.0]]
        with pytest.raises(ValueError, match="Stokes components must be finite, got"):
            pa.ReconstructionSet(D.FORWARD, rows)

    def test_first_row_outside_the_ball_named(self):
        rows = [[0.0] * 3, [0.0, 1.5, 0.0], [0.0] * 3, [0.0, 0.0, 3.0]]
        with pytest.raises(ValueError) as caught:
            pa.ReconstructionSet(D.FORWARD, rows)
        assert str(caught.value) == (
            "Stokes row V (0.0, 1.5, 0.0) lies outside the Bloch ball |s| <= 1")

    def test_unit_norm_mle_row_accepted(self):
        # every linear inversion here lies outside the ball, so every MLE
        # row is on the sphere, some a rounding step above norm 1
        counts = [[28, 0, 33, 0, 13, 15], [27, 0, 24, 0, 3, 4],
                  [19, 0, 84, 0, 29, 4], [7, 0, 33, 0, 14, 12]]
        recon = pa.reconstruct_forward(pa.CountMatrix(D.FORWARD, counts))
        squares = [s1 * s1 + s2 * s2 + s3 * s3 for s1, s2, s3 in recon.rows]
        assert max(squares) > 1.0
        assert all(abs(q - 1.0) < 1e-12 for q in squares)
        assert pa.ReconstructionSet(D.FORWARD, recon.rows).rows == recon.rows
        # the check's edge: a row whose |s|^2 rounds to 1 + 1e-12 itself
        assert BALL_EDGE * BALL_EDGE == 1.0 + 1e-12
        edge = [[0.0] * 3, [0.0] * 3, [BALL_EDGE, 0.0, 0.0], [0.0] * 3]
        assert pa.ReconstructionSet(D.FORWARD, edge).rows[2] == (BALL_EDGE, 0.0, 0.0)


class TestForwardReversedDuality:
    def test_noiseless_duality(self, rng):
        # the same channel characterized in either orientation compensates
        # to negligible residual error
        for _ in range(20):
            u = haar_channel(rng)
            fwd = pa.reconstruct_forward(exact_count_matrix(u, D.FORWARD))
            rev = pa.reconstruct_reversed(exact_count_matrix(u, D.REVERSED))
            res_f = pa.optimize(fwd)
            res_r = pa.optimize(rev)
            assert stokes_qber(u, res_f.rotation, D.FORWARD) < 1e-6
            assert stokes_qber(u, res_r.rotation, D.REVERSED) < 1e-6
