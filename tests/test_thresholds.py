"""Inputs on either side of a threshold, one table per decision.

Every expected answer comes from a closed form, never from perispec itself:
a row states the input, the closed-form quantity that the decision reads, and
the outcome that quantity implies against the threshold."""

import numpy as np
import pytest

from perispec import (
    BlockAlgebra,
    CaseII,
    ProjectionMismatch,
    Superoperator,
    Tolerances,
    build_example2,
    classify_eigenvector,
    invariant_state,
    point_spectrum,
    randomized_positivity_falsifier,
)
from perispec.superop import MERGE_TOL, PERIPHERAL_TOL

GENERIC = np.exp(2j * np.pi / 5)


def _scaled_ex1(delta: float) -> Superoperator:
    """ex1 on M2 with its off-diagonal factors scaled to (1 + delta) lambda0
    and its conjugate: x -> [[m, (1 + delta) lambda0 x12], [(1 + delta)
    conj(lambda0) x21, m]] with m the mean of the diagonal. A pure input with
    |x12| = 1/2 has output eigenvalues 1/2 -+ (1 + delta)/2, so the least
    output eigenvalue over all states is -delta/2."""
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    m[1, 1] = (1 + delta) * GENERIC
    m[2, 2] = (1 + delta) * np.conj(GENERIC)
    return Superoperator(BlockAlgebra((2,)), m)


# delta = 2e-9 is left out: its least eigenvalue, -1e-9, sits on psd_tol.
@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 3e-9, 1e-9, 1e-10])
def test_scaled_ex1_fails_exactly_when_minus_half_delta_is_below_psd_tol(delta):
    tol = Tolerances()
    result = randomized_positivity_falsifier(_scaled_ex1(delta), tol=tol)
    assert abs(result.min_output_eig - (-delta / 2)) <= 1e-12
    assert result.passed is (-delta / 2 >= -tol.psd_tol)


# ex2 at lambda0 = i e^{i eps} has peripheral spectrum {+-1, +-lambda0,
# +-conj(lambda0)}. lambda0 and -conj(lambda0) = i e^{-i eps} lie 2 sin(eps)
# apart, and so do their negatives; eps = 5e-8 puts that distance on
# MERGE_TOL and is left out.
@pytest.mark.parametrize("eps", [1e-9, 1e-8, 2e-8, 4e-8, 6e-8, 1e-7, 1e-6])
def test_ex2_near_i_merges_exactly_when_two_sin_eps_is_within_merge_tol(eps):
    lambda0 = 1j * np.exp(1j * eps)
    spectrum = point_spectrum(build_example2(lambda0)[0])
    values = [1, -1, lambda0, -lambda0, np.conj(lambda0), -np.conj(lambda0)]
    merged = 2 * np.sin(eps) <= MERGE_TOL
    # points are sorted by (real, imaginary) part: -1 first, 1 last, and the
    # points near -i and i between them
    assert spectrum.dimensions == ((1, 2, 2, 1) if merged else (1,) * 6)
    assert all(spectrum.find(v) is not None for v in values)


# ex2 at lambda0 = i with x = alpha1 b0 + alpha2 b1, b0 and b1 the manifest's
# canonical eigenvectors at i: x* x has the eigenvalues alpha1^2 and alpha2^2,
# |alpha2^2 - alpha1^2| = 8.768e-3 apart. The split resolves iff that gap
# exceeds the window 10 eq_tol; eq_tol = 8.768e-4 sits on it and is left out.
@pytest.mark.parametrize("eq_tol", [1e-4, 5e-4, 8.6e-4, 8.8e-4, 1e-3])
def test_ex2_split_resolves_exactly_when_its_gap_exceeds_ten_eq_tol(eq_tol):
    alpha1 = 0.704
    alpha2 = np.sqrt(1.0 - alpha1**2)
    gap = abs(alpha2**2 - alpha1**2)
    phi, manifest = build_example2(1j)
    index = next(k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) <= 1e-12)
    b0, b1 = manifest.canonical_eigenvectors[index]
    x = alpha1 * b0 + alpha2 * b1
    tol = Tolerances(eq_tol=eq_tol)
    if gap > 10.0 * eq_tol:
        result = classify_eigenvector(phi, 1j, x, tol)
        assert isinstance(result, CaseII)
        assert abs(result.theta - (alpha1 * alpha2) ** 2) <= 1e-12
    else:
        with pytest.raises(ProjectionMismatch, match=f"cannot separate .* across gap {gap:.3e}"):
            classify_eigenvector(phi, 1j, x, tol)


# M = V diag(1, 1 - delta, 1/2) V^-1 on three 1x1 blocks, with V's first
# column all ones, so M is unital. Its dual fixes only pi, row 0 of V^-1 over
# its sum, which is orthogonal to V's other two columns: pi is their cross
# product over its sum. The decaying direction at 1 - delta makes the map
# non-normal. At delta = 5e-8 the spectrum folds 1 - delta into its point at
# 1 (dimension 2), and only the rank rule keeps pi apart from it. The padded
# map adds five 1x1 blocks that copy the first three at rate 1/2: its dual
# fixes (pi, 0), and it has more dimensions than invariant_state has starts.
# delta <= 1e-8 is left out: there the singular value of the decaying
# direction falls under rank_tol, the dual kernel has dimension 2, and the
# state is off by up to 0.19.
_NON_NORMAL_FRAME = np.array([[1.0, 1.0, 0.3], [1.0, -0.5, 1.0], [1.0, 0.2, -1.2]])


def _non_normal_map(delta: float, pad: int) -> tuple[Superoperator, np.ndarray]:
    v = _NON_NORMAL_FRAME
    m = v @ np.diag([1.0, 1.0 - delta, 0.5]) @ np.linalg.inv(v)
    d = 3 + pad
    padded = np.zeros((d, d))
    padded[:3, :3] = m
    for j in range(3, d):
        padded[j, j] = padded[j, j % 3] = 0.5
    pi = np.cross(v[:, 1], v[:, 2])
    expected = np.concatenate([pi / pi.sum(), np.zeros(pad)])
    return Superoperator(BlockAlgebra((1,) * d), padded), expected


@pytest.mark.parametrize("pad", [0, 5])
@pytest.mark.parametrize("delta", [1e-3, 1e-6, 2e-7, 5e-8])
def test_non_normal_map_keeps_its_state_apart_from_a_decay_at_one_minus_delta(delta, pad):
    phi, pi = _non_normal_map(delta, pad)
    spectrum = point_spectrum(phi)
    # 1 - delta is peripheral, and joins the point at 1, exactly when delta
    # is within PERIPHERAL_TOL = MERGE_TOL
    assert PERIPHERAL_TOL == MERGE_TOL
    assert spectrum.find(1.0).dimension == (2 if delta <= PERIPHERAL_TOL else 1)
    state = invariant_state(phi, spectrum=spectrum)
    assert np.abs(np.array([p[0, 0] for p in state.rho.parts]) - pi).max() <= 1e-8
    assert state.faithful is (pad == 0)
