"""Inputs on either side of a threshold, one table per decision.

Every expected answer comes from a closed form, never from perispec itself:
a row states the input, the closed-form quantity that the decision reads, and
the outcome that quantity implies against the threshold."""

import math

import numpy as np
import pytest

from perispec import (
    BlockAlgebra,
    CaseII,
    NoPositiveFixedState,
    ProjectionMismatch,
    Superoperator,
    Tolerances,
    build_example2,
    classify_eigenvector,
    complete_positivity,
    element_norm,
    invariant_state,
    max_norm,
    point_spectrum,
    randomized_positivity_falsifier,
)
from perispec import superop
from perispec.superop import MERGE_TOL, PERIPHERAL_TOL

from conftest import map_from_choi, mixed_unitary_choi, rng_for, route_calls

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


# diag(1, 1 - delta, 1/2, ..., 1/2) on d 1x1 blocks, d above the size floor
# of the spectral-gap certificate. Its two largest singular values multiply
# to s1 s2 = 1 - delta, so the certificate, s1 s2 < (1 - PERIPHERAL_TOL)^2,
# holds exactly when delta exceeds about 2 PERIPHERAL_TOL; its rounding
# allowance, under 1e-12 here, moves no row. Certified or not, 1 - delta is
# peripheral only for delta <= PERIPHERAL_TOL, so the spectrum is the point
# 1 with basis e0 on every row but the last. At delta = 5e-8 the eig route
# folds 1 - delta into that point, which is not asserted to be right.
_DIAGONAL_DIM = 40


def _diagonal_map(*head: float) -> Superoperator:
    values = np.full(_DIAGONAL_DIM, 0.5)
    values[: len(head)] = head
    return Superoperator(BlockAlgebra((1,) * _DIAGONAL_DIM), np.diag(values))


def _eig_route(monkeypatch, phi, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(superop, "_CERTIFICATE_MIN_DIM", math.inf)
        return point_spectrum(phi, **kwargs)


def _assert_same_points(spectrum, reference):
    assert spectrum.dimensions == reference.dimensions
    for value, want in zip(spectrum.values, reference.values):
        assert abs(value - want) <= 1e-12


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 3e-7, 1.5e-7, 5e-8])
def test_gap_certificate_holds_exactly_when_one_minus_delta_is_below_the_target(
    delta, monkeypatch
):
    assert _DIAGONAL_DIM >= superop._CERTIFICATE_MIN_DIM
    phi = _diagonal_map(1.0, 1.0 - delta)
    certified = 1.0 - delta < (1.0 - PERIPHERAL_TOL) ** 2
    calls = route_calls(monkeypatch)
    spectrum = point_spectrum(phi)
    assert ("general_eig" not in calls) is certified
    assert "eigvalsh" in calls
    _assert_same_points(spectrum, _eig_route(monkeypatch, phi))
    if delta > PERIPHERAL_TOL:
        assert spectrum.dimensions == (1,) and abs(spectrum.values[0] - 1.0) <= 1e-12
        e0 = np.abs([p[0, 0] for p in spectrum.points[0].basis[0].parts])
        assert np.abs(e0 - np.eye(_DIAGONAL_DIM)[0]).max() <= 1e-12


def test_gap_certificate_declines_a_non_normal_map_with_a_gap(monkeypatch):
    # V diag(1, 1/2, 1/4, 1/2, 1/4, 1/8, ...) V^-1 with V the identity plus
    # 40 at (1, 2) and (3, 4): each pair becomes the block [[a, 40 (b - a)],
    # [0, b]] with a = 1/2, b = 1/4, whose largest singular value is at least
    # 40 |b - a| = 10. So s1 s2 >= 100 although every eigenvalue but 1 has
    # modulus at most 1/2, and the eig route runs.
    values = np.full(_DIAGONAL_DIM, 0.125)
    values[:5] = [1.0, 0.5, 0.25, 0.5, 0.25]
    v = np.eye(_DIAGONAL_DIM)
    v[1, 2] = v[3, 4] = 40.0
    m = v @ np.diag(values) @ np.linalg.inv(v)
    assert np.linalg.svd(m, compute_uv=False)[1] >= 10.0
    phi = Superoperator(BlockAlgebra((1,) * _DIAGONAL_DIM), m)
    calls = route_calls(monkeypatch)
    spectrum = point_spectrum(phi)
    assert "general_eig" in calls
    assert spectrum.dimensions == (1,) and abs(spectrum.values[0] - 1.0) <= 1e-12


def test_gap_certificate_falls_back_when_the_one_large_eigenvalue_is_minus_one(
    monkeypatch,
):
    # diag(-1, 1/2, ...): s1 s2 = 1/2 certifies, but the kernel at 1 is empty,
    # so the eig route runs and finds the point -1
    phi = _diagonal_map(-1.0)
    calls = route_calls(monkeypatch)
    spectrum = point_spectrum(phi)
    assert "eigvalsh" in calls and "general_eig" in calls
    assert spectrum.dimensions == (1,) and spectrum.values == (-1.0,)


def test_gap_certificate_never_applies_at_a_peripheral_tol_of_one_or_more(monkeypatch):
    # at peripheral_tol = 2 the target (1 - 2)^2 clipped to 0 is met by every
    # map, so the early exit fires; every eigenvalue of modulus at most 3 is
    # peripheral: 1, 1 - 1e-3, and the 38 copies of 1/2 merged into one point
    phi = _diagonal_map(1.0, 1.0 - 1e-3)
    calls = route_calls(monkeypatch)
    spectrum = point_spectrum(phi, peripheral_tol=2.0)
    assert "eigvalsh" not in calls and "general_eig" in calls
    assert spectrum.dimensions == (_DIAGONAL_DIM - 2, 1, 1)
    _assert_same_points(spectrum, _eig_route(monkeypatch, phi, peripheral_tol=2.0))


# A seeded channel on M8 (Choi side 64) whose Choi matrix C, of rank 3, gets
# -delta v v* for a unit vector v with C v = 0: v is an eigenvector of
# C - delta v v* at -delta, and every other eigenvalue is one of C's, >= 0.
# So the least Choi eigenvalue is exactly -delta.
def _planted_channel(delta: float) -> Superoperator:
    rng = rng_for(48)
    choi = mixed_unitary_choi(rng, 8)
    q = np.linalg.eigh(choi)[1][:, -3:]
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v -= q @ (q.conj().T @ v)
    v /= np.linalg.norm(v)
    return map_from_choi(choi - delta * np.outer(v, v.conj()))


# delta = 1e-9 is left out: its least eigenvalue, -1e-9, sits on psd_tol.
@pytest.mark.parametrize("delta", [1e-6, 1e-8, 2e-9, 5e-10, 1e-10])
def test_planted_choi_margin_is_cp_exactly_when_delta_is_within_psd_tol(delta):
    tol = Tolerances()
    _, least, completely_positive, _ = complete_positivity(_planted_channel(delta), tol)
    assert abs(least - (-delta)) <= 1e-12
    assert completely_positive is (delta <= tol.psd_tol)


def test_a_channel_mixed_with_the_trace_map_has_least_choi_eigenvalue_one_eightieth():
    # x -> tr(x) 1/8 has Choi matrix 1/8, so 0.9 C + 0.1 (1/8) has full rank
    # and its least eigenvalue, where C vanishes, is 0.1 / 8
    choi = 0.9 * mixed_unitary_choi(rng_for(48), 8) + 0.1 / 8 * np.eye(64)
    _, least, completely_positive, certified = complete_positivity(map_from_choi(choi))
    assert abs(least - 0.1 / 8) <= 1e-12
    assert completely_positive and not certified


# (1 + delta) times a seeded unital, trace-preserving channel on M8: the map
# fixes 1 and its dual fixes the maximally mixed state m up to the factor
# 1 + delta, so each candidate's residual under the kernel rule is exactly
# delta. The rule's bound is rank_tol times the largest column norm of
# a - id, a = the map's real form R for the identity and R^T for the dual;
# the rows sit at half and at twice the unscaled bound. The certificate
# holds on every row (s1 s2 <= (1 + 2e-8) 0.935), and 1 + delta is within
# merge_tol of 1, so the spectrum has its point at 1 on both sides.
def _scaled_channel(delta: float) -> Superoperator:
    return map_from_choi((1.0 + delta) * mixed_unitary_choi(rng_for(63), 8))


def _rule_bound(phi: Superoperator, tol: Tolerances, axis: int) -> float:
    # axis 0: the columns of R - id; axis 1: its rows, the columns of R^T - id
    real = phi.hermitian_form[0]
    return tol.rank_tol * float(np.linalg.norm(real - np.eye(len(real)), axis=axis).max())


def _state_or_error(phi, tol, spectrum):
    try:
        return invariant_state(phi, tol, spectrum)
    except NoPositiveFixedState as exc:
        return exc


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_dual_takes_the_mixed_state_exactly_when_its_residual_is_within_the_rule(
    ratio, monkeypatch
):
    tol = Tolerances()
    delta = ratio * _rule_bound(_scaled_channel(0.0), tol, axis=1)
    phi = _scaled_channel(delta)
    taken = delta <= _rule_bound(phi, tol, axis=1)
    assert taken is (ratio < 1.0)
    spectrum = point_spectrum(phi, tol)
    assert spectrum.dimensions == (1,) and abs(spectrum.values[0] - 1.0) <= 1e-7
    searches = []
    fixed_space = superop._fixed_space
    monkeypatch.setattr(
        superop, "_fixed_space", lambda *args: searches.append(1) or fixed_space(*args)
    )
    state = _state_or_error(phi, tol, spectrum)
    assert (searches == []) is taken
    monkeypatch.setattr(superop, "_passes_kernel_rule", lambda *args: False)
    reference = _state_or_error(phi, tol, spectrum)
    assert type(state) is type(reference)
    if taken:
        # the search keeps m's direction too: its singular value is delta
        assert element_norm(state.rho - reference.rho) <= tol.eq_tol
        assert max_norm(state.rho.parts[0] - np.eye(8) / 8) <= 1e-15
    else:
        # and above the bound it keeps nothing
        assert isinstance(state, NoPositiveFixedState)
        assert str(state) == str(reference) == "the dual map has no fixed point"


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_point_spectrum_takes_the_identity_exactly_when_its_residual_is_within_the_rule(
    ratio, monkeypatch
):
    tol = Tolerances()
    delta = ratio * _rule_bound(_scaled_channel(0.0), tol, axis=0)
    phi = _scaled_channel(delta)
    taken = delta <= _rule_bound(phi, tol, axis=0)
    assert taken is (ratio < 1.0)
    calls = route_calls(monkeypatch)
    spectrum = point_spectrum(phi, tol)
    # declined, the search finds no kernel and the eig route runs
    assert ("solve" not in calls and "general_eig" not in calls) is taken
    assert ("solve" in calls and "general_eig" in calls) is not taken
    (value,) = spectrum.values
    assert abs(value - (1.0 + delta)) <= 1e-12
