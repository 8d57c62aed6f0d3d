"""Eigenvector shapes: normalization, three-way classification, round trips."""

import dataclasses
import math

import numpy as np
import pytest

from perispec import (
    AlgebraElement,
    BlockAlgebra,
    CaseI,
    CaseII,
    CaseIII,
    DimensionMismatch,
    InvariantViolated,
    NotEigenvector,
    NotScalarCombination,
    PerispecError,
    ProjectionMismatch,
    SplitNotEigen,
    Superoperator,
    ThetaOutOfRange,
    adjoint,
    apply,
    build_example1,
    build_example1_continuous,
    build_example2,
    build_example2_continuous,
    case_tag,
    classify_eigenvector,
    classify_eigenvectors,
    element_norm,
    hermitian_eig,
    max_norm,
    normalize_eigenvector,
    point_spectrum,
    reconstruct,
    scalar_multiple_of_identity,
    vectorize,
)
from perispec import structure

from conftest import from_action, random_complex, random_element, random_unitary, rng_for

GENERIC = np.exp(2j * np.pi / 5)


def _mat2_element(entries):
    return BlockAlgebra((2,)).element([np.array(entries, dtype=complex)])


def test_normalize_rescales_partial_isometries(tol):
    phi, _ = build_example1(GENERIC)
    x = _mat2_element([[0.0, 3.0], [0.0, 0.0]])
    xhat = normalize_eigenvector(phi, GENERIC, x, tol)
    assert element_norm(xhat - _mat2_element([[0.0, 1.0], [0.0, 0.0]])) < 1e-12


def test_normalize_rescales_unitaries(tol):
    phi, _ = build_example1(GENERIC)
    x = _mat2_element([[1.0, 0.0], [0.0, 1.0]])
    xhat = normalize_eigenvector(phi, 1.0, x, tol)
    combined = xhat @ adjoint(xhat) + adjoint(xhat) @ xhat
    assert element_norm(combined - xhat.algebra.identity()) < 1e-12


def test_normalize_rejects_non_eigenvectors(tol):
    phi, _ = build_example1(GENERIC)
    with pytest.raises(NotEigenvector):
        normalize_eigenvector(phi, GENERIC, _mat2_element([[1, 0], [0, 0]]), tol)
    with pytest.raises(NotEigenvector):
        normalize_eigenvector(phi, GENERIC, _mat2_element([[0, 0], [0, 0]]), tol)


def test_normalize_rejects_non_scalar_combinations(tol):
    algebra = BlockAlgebra((2,))
    ident = Superoperator(algebra, np.eye(algebra.dim))
    # every element is fixed, but x x* + x* x is not scalar for a projection
    with pytest.raises(NotScalarCombination):
        normalize_eigenvector(ident, 1.0, _mat2_element([[1, 0], [0, 0]]), tol)


def _manifest_cases():
    cases = []
    for name, built in (
        ("ex1-generic", build_example1(GENERIC)),
        ("ex1-merged", build_example1(-1.0 + 0.0j)),
        ("ex2-generic", build_example2(GENERIC)),
        ("ex2-merged", build_example2(1j)),
    ):
        phi, manifest = built
        for value, tags, basis in zip(
            manifest.expected_spectrum,
            manifest.expected_classifications,
            manifest.canonical_eigenvectors,
        ):
            for tag, x in zip(tags, basis):
                cases.append(
                    pytest.param(phi, value, x, tag, id=f"{name}-{value:.2g}-{tag}")
                )
    return cases


@pytest.mark.parametrize("phi,value,x,expected_tag", _manifest_cases())
def test_canonical_eigenvectors_classify_as_documented(phi, value, x, expected_tag, tol):
    result = classify_eigenvector(phi, value, x, tol)
    assert case_tag(result) == expected_tag


@pytest.mark.parametrize("phi,value,x,expected_tag", _manifest_cases())
def test_classification_round_trips_to_the_normalized_vector(
    phi, value, x, expected_tag, tol
):
    rebuilt = reconstruct(classify_eigenvector(phi, value, x, tol))
    xhat = normalize_eigenvector(phi, value, x, tol)
    assert element_norm(rebuilt - xhat) < 1e-12


def test_case1_shape_on_nilpotent_eigenvector(tol):
    phi, _ = build_example1(GENERIC)
    result = classify_eigenvector(phi, GENERIC, _mat2_element([[0, 5], [0, 0]]), tol)
    assert isinstance(result, CaseI)
    e = result.e
    assert element_norm(e @ e - e) < 1e-12
    assert element_norm(adjoint(e) - e) < 1e-12
    assert np.allclose(e.parts[0], [[0, 0], [0, 1]], atol=1e-12)
    v = result.v
    assert element_norm(adjoint(v) @ v - e) < 1e-12
    assert element_norm(v @ adjoint(v) - (e.algebra.identity() - e)) < 1e-12


def test_case2_shape_on_two_coefficient_combination(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    result = classify_eigenvector(phi, 1j, 0.6 * v1 + 0.8 * v2, tol)
    assert isinstance(result, CaseII)
    assert result.alpha1 == pytest.approx(0.6, abs=1e-12)
    assert result.alpha2 == pytest.approx(0.8, abs=1e-12)
    assert result.theta == pytest.approx(0.2304, abs=1e-12)
    assert result.alpha1**2 + result.alpha2**2 == pytest.approx(1.0, abs=1e-12)
    e = result.e
    assert element_norm(e @ e - e) < 1e-12
    # the split pieces are partial isometries with complementary supports
    assert element_norm(adjoint(result.v1) @ result.v1 - e) < 1e-11
    assert element_norm(
        adjoint(result.v2) @ result.v2 - (e.algebra.identity() - e)
    ) < 1e-11
    for piece in (result.v1, result.v2):
        assert element_norm(phi(piece) - 1j * piece) < 1e-11


def test_case2_is_invariant_under_global_phase(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    x = 0.6 * v1 + 0.8 * v2
    base = classify_eigenvector(phi, 1j, x, tol)
    rotated = classify_eigenvector(phi, 1j, np.exp(0.7j) * x, tol)
    assert isinstance(base, CaseII) and isinstance(rotated, CaseII)
    assert rotated.theta == pytest.approx(base.theta, abs=1e-12)
    assert element_norm(rotated.e - base.e) < 1e-10
    assert rotated.alpha1 == pytest.approx(base.alpha1, abs=1e-12)


def test_case3_shape_on_unitary_eigenvector(tol):
    phi, _ = build_example1(GENERIC)
    result = classify_eigenvector(phi, 1.0, _mat2_element([[3, 0], [0, 3]]), tol)
    assert isinstance(result, CaseIII)
    u = result.u
    assert element_norm(u @ adjoint(u) - u.algebra.identity()) < 1e-12
    # x = scale * u recovers the original magnitude
    assert result.scale == pytest.approx(3.0, abs=1e-12)
    assert element_norm(complex(result.scale) * u - _mat2_element([[3, 0], [0, 3]])) < 1e-11


def test_case3_on_equal_weight_combination(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    result = classify_eigenvector(phi, 1j, v1 + v2, tol)
    assert isinstance(result, CaseIII)
    assert element_norm(result.u @ adjoint(result.u) - result.u.algebra.identity()) < 1e-11


def test_reconstruct_rejects_misordered_coefficients(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    result = classify_eigenvector(phi, 1j, 0.6 * v1 + 0.8 * v2, tol)
    swapped = CaseII(
        alpha1=result.alpha2,
        alpha2=result.alpha1,
        v1=result.v1,
        v2=result.v2,
        e=result.e,
        theta=result.theta,
    )
    with pytest.raises(InvariantViolated):
        reconstruct(swapped)


def test_case_tags_cover_all_three_shapes(tol):
    phi, manifest = build_example2(1j)
    tags = {t for tags in manifest.expected_classifications for t in tags}
    assert {"I", "III"} <= tags
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    combo = classify_eigenvector(phi, 1j, 0.3 * v1 + np.sqrt(0.91) * v2, tol)
    assert case_tag(combo) == "II"


# A frozen copy of the per-vector classifier that classify_eigenvectors
# replaced: each eigenvector on its own, through element arithmetic. The
# stacked classifier must give every row the same case with the same bits,
# or the same error class and message. This pins agreement with the
# per-vector code, not that its outcomes are right.


def _frozen_eigen_residual(phi, value, x):
    return element_norm(apply(phi, x) - value * x)


def _frozen_scalar_fit(x):
    c = x.trace() / x.algebra.total_size
    return c, max(max_norm(p - c * np.eye(len(p))) for p in x.parts)


def _frozen_normalized(phi, value, x, tol):
    scale = element_norm(x)
    if not scale > tol.eq_tol:
        raise NotEigenvector("the zero element cannot be normalized")
    e = math.frexp(scale)[1]
    y = x.algebra.element([np.ldexp(p.view(float), -e).view(complex) for p in x.parts])
    residual = math.ldexp(_frozen_eigen_residual(phi, value, y), e)
    if not residual <= tol.eq_tol * max(1.0, scale):
        raise NotEigenvector(
            f"residual {residual:.3e} at eigenvalue {value!r} exceeds tolerance"
        )
    c, drift = _frozen_scalar_fit(y @ adjoint(y) + adjoint(y) @ y)
    bound = tol.eq_tol * max(math.ldexp(1.0, -2 * e), abs(c))
    if not drift <= bound:
        raise NotScalarCombination(
            "x x* + x* x is not a scalar multiple of the identity"
        )
    if not (abs(c.imag) <= bound and c.real > math.ldexp(tol.eq_tol, -2 * e)):
        c = complex(math.ldexp(c.real, 2 * e), math.ldexp(c.imag, 2 * e))
        raise NotScalarCombination(
            f"x x* + x* x equals {c!r} times the identity, which is not positive"
        )
    root = math.sqrt(c.real)
    return (1.0 / root) * y, math.ldexp(root, e)


def _frozen_theta_scalar(square, tol):
    combo = square @ adjoint(square)
    theta = scalar_multiple_of_identity(combo, tol)
    if theta is None:
        raise NotScalarCombination(
            "x^2 (x*)^2 is not a scalar multiple of the identity"
        )
    if not abs(theta.imag) <= max(tol.eq_tol, 1e-12 * max(1.0, abs(theta))):
        raise ThetaOutOfRange(f"theta = {theta!r} is not real")
    value = float(theta.real)
    if not value > tol.eq_tol:
        raise ThetaOutOfRange(f"theta = {value:.3e} is not strictly positive")
    if not value <= 0.25 + structure.CASE_III_THETA_TOL:
        raise ThetaOutOfRange(f"theta = {value!r} exceeds 1/4")
    return value


def _frozen_split_parts(xhat, low, high, tol):
    gap = high - low
    window = max(1e-7 * max(1.0, high), 10.0 * tol.eq_tol)
    z = adjoint(xhat) @ xhat
    spectra = []
    for block in z.parts:
        w, v = hermitian_eig(block, tol)
        is_low = np.abs(w - low) <= window
        is_high = np.abs(w - high) <= window
        for eigenvalue, near_low, near_high in zip(w, is_low, is_high):
            if not (near_low or near_high):
                raise ProjectionMismatch(
                    f"eigenvalue {eigenvalue:.12f} of x* x is near neither "
                    f"{low:.12f} nor {high:.12f}"
                )
            if near_low and near_high:
                raise ProjectionMismatch(
                    f"cannot separate eigenvalue {eigenvalue:.12f} across gap {gap:.3e}"
                )
        spectra.append((w, v, is_low))
    seen_low = sum(int(np.count_nonzero(is_low)) for _, _, is_low in spectra)
    if seen_low in (0, xhat.algebra.total_size):
        raise ProjectionMismatch(
            "the spectrum of x* x does not split into two nonempty groups"
        )
    for w, _, _ in spectra:
        if not w[0] > tol.rank_tol:
            raise ProjectionMismatch(
                f"x* x is singular on a two-coefficient split: its smallest "
                f"eigenvalue is {w[0]:.3e}"
            )
    e, v1, v2 = [], [], []
    for x, (w, v, is_low) in zip(xhat.parts, spectra):
        lower, upper = v[:, is_low], v[:, ~is_low]
        e.append(lower @ lower.conj().T)
        v1.append(x @ (lower / np.sqrt(w[is_low])) @ lower.conj().T)
        v2.append(x @ (upper / np.sqrt(w[~is_low])) @ upper.conj().T)
    element = xhat.algebra.element
    return element(e), element(v1), element(v2)


def _frozen_check_case1(xhat, tol):
    e = adjoint(xhat) @ xhat
    one = xhat.algebra.identity()
    idem = element_norm(e @ e - e)
    if not idem <= 10.0 * tol.eq_tol:
        raise ProjectionMismatch(f"x* x is not idempotent (defect {idem:.3e})")
    complement = element_norm(xhat @ adjoint(xhat) - (one - e))
    if not complement <= 10.0 * tol.eq_tol:
        raise ProjectionMismatch(
            f"x x* deviates from 1 - x* x by {complement:.3e}"
        )
    if not (element_norm(e) > tol.eq_tol and element_norm(one - e) > tol.eq_tol):
        raise ProjectionMismatch("the initial projection is trivial")
    return CaseI(v=xhat, e=e)


def _frozen_classify(phi, value, x, tol):
    xhat, root = _frozen_normalized(phi, value, x, tol)
    square = xhat @ xhat
    if element_norm(square) <= tol.eq_tol:
        return _frozen_check_case1(xhat, tol)
    theta = _frozen_theta_scalar(square, tol)
    if abs(theta - 0.25) <= structure.CASE_III_THETA_TOL:
        u = math.sqrt(2.0) * xhat
        one = xhat.algebra.identity()
        defect = element_norm(adjoint(u) @ u - one)
        if not defect <= 10.0 * tol.eq_tol:
            raise InvariantViolated(
                f"sqrt(2) x is not unitary (defect {defect:.3e})"
            )
        return CaseIII(u=u, scale=complex(root / math.sqrt(2.0)))
    spread = math.sqrt(1.0 - 4.0 * theta)
    low = (1.0 - spread) / 2.0
    high = (1.0 + spread) / 2.0
    e, v1, v2 = _frozen_split_parts(xhat, low, high, tol)
    swap = element_norm(v1 @ adjoint(v1) - (xhat.algebra.identity() - e))
    if not swap <= 1e-7:
        raise ProjectionMismatch(
            f"the polar unitary does not exchange e with its complement "
            f"(defect {swap:.3e})"
        )
    for name, part in (("v1", v1), ("v2", v2)):
        residual = _frozen_eigen_residual(phi, value, part)
        if not residual <= max(1e-7, tol.eq_tol * max(1.0, element_norm(part))):
            raise SplitNotEigen(
                f"{name} drifts from the eigenspace by {residual:.3e}"
            )
    return CaseII(
        alpha1=math.sqrt(low),
        alpha2=math.sqrt(high),
        v1=v1,
        v2=v2,
        e=e,
        theta=theta,
    )


# A reference for the case-II split that decomposes x* x twice: once for the
# projection e, and once more for the polar unitary u of each block, with
# v1 = u e and v2 = u (1 - e). classify_eigenvector must give every input the
# same case or error class, and e, v1, v2 within 1e-14. This pins agreement
# with the two-decomposition construction, not that its outcomes are right.


def _reference_split_projection(z, low, high, tol):
    gap = high - low
    window = max(1e-7 * max(1.0, high), 10.0 * tol.eq_tol)
    parts = []
    seen_low = 0
    seen_high = 0
    for block in z.parts:
        w, v = hermitian_eig(block, tol)
        proj = np.zeros_like(block)
        for k, eigenvalue in enumerate(w):
            near_low = abs(eigenvalue - low) <= window
            near_high = abs(eigenvalue - high) <= window
            if not (near_low or near_high):
                raise ProjectionMismatch(f"eigenvalue {eigenvalue} is near neither")
            if near_low and near_high:
                raise ProjectionMismatch(f"cannot separate across gap {gap}")
            if near_low:
                seen_low += 1
                column = v[:, k : k + 1]
                proj = proj + column @ column.conj().T
            else:
                seen_high += 1
        parts.append(proj)
    if seen_low == 0 or seen_high == 0:
        raise ProjectionMismatch("the spectrum does not split")
    return z.algebra.element(parts)


def _reference_polar_unitary(x, tol):
    x = np.asarray(x, dtype=np.complex128)
    z = x.conj().T @ x
    w, v = hermitian_eig(0.5 * (z + z.conj().T), tol)
    if w[0] <= tol.rank_tol:
        raise ProjectionMismatch(f"smallest eigenvalue of x*x is {w[0]:.3e}")
    return x @ (v * (1.0 / np.sqrt(w))) @ v.conj().T


def _reference_classify(phi, value, x, tol):
    xhat, _ = _frozen_normalized(phi, value, x, tol)
    square = xhat @ xhat
    if element_norm(square) <= tol.eq_tol:
        return _frozen_check_case1(xhat, tol)
    theta = _frozen_theta_scalar(square, tol)
    if abs(theta - 0.25) <= structure.CASE_III_THETA_TOL:
        # the case-III branch never reaches the split
        return _frozen_classify(phi, value, x, tol)
    spread = np.sqrt(1.0 - 4.0 * theta)
    low = (1.0 - spread) / 2.0
    high = (1.0 + spread) / 2.0
    e = _reference_split_projection(adjoint(xhat) @ xhat, low, high, tol)
    e_perp = xhat.algebra.identity() - e
    u = xhat.algebra.element([_reference_polar_unitary(p, tol) for p in xhat.parts])
    if element_norm(u @ e @ adjoint(u) - e_perp) > 1e-7:
        raise ProjectionMismatch("the polar unitary does not exchange e")
    v1 = u @ e
    v2 = u @ e_perp
    for part in (v1, v2):
        residual = element_norm(phi(part) - value * part)
        if residual > max(1e-7, tol.eq_tol * max(1.0, element_norm(part))):
            raise SplitNotEigen(f"residual {residual}")
    return CaseII(
        alpha1=float(np.sqrt(low)),
        alpha2=float(np.sqrt(high)),
        v1=v1,
        v2=v2,
        e=e,
        theta=theta,
    )


def _outcome(classify, phi, value, x, tol):
    try:
        return classify(phi, value, x, tol)
    except PerispecError as exc:
        return type(exc)


def _assert_matches_reference(phi, value, x, tol):
    """Asserts that classify_eigenvector and the reference agree on x, and
    returns the outcome: a classification or an error class."""
    got = _outcome(classify_eigenvector, phi, value, x, tol)
    want = _outcome(_reference_classify, phi, value, x, tol)
    if isinstance(want, type):
        assert got is want
        return got
    assert case_tag(got) == case_tag(want)
    if isinstance(want, CaseII):
        assert got.alpha1 == want.alpha1 and got.alpha2 == want.alpha2
        assert got.theta == want.theta
        for name in ("e", "v1", "v2"):
            assert element_norm(getattr(got, name) - getattr(want, name)) <= 1e-14
    return got


_SIGNS = {1j: "i", -1j: "-i"}
EX2_TWO_DIMENSIONAL = [
    pytest.param(lambda0, value, id=f"lambda0={_SIGNS[lambda0]}-value={_SIGNS[value]}")
    for lambda0 in _SIGNS
    for value in _SIGNS
]


def _eigenspace_basis(lambda0, value):
    phi, manifest = build_example2(lambda0)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - value) < 1e-9
    )
    b0, b1 = manifest.canonical_eigenvectors[index]
    return phi, b0, b1


@pytest.mark.parametrize("lambda0,value", EX2_TWO_DIMENSIONAL)
def test_case2_split_matches_reference_on_seeded_combinations(lambda0, value, tol):
    phi, b0, b1 = _eigenspace_basis(lambda0, value)
    rng = rng_for(21, int(lambda0.imag > 0), int(value.imag > 0))
    tags = set()
    for _ in range(40):
        c = random_complex(rng, 2)
        outcome = _assert_matches_reference(phi, value, c[0] * b0 + c[1] * b1, tol)
        tags.add(outcome if isinstance(outcome, type) else case_tag(outcome))
    assert "II" in tags


EPSILON_LADDER = [1e-6, 1e-5, 5e-5, 1e-4, 1e-3, 2e-3, 5e-3, 1e-2]


@pytest.mark.parametrize("lambda0,value", EX2_TWO_DIMENSIONAL)
def test_case2_split_matches_reference_on_epsilon_ladders(lambda0, value, tol):
    phi, b0, b1 = _eigenspace_basis(lambda0, value)
    outcomes = []
    for eps in EPSILON_LADDER:
        for x in (b0 + eps * b1, b0 + (1.0 - eps) * b1):
            outcomes.append(_assert_matches_reference(phi, value, x, tol))
    # near b0 the modulus of x is singular: the split raises on that check
    assert ProjectionMismatch in outcomes
    assert any(isinstance(o, CaseII) for o in outcomes)


def test_case2_singular_modulus_names_the_least_eigenvalue(tol):
    phi, b0, b1 = _eigenspace_basis(1j, -1j)
    with pytest.raises(ProjectionMismatch, match="smallest eigenvalue is 1.000e-08"):
        classify_eigenvector(phi, -1j, b0 + 1e-4 * b1, tol)


@pytest.mark.parametrize("power", [-10, 1, 600, 1000])
def test_classification_is_exact_under_scaling_by_a_power_of_two(tol, power):
    """x and 2**power x classify to the same bits, up to the scale of case
    III, also where the products of 2**power x overflow."""
    for phi, manifest in (build_example1(GENERIC), build_example2(1j)):
        for value, basis in zip(manifest.expected_spectrum, manifest.canonical_eigenvectors):
            x = basis[0] + 0.5 * basis[-1]
            base = classify_eigenvector(phi, value, x, tol)
            scaled = classify_eigenvector(phi, value, math.ldexp(1.0, power) * x, tol)
            assert type(scaled) is type(base)
            for field in dataclasses.fields(base):
                got, want = getattr(scaled, field.name), getattr(base, field.name)
                if field.name == "scale":
                    assert got == math.ldexp(want.real, power)
                elif isinstance(want, float):
                    assert got == want
                else:
                    assert all(np.array_equal(p, q) for p, q in zip(got.parts, want.parts))


def _bits(value):
    """The IEEE bit patterns of a float, a complex number or an element."""
    if isinstance(value, AlgebraElement):
        return [p.view(np.uint64).tolist() for p in value.parts]
    return np.array([value], dtype=np.complex128).view(np.uint64).tolist()


def _outcome_of(classify, phi, value, x, tol):
    try:
        return classify(phi, value, x, tol)
    except PerispecError as exc:
        return exc


def _assert_same_outcome(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, PerispecError):
        assert str(got) == str(want)
        return
    for field in dataclasses.fields(want):
        assert _bits(getattr(got, field.name)) == _bits(getattr(want, field.name)), field.name


def _basis_rows(phi):
    return [(point.value, x) for point in point_spectrum(phi).points for x in point.basis]


def _scaled_rows(phi, factor):
    return [(value, factor * x) for value, x in _basis_rows(phi)]


def _shaped_rows(algebra, rng):
    """Elements that the identity map on ``algebra``, whose blocks have even
    sides, fixes: each of the three shapes, built from seeded unitaries, and
    elements that fail on the way."""

    def half(n, upper, lower):
        m = np.zeros((n, n), dtype=complex)
        m[: n // 2, n // 2 :] = upper * random_unitary(rng, n // 2)
        m[n // 2 :, : n // 2] = lower * random_unitary(rng, n // 2)
        return m

    def split(alpha1):
        return [half(n, math.sqrt(1.0 - alpha1**2), alpha1) for n in algebra.blocks]

    unitaries = [random_unitary(rng, n) / math.sqrt(2.0) for n in algebra.blocks]
    shapes = [
        split(0.6),
        split(0.3),
        [3.0 * u for u in unitaries],
        [half(n, 1.0, 0.0) for n in algebra.blocks],
        [*split(0.6)[:-1], unitaries[-1]],
        [random_complex(rng, n, n) for n in algebra.blocks],
        [np.zeros((n, n)) for n in algebra.blocks],
    ]
    return [(1.0, algebra.element(parts)) for parts in shapes]


def _reference_groups():
    """(name, map, [(value, vector), ...]) for every group of the comparison."""
    groups = []
    special = [180.0, 120.0, 240.0, 90.0, 270.0]
    generic = [72.0, 40.1, 201.3]
    for degrees in special + generic:
        lambda0 = np.exp(1j * np.deg2rad(degrees))
        builders = [build_example1] if degrees == 180.0 else [build_example1, build_example2]
        for build in builders:
            phi, _ = build(lambda0)
            groups.append((f"{build.__name__}-{degrees}", phi, _basis_rows(phi)))
    for build in (build_example1_continuous, build_example2_continuous):
        family = build(GENERIC)
        for t in (0.5, 1.7, 2.3):
            phi = family.builder(t)
            groups.append((f"{build.__name__}-t{t}", phi, _basis_rows(phi)))
    for lambda0, value in ((l, v) for l in _SIGNS for v in _SIGNS):
        phi, b0, b1 = _eigenspace_basis(lambda0, value)
        rng = rng_for(22, int(lambda0.imag > 0), int(value.imag > 0))
        combos = [c[0] * b0 + c[1] * b1 for c in (random_complex(rng, 2) for _ in range(40))]
        ladders = [
            x
            for eps in EPSILON_LADDER
            for x in (b0 + eps * b1, b0 + (1.0 - eps) * b1)
        ]
        name = f"ex2-{_SIGNS[lambda0]}-{_SIGNS[value]}"
        groups.append((f"{name}-combinations", phi, [(value, x) for x in combos]))
        groups.append((f"{name}-ladders", phi, [(value, x) for x in ladders]))
    for blocks, seed in (((2, 3), 23), ((3, 3, 2), 25)):
        algebra = BlockAlgebra(blocks)
        rng = rng_for(seed)
        u = [random_unitary(rng, n) for n in algebra.blocks]
        conjugation = from_action(
            algebra,
            lambda x, algebra=algebra, u=u: algebra.element(
                [q @ p @ q.conj().T for q, p in zip(u, x.parts)]
            ),
        )
        groups.append((f"conjugation-{blocks}", conjugation, _basis_rows(conjugation)))
    algebra = BlockAlgebra((4, 4, 2))
    identity = Superoperator(algebra, np.eye(algebra.dim))
    groups.append(("identity-4-4-2", identity, _shaped_rows(algebra, rng_for(26))))
    # the rank-one projection onto a case II element fixes it, but not the
    # parts v1 and v2 of its split
    split = _shaped_rows(algebra, rng_for(27))[0][1]
    v = vectorize(split)
    projection = Superoperator(algebra, np.outer(v, v.conj()) / np.vdot(v, v).real)
    groups.append(("projection", projection, [(1.0, split), (1.0, 2.0 * split)]))
    phi, _ = build_example2(1j)
    stray = random_element(phi.algebra, rng_for(24))
    zero = phi.algebra.element([np.zeros((2, 2)), np.zeros((2, 2))])
    groups.append(("zero-and-stray", phi, [(1j, zero), (1j, stray), (-1.0, stray)]))
    for factor in (1e200, 1e-200):
        for build, lambda0 in ((build_example1, GENERIC), (build_example2, 1j)):
            phi, _ = build(lambda0)
            groups.append((f"{build.__name__}-scaled-{factor}", phi, _scaled_rows(phi, factor)))
    return groups


REFERENCE_GROUPS = _reference_groups()


@pytest.mark.parametrize(
    "phi,rows", [pytest.param(phi, rows, id=name) for name, phi, rows in REFERENCE_GROUPS]
)
def test_stacked_classifier_matches_the_frozen_per_vector_classifier(phi, rows, tol):
    values = [value for value, _ in rows]
    outcomes = classify_eigenvectors(phi, values, np.array([vectorize(x) for _, x in rows]), tol)
    assert len(outcomes) == len(rows)
    for (value, x), got in zip(rows, outcomes):
        _assert_same_outcome(got, _outcome_of(_frozen_classify, phi, value, x, tol))
        normalized = _outcome_of(normalize_eigenvector, phi, value, x, tol)
        frozen = _outcome_of(lambda *a: _frozen_normalized(*a)[0], phi, value, x, tol)
        if isinstance(frozen, PerispecError):
            _assert_same_outcome(normalized, frozen)
        else:
            assert _bits(normalized) == _bits(frozen)


def test_the_reference_groups_reach_every_outcome(tol):
    kinds = set()
    for _, phi, rows in REFERENCE_GROUPS:
        for value, x in rows:
            outcome = _outcome_of(_frozen_classify, phi, value, x, tol)
            kinds.add(type(outcome).__name__)
    assert {
        "CaseI", "CaseII", "CaseIII", "NotEigenvector", "NotScalarCombination",
        "ThetaOutOfRange", "ProjectionMismatch", "InvariantViolated", "SplitNotEigen",
    } <= kinds


def test_shaped_rows_on_equal_blocks_reach_all_three_cases(tol):
    (_, identity, rows), = [g for g in REFERENCE_GROUPS if g[0] == "identity-4-4-2"]
    tags = [
        case_tag(o) if not isinstance(o, PerispecError) else type(o).__name__
        for o in classify_eigenvectors(
            identity, [value for value, _ in rows], np.array([vectorize(x) for _, x in rows]), tol
        )
    ]
    assert tags == [
        "II", "II", "III", "I", "NotScalarCombination", "NotScalarCombination",
        "NotEigenvector",
    ]


def _identity_rows():
    """Elements of M2 + M2 that the identity map sends to themselves, one of
    each outcome the checks before the eigen-residuals of the split can give."""
    a = 1e-5
    low = math.sqrt(0.5 - 5e-4)
    tiny = 0.9e-4

    def swap_pair(alpha1):
        alpha2 = math.sqrt(1.0 - alpha1**2)
        return np.array([[0.0, alpha2], [alpha1, 0.0]])

    unit = np.eye(2) / math.sqrt(2.0)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    rows = [
        (1.0, [e12, e12]),  # case I
        (1.0, [unit, 1j * unit]),  # case III
        (1.0, [swap_pair(0.6), swap_pair(0.6)]),  # case II
        (1.0, [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]),  # x x* + x* x not scalar
        (1.0, [unit, swap_pair(0.6)]),  # x^2 (x*)^2 not scalar
        (1.0, [swap_pair(a), swap_pair(a)]),  # theta too small
        (1.0, [swap_pair(low), swap_pair(low)]),  # near 1/4, not unitary
        (1.0, [swap_pair(tiny), swap_pair(tiny)]),  # singular x* x
        (-1.0, [unit, unit]),  # not an eigenvector at -1
        (1.0, [np.zeros((2, 2)), np.zeros((2, 2))]),  # zero
        (1j, [e12, e12]),
        (1.0, [1e200 * e12, 1e200 * e12]),
        (1.0, [1e-200 * unit, 1e-200 * unit]),
    ]
    algebra = BlockAlgebra((2, 2))
    return [(value, algebra.element(parts)) for value, parts in rows]


def test_each_row_of_a_mixed_stack_classifies_as_it_does_alone(tol):
    algebra = BlockAlgebra((2, 2))
    identity = Superoperator(algebra, np.eye(algebra.dim))
    rows = _identity_rows()
    values = [value for value, _ in rows]
    outcomes = classify_eigenvectors(
        identity, values, np.array([vectorize(x) for _, x in rows]), tol
    )
    kinds = []
    for (value, x), got in zip(rows, outcomes):
        _assert_same_outcome(got, _outcome_of(classify_eigenvector, identity, value, x, tol))
        _assert_same_outcome(got, _outcome_of(_frozen_classify, identity, value, x, tol))
        kinds.append(type(got).__name__)
    assert kinds[:10] == [
        "CaseI", "CaseIII", "CaseII", "NotScalarCombination", "NotScalarCombination",
        "ThetaOutOfRange", "InvariantViolated", "ProjectionMismatch", "NotEigenvector",
        "NotEigenvector",
    ]
    # ex2 at i: its canonical eigenvectors and computed basis, ladders,
    # combinations, zero and a stray vector, in one stack
    phi, manifest = build_example2(1j)
    canonical = [
        (value, x)
        for value, basis in zip(manifest.expected_spectrum, manifest.canonical_eigenvectors)
        for x in basis
    ]
    rows = canonical + _basis_rows(phi) + [
        row
        for name, _, group in REFERENCE_GROUPS
        if name.startswith("ex2-i-") or name == "zero-and-stray"
        for row in group
    ]
    outcomes = classify_eigenvectors(
        phi, [value for value, _ in rows], np.array([vectorize(x) for _, x in rows]), tol
    )
    assert len({type(o) for o in outcomes}) == 7
    for (value, x), got in zip(rows, outcomes):
        _assert_same_outcome(got, _outcome_of(classify_eigenvector, phi, value, x, tol))


def test_classify_eigenvectors_checks_its_input(tol):
    phi, _ = build_example1(GENERIC)
    rows = np.zeros((2, 4), dtype=complex)
    assert classify_eigenvectors(phi, [], np.zeros((0, 4)), tol) == []
    with pytest.raises(DimensionMismatch):
        classify_eigenvectors(phi, [1.0], rows, tol)
    with pytest.raises(DimensionMismatch):
        classify_eigenvectors(phi, [1.0, 1.0], rows[:, :3], tol)
    rows[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        classify_eigenvectors(phi, [1.0, 1.0], rows, tol)
    with pytest.raises(ValueError, match="finite"):
        classify_eigenvectors(phi, [1.0, np.inf], np.eye(2, 4), tol)
