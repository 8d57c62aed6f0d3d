"""Acceptance criteria, runnable from the CLI and from the test suite.

Each criterion is a function returning a :class:`CriterionResult`; thresholds
are part of the acceptance contract and are hard-coded here rather than
derived from the caller's tolerances. All sampling derives from the given
seed, so two runs with the same seed and sample count agree exactly.
"""

from __future__ import annotations

import cmath
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    BlockAlgebra,
    Tolerances,
    adjoint,
    element_norm,
    hermitian_eig,
    max_norm,
)
from .errors import PerispecError
from .positivity import (
    Block2Matrix,
    assemble,
    complete_positivity,
    congruence,
    corner_swap,
    criterion_commuting,
    criterion_epsilon,
    criterion_epsilon_prime,
    offdiag_swap_under_hypotheses,
    oracle_psd,
    randomized_positivity_falsifier,
)
from .presets import (
    build_example1,
    build_example1_continuous,
    build_example2,
    build_example2_continuous,
)
from .structure import (
    CaseII,
    case_tag,
    classify_eigenvector,
    normalize_eigenvector,
    reconstruct,
)
from .superop import (
    continuous_eigen_check,
    ergodicity_check,
    group_closure_report,
    invariant_state,
    jordan_closure_check,
    point_spectrum,
    semigroup_law_check,
    star_closure_check,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

GENERIC_LAMBDA = cmath.exp(2j * cmath.pi / 5)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: dict


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _near(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(complex(a) - complex(b)) <= tol


def criterion_01(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Generic single-block family: three-point spectrum, no group closure."""
    lam = GENERIC_LAMBDA
    phi, _ = build_example1(lam)
    spectrum = point_spectrum(phi, tol)
    values = spectrum.values
    expected = sorted([1.0 + 0.0j, lam, lam.conjugate()], key=lambda z: (z.real, z.imag))
    spectrum_ok = len(values) == 3 and all(
        _near(v, e) for v, e in zip(values, expected)
    )
    dims_ok = spectrum.dimensions == (1, 1, 1)
    closure = group_closure_report(spectrum)
    missing_has_square = any(
        _near(l, lam) and _near(m, lam) and _near(p, lam * lam)
        for l, m, p in closure.missing
    )
    passed = spectrum_ok and dims_ok and (not closure.is_group) and missing_has_square
    return CriterionResult(
        "c01",
        "generic single-block spectrum {1, lam, conj(lam)} is not a group",
        passed,
        {
            "spectrum": [[v.real, v.imag] for v in values],
            "dimensions": list(spectrum.dimensions),
            "is_group": closure.is_group,
            "missing_count": len(closure.missing),
            "missing_contains_lambda_squared": missing_has_square,
        },
    )


def criterion_02(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """At lam = -1 the two rotation sectors merge into a 2-dim eigenspace."""
    phi, _ = build_example1(-1.0 + 0.0j)
    spectrum = point_spectrum(phi, tol)
    point = spectrum.find(-1.0 + 0.0j)
    if point is None:
        return CriterionResult(
            "c02", "merged eigenspace at -1 is two-dimensional", False,
            {"error": "-1 not in spectrum"},
        )
    two_points = (
        len(spectrum.points) == 2 and spectrum.find(1.0 + 0.0j) is not None
    )
    dims_ok = two_points and point.dimension == 2
    diag_leak = 0.0
    coeffs = np.zeros((2, 2), dtype=np.complex128)
    for row, x in enumerate(point.basis[:2]):
        block = x.parts[0]
        diag_leak = max(diag_leak, abs(block[0, 0]), abs(block[1, 1]))
        coeffs[row, 0] = block[0, 1]
        coeffs[row, 1] = block[1, 0]
    smin = float(np.linalg.svd(coeffs, compute_uv=False)[-1]) if dims_ok else 0.0
    passed = dims_ok and diag_leak <= 1e-9 and smin >= 1.0 - 1e-6
    return CriterionResult(
        "c02",
        "merged eigenspace at -1 is two-dimensional and spans the off-diagonal",
        passed,
        {
            "dimension": point.dimension,
            "diagonal_leak": diag_leak,
            "offdiag_min_singular_value": smin,
        },
    )


def criterion_03(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Eight angles: ergodic, maximally mixed invariant state, positive by
    sampling, never completely positive (Choi minimum -1/2)."""
    worst = {
        "state_deviation": 0.0,
        "falsifier_min": np.inf,
        "choi_deviation": 0.0,
    }
    all_ergodic = True
    all_faithful = True
    mixed = BlockAlgebra((2,)).element([np.eye(2) / 2.0])
    for k in range(1, 9):
        lam = cmath.exp(2j * cmath.pi * k / 9.0)
        phi, _ = build_example1(lam)
        all_ergodic = all_ergodic and ergodicity_check(phi, tol)
        state = invariant_state(phi, tol)
        all_faithful = all_faithful and state.faithful
        worst["state_deviation"] = max(
            worst["state_deviation"],
            element_norm(state.rho - mixed),
        )
        falsifier = randomized_positivity_falsifier(phi, samples, seed, tol)
        worst["falsifier_min"] = min(worst["falsifier_min"], falsifier.min_output_eig)
        _, least, _ = complete_positivity(phi, tol)
        worst["choi_deviation"] = max(worst["choi_deviation"], abs(least - (-0.5)))
    passed = (
        all_ergodic
        and all_faithful
        and worst["state_deviation"] <= 1e-9
        and worst["falsifier_min"] >= -1e-9
        and worst["choi_deviation"] <= 1e-9
    )
    return CriterionResult(
        "c03",
        "eight-angle grid: ergodic, mixed invariant state, positive but not CP",
        passed,
        {
            "angles": 8,
            "samples_per_angle": samples,
            "ergodic": all_ergodic,
            "faithful": all_faithful,
            "max_state_deviation": worst["state_deviation"],
            "min_falsifier_eig": float(worst["falsifier_min"]),
            "max_choi_min_eig_deviation_from_minus_half": worst["choi_deviation"],
        },
    )


def criterion_04(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Generic two-block family: six-point non-group spectrum with unitary
    and square-zero eigenvector shapes."""
    lam = GENERIC_LAMBDA
    phi, manifest = build_example2(lam)
    spectrum = point_spectrum(phi, tol)
    six_ok = len(spectrum.values) == 6 and spectrum.dimensions == (1,) * 6
    match_ok = all(
        spectrum.find(v) is not None for v in manifest.expected_spectrum
    )
    closure = group_closure_report(spectrum)
    tags = {}
    for target, expected_tag in ((-1.0 + 0.0j, "III"), (lam, "I")):
        point = spectrum.find(target)
        if point is None:
            tags[str(expected_tag)] = "missing"
            continue
        result = classify_eigenvector(phi, point.value, point.basis[0], tol)
        tags[expected_tag] = case_tag(result)
    passed = (
        six_ok
        and match_ok
        and not closure.is_group
        and tags.get("III") == "III"
        and tags.get("I") == "I"
    )
    return CriterionResult(
        "c04",
        "generic two-block spectrum has six points, no group, cases III and I",
        passed,
        {
            "spectrum": [[v.real, v.imag] for v in spectrum.values],
            "dimensions": list(spectrum.dimensions),
            "is_group": closure.is_group,
            "case_at_minus_one": tags.get("III"),
            "case_at_lambda": tags.get("I"),
        },
    )


def criterion_05(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Merged two-block family at lam = i: group spectrum, two-dimensional
    eigenspaces, exact two-coefficient split."""
    phi, manifest = build_example2(1j)
    spectrum = point_spectrum(phi, tol)
    expected_values = [1.0 + 0.0j, -1.0 + 0.0j, 1j, -1j]
    group_ok = (
        len(spectrum.values) == 4
        and all(spectrum.find(v) is not None for v in expected_values)
        and group_closure_report(spectrum).is_group
    )
    pt_i = spectrum.find(1j)
    pt_mi = spectrum.find(-1j)
    dims_ok = pt_i is not None and pt_mi is not None and pt_i.dimension == 2 and pt_mi.dimension == 2
    index_i = next(
        k for k, v in enumerate(manifest.expected_spectrum) if _near(v, 1j)
    )
    v1, v2 = manifest.canonical_eigenvectors[index_i]
    combo = 0.6 * v1 + 0.8 * v2
    result = classify_eigenvector(phi, 1j, combo, tol)
    split_ok = isinstance(result, CaseII)
    theta_dev = z_dev = np.inf
    if isinstance(result, CaseII):
        theta_dev = abs(result.theta - 0.2304)
        xhat = normalize_eigenvector(phi, 1j, combo, tol)
        z = adjoint(xhat) @ xhat
        eigs = np.concatenate([hermitian_eig(p, tol)[0] for p in z.parts])
        z_dev = max(
            float(min(abs(e - 0.36), abs(e - 0.64))) for e in eigs
        )
        has_both = any(abs(e - 0.36) <= 1e-9 for e in eigs) and any(
            abs(e - 0.64) <= 1e-9 for e in eigs
        )
        split_ok = split_ok and has_both
    equal_combo = (1.0 / np.sqrt(2.0)) * (v1 + v2)
    equal_tag = case_tag(classify_eigenvector(phi, 1j, equal_combo, tol))
    passed = (
        group_ok
        and dims_ok
        and split_ok
        and theta_dev <= 1e-9
        and z_dev <= 1e-9
        and equal_tag == "III"
    )
    return CriterionResult(
        "c05",
        "merged spectrum {1,-1,i,-i} is a group; split eigenvector has "
        "theta = 0.2304 and z spectrum {0.36, 0.64}",
        passed,
        {
            "is_group": group_ok,
            "dimensions_at_i_minus_i": [
                pt_i.dimension if pt_i else 0,
                pt_mi.dimension if pt_mi else 0,
            ],
            "theta_deviation": float(theta_dev),
            "z_spectrum_deviation": float(z_dev),
            "equal_combination_case": equal_tag,
        },
    )


def criterion_06(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Criterion/oracle agreement on seeded block matrices."""
    crit_tol = Tolerances(eq_tol=1e-9, rank_tol=1e-8, psd_tol=1e-8)
    rng = _rng(seed, 6)
    disagreements = 0
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        g = _random_complex(rng, 2 * n, 2 * n)
        matrix = g @ g.conj().T
        if trial % 2 == 1:
            w = np.linalg.eigvalsh(matrix)
            shift = float(w[0]) + 0.1 * max(1.0, float(w[-1]))
            matrix = matrix - shift * np.eye(2 * n)
        m = Block2Matrix(
            matrix[:n, :n], matrix[:n, n:], matrix[n:, :n], matrix[n:, n:]
        )
        reference = oracle_psd(assemble(m), crit_tol).is_psd
        if criterion_epsilon(m, tol=crit_tol).is_psd != reference:
            disagreements += 1
        if criterion_epsilon_prime(m, tol=crit_tol).is_psd != reference:
            disagreements += 1
    commuting_disagreements = 0
    for trial in range(500):
        n = int(rng.integers(1, 5))
        a = 0.1 + np.abs(_random_complex(rng, n)) ** 2
        d = 0.1 + np.abs(_random_complex(rng, n)) ** 2
        # keep |b|^2 / (a d) away from 1 so verdicts are never borderline
        ratio = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 0.9, n),
                         rng.uniform(1.1, 1.5, n))
        phases = np.exp(2j * np.pi * rng.random(n))
        b = phases * np.sqrt(ratio * a * d)
        m = Block2Matrix(np.diag(a), np.diag(b), np.diag(b.conj()), np.diag(d))
        reference = oracle_psd(assemble(m), crit_tol).is_psd
        if criterion_commuting(m, crit_tol).is_psd != reference:
            commuting_disagreements += 1
    passed = disagreements == 0 and commuting_disagreements == 0
    return CriterionResult(
        "c06",
        "Schur criteria agree with the eigenvalue oracle on 1000 seeded "
        "instances, commuting criterion on 500 diagonal ones",
        passed,
        {
            "schur_disagreements": disagreements,
            "commuting_disagreements": commuting_disagreements,
        },
    )


def criterion_07(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Positivity-preserving transformations keep seeded PSD inputs PSD."""
    rng = _rng(seed, 7)
    worst = {"corner": np.inf, "congruence": np.inf, "offdiag": np.inf}
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        g = _random_complex(rng, 2 * n, 2 * n)
        matrix = g @ g.conj().T
        m = Block2Matrix(
            matrix[:n, :n], matrix[:n, n:], matrix[n:, :n], matrix[n:, n:]
        )
        w = np.linalg.eigvalsh(assemble(corner_swap(m)))
        worst["corner"] = min(worst["corner"], float(w[0]))
        x = _random_complex(rng, n, n)
        y = _random_complex(rng, n, n)
        squeezed = assemble(congruence(m, x, y))
        w = np.linalg.eigvalsh(0.5 * (squeezed + squeezed.conj().T))
        worst["congruence"] = min(worst["congruence"], float(w[0]))
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        v, _ = np.linalg.qr(_random_complex(rng, n, n))
        p = rng.uniform(0.1, 2.0, n)
        q = rng.uniform(0.1, 2.0, n)
        z = (
            np.exp(2j * np.pi * rng.random(n))
            * np.sqrt(p * q)
            * rng.uniform(0.0, 0.9, n)
        )
        m = Block2Matrix(
            v @ np.diag(p) @ v.conj().T,
            v @ np.diag(z) @ v.conj().T,
            v @ np.diag(z.conj()) @ v.conj().T,
            v @ np.diag(q) @ v.conj().T,
        )
        swapped = offdiag_swap_under_hypotheses(m, tol)
        w = np.linalg.eigvalsh(assemble(swapped))
        worst["offdiag"] = min(worst["offdiag"], float(w[0]))
    passed = all(v >= -1e-9 for v in worst.values())
    return CriterionResult(
        "c07",
        "corner swap, congruence, and hypothesis-guarded off-diagonal swap "
        "preserve positivity on 1000 seeded instances each",
        passed,
        {k: float(v) for k, v in worst.items()},
    )


def criterion_08(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Eigenspaces closed under the adjoint and the symmetrized product."""
    cases = [
        build_example1(GENERIC_LAMBDA)[0],
        build_example1(-1.0 + 0.0j)[0],
        build_example2(GENERIC_LAMBDA)[0],
        build_example2(1j)[0],
    ]
    worst_star = worst_jordan = 0.0
    for phi in cases:
        spectrum = point_spectrum(phi, tol)
        worst_star = max(
            worst_star, star_closure_check(phi, spectrum).max_residual
        )
        worst_jordan = max(
            worst_jordan, jordan_closure_check(phi, spectrum, tol).max_residual
        )
    passed = worst_star <= 1e-9 and worst_jordan <= 1e-9
    return CriterionResult(
        "c08",
        "star and symmetrized-product closure of eigenspaces on both families",
        passed,
        {"star_max_residual": worst_star, "jordan_max_residual": worst_jordan},
    )


def criterion_09(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Continuous families: semigroup law, eigenvector winding, agreement
    with the single maps at t = 1."""
    rng = _rng(seed, 9)
    pairs = [(float(s), float(t)) for s, t in rng.uniform(0.01, 5.0, size=(20, 2))]
    ts = [float(v) for v in rng.uniform(0.01, 5.0, size=10)]
    lam = GENERIC_LAMBDA
    configs = [
        (build_example1_continuous(lam), *build_example1(lam)),
        (build_example2_continuous(lam), *build_example2(lam)),
    ]
    worst_law = worst_eigen = worst_t1 = 0.0
    for family, phi, manifest in configs:
        worst_law = max(worst_law, semigroup_law_check(family, pairs))
        worst_t1 = max(worst_t1, max_norm(family.builder(1.0).matrix - phi.matrix))
        for value, basis, phases in zip(
            manifest.expected_spectrum,
            manifest.canonical_eigenvectors,
            manifest.continuous_phases,
        ):
            for x, phase in zip(basis, phases):
                worst_eigen = max(
                    worst_eigen,
                    continuous_eigen_check(family, value, x, ts, phase=phase),
                )
    passed = worst_law <= 1e-10 and worst_eigen <= 1e-10 and worst_t1 <= 1e-12
    return CriterionResult(
        "c09",
        "semigroup law, eigenvector winding on a sampled t grid, and exact "
        "t = 1 snapshots for both continuous families",
        passed,
        {
            "semigroup_max_residual": worst_law,
            "eigen_max_residual": worst_eigen,
            "t1_max_residual": worst_t1,
            "pairs": len(pairs),
            "t_grid": len(ts),
        },
    )


def criterion_10(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Classification round trips, and byte-identical CLI reports."""
    from . import cli

    worst_roundtrip = 0.0
    failures = []
    regimes = [
        ("ex1-generic",) + build_example1(GENERIC_LAMBDA),
        ("ex1-merged",) + build_example1(-1.0 + 0.0j),
        ("ex2-generic", *build_example2(GENERIC_LAMBDA)),
        ("ex2-merged", *build_example2(1j)),
    ]
    for name, phi, manifest in regimes:
        spectrum = point_spectrum(phi, tol)
        candidates = []
        for value, basis in zip(
            manifest.expected_spectrum, manifest.canonical_eigenvectors
        ):
            candidates.extend((value, x) for x in basis)
        for point in spectrum.points:
            candidates.extend((point.value, x) for x in point.basis)
        for value, x in candidates:
            try:
                rebuilt = reconstruct(classify_eigenvector(phi, value, x, tol))
                residual = element_norm(
                    rebuilt - normalize_eigenvector(phi, value, x, tol)
                )
                worst_roundtrip = max(worst_roundtrip, residual)
            except PerispecError as exc:
                failures.append(f"{name} at {value:.4g}: {type(exc).__name__}")
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        runs = [
            (
                "ex1.json",
                {"map": {"preset": {"name": "ex1",
                                    "lambda0": [GENERIC_LAMBDA.real,
                                                GENERIC_LAMBDA.imag]}}},
                ["analyze"],
            ),
            (
                "ex2c.json",
                {"map": {"preset": {"name": "ex2c", "lambda0": [0.0, 1.0]}}},
                ["analyze"],
            ),
        ]
        from .mapfile import dump_json

        for filename, document, command in runs:
            mappath = tmpdir / filename
            mappath.write_text(dump_json(document))
            outputs = []
            for attempt in range(2):
                outpath = tmpdir / f"{filename}.{attempt}.report"
                code = cli.main(
                    command
                    + [
                        str(mappath),
                        "--seed",
                        str(seed),
                        "--samples",
                        str(min(samples, 2000)),
                        "--out",
                        str(outpath),
                    ]
                )
                if code != 0:
                    identical = False
                    failures.append(f"cli exit {code} on {filename}")
                    break
                outputs.append(outpath.read_bytes())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                identical = False
                failures.append(f"reports differ on {filename}")
    passed = worst_roundtrip <= 1e-9 and not failures and identical
    return CriterionResult(
        "c10",
        "classification round trips on every example eigenvector; CLI reports "
        "are byte-identical across runs",
        passed,
        {
            "max_roundtrip_residual": worst_roundtrip,
            "failures": failures,
            "reports_identical": identical,
        },
    )


CRITERIA: tuple[tuple[str, Callable[[int, int, Tolerances], CriterionResult]], ...] = (
    ("c01", criterion_01),
    ("c02", criterion_02),
    ("c03", criterion_03),
    ("c04", criterion_04),
    ("c05", criterion_05),
    ("c06", criterion_06),
    ("c07", criterion_07),
    ("c08", criterion_08),
    ("c09", criterion_09),
    ("c10", criterion_10),
)


def run_all(
    seed: int = 42, samples: int = 10000, tol: Tolerances = DEFAULT_TOL
) -> list[CriterionResult]:
    results = []
    for cid, func in CRITERIA:
        try:
            results.append(func(seed, samples, tol))
        except Exception as exc:  # a crashed criterion is a failed criterion
            results.append(
                CriterionResult(
                    cid,
                    func.__doc__.splitlines()[0] if func.__doc__ else cid,
                    False,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return results
