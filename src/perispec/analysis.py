"""Assembly of JSON-ready analysis reports for a single map or a family.

Reports are plain dictionaries of Python scalars, lists, and dictionaries,
rendered canonically by :func:`perispec.mapfile.dump_json`. Two runs with the
same inputs, seed, and sample count produce byte-identical documents.
Verdicts that rest on sampling or on a finite regularization schedule say so
in a ``method`` field instead of overclaiming.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .algebra import DEFAULT_TOL, Tolerances, max_norm
from .errors import MultiBlockUnsupported, PerispecError
from .mapfile import complex_to_pair, element_to_json
from .positivity import complete_positivity, randomized_positivity_falsifier
from .presets import ExampleManifest
from .structure import (
    CaseI,
    CaseII,
    CaseIII,
    Classification,
    case_tag,
    classify_eigenvectors,
)
from .superop import (
    MERGE_TOL,
    PERIPHERAL_TOL,
    ContinuousFamily,
    PointSpectrum,
    Superoperator,
    _stacked_eigenvectors,
    continuous_eigen_check,
    ergodicity_check,
    group_closure_report,
    invariant_state,
    jordan_closure_check,
    point_spectrum,
    semigroup_law_check,
    star_closure_check,
    unitality_check,
)

__all__ = ["analyze", "choi_method", "classification_entry", "tolerances_entry"]

STANDARD_SAMPLES = 10000


def tolerances_entry(
    tol: Tolerances, peripheral_tol: float, merge_tol: float
) -> dict:
    return {
        "eq_tol": float(tol.eq_tol),
        "rank_tol": float(tol.rank_tol),
        "psd_tol": float(tol.psd_tol),
        "peripheral_tol": float(peripheral_tol),
        "merge_tol": float(merge_tol),
    }


def _versions_entry() -> dict:
    return {"perispec": __version__, "numpy": np.__version__}


def classification_entry(result: Classification | PerispecError) -> dict:
    """The report entry of one outcome of
    :func:`~perispec.structure.classify_eigenvectors`: the classification, or
    the typed failure."""
    if isinstance(result, PerispecError):
        return {"error": type(result).__name__, "message": str(result)}
    entry: dict = {"case": case_tag(result)}
    if isinstance(result, CaseI):
        entry["v"] = element_to_json(result.v)
        entry["e"] = element_to_json(result.e)
    elif isinstance(result, CaseII):
        entry["alpha1"] = float(result.alpha1)
        entry["alpha2"] = float(result.alpha2)
        entry["theta"] = float(result.theta)
        entry["v1"] = element_to_json(result.v1)
        entry["v2"] = element_to_json(result.v2)
        entry["e"] = element_to_json(result.e)
    elif isinstance(result, CaseIII):
        entry["theta"] = 0.25
        entry["u"] = element_to_json(result.u)
        entry["scale"] = complex_to_pair(result.scale)
    return entry


def _positivity_entry(
    phi: Superoperator, samples: int, seed: int, tol: Tolerances, complete: dict
) -> dict:
    """The seesaw's evidence, or the proof in ``complete``, the
    ``complete_positivity`` entry, when it proves complete positivity."""
    if complete.get("method") == _CERTIFIED_CHOI and complete["completely_positive"]:
        return {
            "method": _POSITIVE_BY_CHOI,
            "passed": True,
            "choi_lower_bound": complete["choi_min_eigenvalue"],
        }
    result = randomized_positivity_falsifier(phi, samples=samples, seed=seed, tol=tol)
    return {
        "method": "seesaw descent over seeded pure inputs, one input and one "
        "output block at a time; a clean sweep is evidence, not a proof",
        "confidence": "standard" if samples >= STANDARD_SAMPLES else "reduced",
        "passed": bool(result.passed),
        "min_output_eig": float(result.min_output_eig),
        "max_hermiticity_defect": float(result.max_hermiticity_defect),
        "samples": int(result.samples),
        "seed": int(result.seed),
    }


_CERTIFIED_CHOI = (
    "pivoted Cholesky factor of the Choi matrix, of rank below its side: the "
    "value is a proven lower bound on its least eigenvalue, from the residual "
    "and a rounding allowance"
)

_POSITIVE_BY_CHOI = (
    "proved from the pivoted Cholesky bound of complete_positivity: for unit "
    "x and y, <y, phi(x x*) y> = <conj(x) (x) y, C conj(x) (x) y> for the "
    "Choi matrix C, so no output eigenvalue at a pure input lies below the "
    "proven lower bound on the least eigenvalue of C, which is at least "
    "-psd_tol; no input is sampled"
)


def choi_method(certified: bool) -> str:
    """How a Choi value from :func:`~perispec.positivity.complete_positivity`
    was reached, by its fourth value ``certified``."""
    return _CERTIFIED_CHOI if certified else "least eigenvalue of the Choi matrix"


def _complete_positivity_entry(phi: Superoperator, tol: Tolerances) -> dict:
    try:
        _, least, completely_positive, certified = complete_positivity(phi, tol)
    except MultiBlockUnsupported as exc:
        return {"supported": False, "reason": str(exc)}
    return {
        "supported": True,
        "method": choi_method(certified),
        "choi_min_eigenvalue": least,
        "completely_positive": completely_positive,
    }


def _invariant_state_entry(
    phi: Superoperator, spectrum: PointSpectrum, tol: Tolerances
) -> dict:
    try:
        state = invariant_state(phi, tol, spectrum)
    except PerispecError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"blocks": element_to_json(state.rho), "faithful": bool(state.faithful)}


def _spectrum_entry(spectrum: PointSpectrum) -> list:
    return [
        {
            "value": complex_to_pair(point.value),
            "dimension": point.dimension,
            "basis": [element_to_json(x) for x in point.basis],
        }
        for point in spectrum.points
    ]


def _group_entry(spectrum: PointSpectrum) -> dict:
    report = group_closure_report(spectrum)
    return {
        "is_group": bool(report.is_group),
        "has_identity": bool(report.has_identity),
        "conjugation_closed": bool(report.conjugation_closed),
        # [a, b]: point_spectrum[a].value * point_spectrum[b].value is missing
        "missing": report.missing_pairs,
    }


def _closure_entry(
    phi: Superoperator, spectrum: PointSpectrum, tol: Tolerances
) -> dict:
    star = star_closure_check(phi, spectrum)
    jordan = jordan_closure_check(phi, spectrum, tol)
    return {
        "star_max_residual": float(star.max_residual),
        "jordan_max_residual": float(jordan.max_residual),
        "jordan_vanished_count": int(jordan.vanished_count),
    }


def _classifications_entry(
    phi: Superoperator, spectrum: PointSpectrum, tol: Tolerances
) -> list:
    """Every basis vector of the spectrum, classified as one stack."""
    labels, _, rows = _stacked_eigenvectors(spectrum, phi.algebra)
    entries = map(
        classification_entry,
        classify_eigenvectors(phi, [value for value, _ in labels], rows, tol),
    )
    return [
        {
            "value": complex_to_pair(point.value),
            "vectors": [{"index": i} | next(entries) for i in range(point.dimension)],
        }
        for point in spectrum.points
    ]


def _continuous_entry(
    family: ContinuousFamily,
    manifest: ExampleManifest | None,
    t: float,
    seed: int,
    tol: Tolerances,
) -> dict:
    rng = np.random.default_rng([seed, 101])
    pairs = [(float(s), float(t_)) for s, t_ in rng.uniform(0.01, 5.0, size=(20, 2))]
    entry: dict = {
        "method": "sampled (s, t) pairs and t grid; residuals are evidence on "
        "the sampled points only",
        "seed": int(seed),
        "semigroup_max_residual": float(semigroup_law_check(family, pairs)),
        "semigroup_pairs": len(pairs),
        "identity_at_zero": bool(
            max_norm(family.builder(0.0).matrix - np.eye(family.algebra.dim))
            <= tol.eq_tol
        ),
        "snapshot_t": float(t),
    }
    if family.zero_time_note is not None:
        entry["zero_time_note"] = family.zero_time_note
    if manifest is not None:
        ts = [float(v) for v in np.random.default_rng([seed, 202]).uniform(0.01, 5.0, 10)]
        checks = [
            (value, index, x, phase)
            for value, basis, phases in zip(
                manifest.expected_spectrum,
                manifest.canonical_eigenvectors,
                manifest.continuous_phases,
            )
            for index, (x, phase) in enumerate(zip(basis, phases))
        ]
        residuals = continuous_eigen_check(
            family, [x for _, _, x, _ in checks], [phase for *_, phase in checks], ts
        )
        entry["eigen_checks"] = [
            {
                "value": complex_to_pair(value),
                "index": index,
                "phase": float(phase),
                "max_residual": float(residual),
            }
            for (value, index, _, phase), residual in zip(checks, residuals)
        ]
        entry["eigen_check_times"] = ts
    return entry


def analyze(
    phi: Superoperator,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 42,
    samples: int = STANDARD_SAMPLES,
    peripheral_tol: float = PERIPHERAL_TOL,
    merge_tol: float = MERGE_TOL,
    family: ContinuousFamily | None = None,
    manifest: ExampleManifest | None = None,
    t: float | None = None,
) -> dict:
    """Full analysis report for a map, optionally with its continuous family.

    Complete positivity is decided first. When the Choi matrix's pivoted
    Cholesky bound proves it, that proof is also the ``positivity`` section
    and the seesaw falsifier does not run; otherwise, also where the least
    Choi eigenvalue decided, the seesaw gives the section's evidence.
    """
    spectrum = point_spectrum(phi, tol, peripheral_tol, merge_tol)
    complete = _complete_positivity_entry(phi, tol)
    report = {
        "algebra": {"blocks": list(phi.algebra.blocks)},
        "tolerances": tolerances_entry(tol, peripheral_tol, merge_tol),
        "versions": _versions_entry(),
        "unital": bool(unitality_check(phi, tol)),
        "positivity": _positivity_entry(phi, samples, seed, tol, complete),
        "complete_positivity": complete,
        "ergodic": bool(ergodicity_check(phi, tol, spectrum)),
        "invariant_state": _invariant_state_entry(phi, spectrum, tol),
        "point_spectrum": _spectrum_entry(spectrum),
        "group_closure": _group_entry(spectrum),
        "eigenspace_closure": _closure_entry(phi, spectrum, tol),
        "classifications": _classifications_entry(phi, spectrum, tol),
    }
    if family is not None:
        report["continuous"] = _continuous_entry(
            family, manifest, 1.0 if t is None else t, seed, tol
        )
    return report
