"""Output checks, written apart from perispec.

Each check compares one perispec output with closed forms or with numpy run
on the map matrix the benchmark generated. A check returns a list of
``(code, message)`` problems; an empty list means the output is right.
:func:`self_test_mutations` proves the checks can fail: each mutation makes a
correct report wrong in one way, and the check must notice.
"""

from __future__ import annotations

import copy

import numpy as np

from workloads import MapOp, SuiteOp

VALUE_TOL = 1e-8  # reported eigenvalue against the expected one
RESIDUAL_TOL = 1e-7  # eigen-residual that point_spectrum promises
ORTHO_TOL = 1e-8  # eigenspace bases are orthonormal
STATE_TOL = 1e-9  # invariant state against identity / total size
CHOI_TOL = 1e-8  # least Choi eigenvalue against numpy
PSD_TOL = 1e-9  # perispec's default slack below zero for PSD verdicts
CONTINUOUS_TOL = 1e-9  # semigroup and winding residuals of ex1c / ex2c


def element_vector(obj) -> np.ndarray:
    """A report element (one matrix of [re, im] pairs per block) as the
    row-major vector the map matrix acts on."""
    parts = [np.asarray(block, dtype=float) for block in obj]
    return np.concatenate([(p[..., 0] + 1j * p[..., 1]).reshape(-1) for p in parts])


def _pair(z) -> complex:
    return complex(z[0], z[1])


def expected_points(op: MapOp) -> list[tuple[complex, int, str | None]]:
    """Distinct expected peripheral values with their dimensions, and the case
    tag for one-dimensional points when the workload knows it."""
    points: list[list] = []
    for v in op.eigenvalues:
        for p in points:
            if abs(p[0] - v) <= 1e-12:
                p[1] += 1
                break
        else:
            points.append([v, 1])
    out = []
    for v, dim in points:
        tag = None
        if dim == 1:
            tag = next((t for key, t in op.tags.items() if abs(key - v) <= 1e-12), None)
        out.append((v, dim, tag))
    return out


def least_choi_eigenvalue(matrix: np.ndarray, n: int) -> float:
    """Choi matrix sum_ij E_ij (x) phi(E_ij) of a map on one n x n block."""
    choi = matrix.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)
    return float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])


def _check_spectrum(report: dict, op: MapOp, problems: list) -> None:
    expected = expected_points(op)
    reported = report["point_spectrum"]
    if len(reported) != len(expected):
        problems.append(("spectrum", f"{len(reported)} points, expected {len(expected)}"))
    values = np.array([_pair(p["value"]) for p in reported])
    for value, dim, _ in expected:
        hits = np.flatnonzero(np.abs(values - value) <= VALUE_TOL) if values.size else []
        if len(hits) != 1:
            problems.append(("spectrum", f"expected value {value:.12g} matched {len(hits)} points"))
        elif reported[hits[0]]["dimension"] != dim:
            problems.append(
                ("spectrum", f"dimension {reported[hits[0]]['dimension']} at {value:.6g}, expected {dim}")
            )
    for point in reported:
        value = _pair(point["value"])
        basis = np.array([element_vector(b) for b in point["basis"]])
        if len(basis) != point["dimension"]:
            problems.append(("basis", f"{len(basis)} vectors for dimension {point['dimension']}"))
        if not len(basis):
            continue
        residual = float(np.max(np.abs(basis @ op.matrix.T - value * basis)))
        if residual > RESIDUAL_TOL:
            problems.append(("residual", f"eigen-residual {residual:.3e} at {value:.6g}"))
        gram = basis.conj() @ basis.T
        defect = float(np.max(np.abs(gram - np.eye(len(basis)))))
        if defect > ORTHO_TOL:
            problems.append(("basis", f"basis at {value:.6g} off orthonormal by {defect:.3e}"))


def _check_classifications(report: dict, op: MapOp, problems: list) -> None:
    entries = report["classifications"]
    for value, _, tag in expected_points(op):
        if tag is None:
            continue
        entry = next((e for e in entries if abs(_pair(e["value"]) - value) <= VALUE_TOL), None)
        case = entry["vectors"][0].get("case") if entry and entry["vectors"] else None
        if case != tag:
            problems.append(("classification", f"case {case} at {value:.6g}, expected {tag}"))


def check_map_report(report: dict, op: MapOp) -> list[tuple[str, str]]:
    """Problems in one ``analyze`` report."""
    problems: list[tuple[str, str]] = []
    if report.get("unital") is not True:
        problems.append(("unital", "map reported not unital"))
    _check_spectrum(report, op, problems)
    _check_classifications(report, op, problems)
    if op.group is not None and report["group_closure"]["is_group"] != op.group:
        problems.append(("group", f"is_group {report['group_closure']['is_group']}, expected {op.group}"))
    fixed_dim = sum(1 for v in op.eigenvalues if abs(v - 1.0) <= 1e-12)
    if report["ergodic"] != (fixed_dim == 1):
        problems.append(("ergodic", f"ergodic {report['ergodic']} with a {fixed_dim}-dim fixed space"))
    state = report["invariant_state"]
    if "blocks" not in state:
        problems.append(("invariant_state", f"no invariant state: {state}"))
    else:
        rho = element_vector(state["blocks"])
        mixed = np.concatenate([np.eye(n).reshape(-1) / sum(op.blocks) for n in op.blocks])
        deviation = float(np.max(np.abs(rho - mixed)))
        if deviation > STATE_TOL or state["faithful"] is not True:
            problems.append(("invariant_state", f"state off identity/size by {deviation:.3e}"))
    positive = op.min_pure >= 0.0
    if report["positivity"]["passed"] != positive:
        problems.append(
            (
                "positivity",
                f"passed={report['positivity']['passed']} but the exact minimum over pure "
                f"states is {op.min_pure:.3e}",
            )
        )
    cp = report["complete_positivity"]
    if len(op.blocks) == 1:
        least = op.choi_min
        if least is None:
            least = least_choi_eigenvalue(op.matrix, op.blocks[0])
        if not cp.get("supported"):
            problems.append(("choi", "Choi matrix not computed for a single-block map"))
        elif abs(cp["choi_min_eigenvalue"] - least) > CHOI_TOL or cp["completely_positive"] != (
            least >= -PSD_TOL
        ):
            problems.append(
                ("choi", f"least Choi eigenvalue {cp['choi_min_eigenvalue']:.12g}, expected {least:.12g}")
            )
    elif cp.get("supported") is not False:
        problems.append(("choi", "Choi matrix reported for a multi-block map"))
    if op.continuous:
        entry = report.get("continuous", {})
        worst = max(
            [entry.get("semigroup_max_residual", np.inf)]
            + [c["max_residual"] for c in entry.get("eigen_checks", [{"max_residual": np.inf}])]
        )
        if worst > CONTINUOUS_TOL:
            problems.append(("continuous", f"continuous-family residual {worst:.3e}"))
    elif "continuous" in report:
        problems.append(("continuous", "continuous section on a single map"))
    return problems


def check_suite_result(result, op: SuiteOp) -> list[tuple[str, str]]:
    """A criterion result must say it passed."""
    if result.passed is not True:
        return [("criterion", f"{op.label} failed: {result.details}")]
    return []


def is_known_fault(problems: list[tuple[str, str]], op) -> bool:
    """True when every problem is the fault this op is kept to expose."""
    return bool(problems) and op.known_fault is not None and all(
        code == op.known_fault for code, _ in problems
    )


# ----------------------------------------------------------------------
# Self-test: deliberately wrong reports


def _first_point(report: dict) -> dict:
    return report["point_spectrum"][0]


def _shift_value(report: dict) -> None:
    _first_point(report)["value"][0] += 1e-6


def _drop_vector(report: dict) -> None:
    point = max(report["point_spectrum"], key=lambda p: p["dimension"])
    point["basis"].pop()
    point["dimension"] -= 1


def _perturb_vector(report: dict) -> None:
    _first_point(report)["basis"][0][0][0][0][0] += 1e-5


def _flip_positivity(report: dict) -> None:
    report["positivity"]["passed"] = not report["positivity"]["passed"]


def _flip_ergodic(report: dict) -> None:
    report["ergodic"] = not report["ergodic"]


def _shift_state(report: dict) -> None:
    report["invariant_state"]["blocks"][0][0][0][0] += 1e-6


def _shift_choi(report: dict) -> None:
    cp = report["complete_positivity"]
    if cp.get("supported"):
        cp["choi_min_eigenvalue"] += 1e-3
    else:
        cp["supported"] = True


def _flip_group(report: dict) -> None:
    report["group_closure"]["is_group"] = not report["group_closure"]["is_group"]


MAP_MUTATIONS = {
    "shifted eigenvalue": _shift_value,
    "dropped basis vector": _drop_vector,
    "perturbed basis vector": _perturb_vector,
    "flipped positivity.passed": _flip_positivity,
    "flipped ergodic": _flip_ergodic,
    "shifted invariant state": _shift_state,
    "wrong Choi verdict": _shift_choi,
    "flipped is_group": _flip_group,
}


def self_test_mutations(report: dict, op: MapOp) -> tuple[int, list[str]]:
    """How many wrong reports were made from this one, and the names of the
    mutations the checks failed to reject.

    Only meaningful on a report the checks accept; flipping is_group is only
    tried where the workload states the expected group verdict."""
    tried, missed = 0, []
    for name, mutate in MAP_MUTATIONS.items():
        if name == "flipped is_group" and op.group is None:
            continue
        wrong = copy.deepcopy(report)
        mutate(wrong)
        tried += 1
        if not check_map_report(wrong, op):
            missed.append(name)
    return tried, missed
