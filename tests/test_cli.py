"""Command line interface: commands, exit codes, deterministic reports."""

import json

import numpy as np
import pytest

from perispec import (
    cli,
    dump_json,
    explicit_map_dict,
    load_map_file,
    max_norm,
    point_spectrum,
    vectorize,
)
from perispec.cli import main

from conftest import hermiticity_breaking_map, map_from_choi, mixed_unitary_choi, rng_for

GENERIC = [float(np.cos(2 * np.pi / 5)), float(np.sin(2 * np.pi / 5))]
# an integer literal beyond the float range (about 1.8e308)
HUGE = "1" + "0" * 400


def _write_map(tmp_path, name="ex1", lambda0=GENERIC, extra=None):
    preset = {"name": name}
    if lambda0 is not None:
        preset["lambda0"] = lambda0
    if extra:
        preset.update(extra)
    path = tmp_path / f"{name}.json"
    path.write_text(dump_json({"map": {"preset": preset}}))
    return path


FAST = ["--samples", "500"]


def test_analyze_exits_zero_and_emits_valid_json(tmp_path, capsys):
    path = _write_map(tmp_path)
    assert main(["analyze", str(path), "--json", *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unital"] is True
    assert report["ergodic"] is True
    assert report["complete_positivity"]["completely_positive"] is False
    assert report["positivity"]["passed"] is True
    assert len(report["point_spectrum"]) == 3


def test_analyze_reports_are_byte_identical(tmp_path):
    path = _write_map(tmp_path)
    outputs = []
    for attempt in range(2):
        out = tmp_path / f"report{attempt}.json"
        assert main(["analyze", str(path), "--out", str(out), *FAST]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_analyze_emit_round_trips_to_the_same_analysis(tmp_path):
    path = _write_map(tmp_path)
    explicit = tmp_path / "explicit.json"
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(
        ["analyze", str(path), "--emit", str(explicit), "--out", str(first), *FAST]
    ) == 0
    assert main(["analyze", str(explicit), "--out", str(second), *FAST]) == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    assert a["point_spectrum"] == b["point_spectrum"]
    original = load_map_file(path).phi.matrix
    reloaded = load_map_file(explicit).phi.matrix
    assert np.array_equal(reloaded.view(np.float64), original.view(np.float64))
    assert a["classifications"] == b["classifications"]
    assert a["invariant_state"] == b["invariant_state"]


def test_analyze_continuous_preset_includes_family_sections(tmp_path, capsys):
    path = _write_map(tmp_path, name="ex2c", lambda0=[0.0, 1.0])
    assert main(["analyze", str(path), "--json", *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    continuous = report["continuous"]
    assert continuous["semigroup_max_residual"] < 1e-10
    assert continuous["zero_time_note"]
    assert continuous["identity_at_zero"] is False
    checks = continuous["eigen_checks"]
    assert checks and all(c["max_residual"] < 1e-10 for c in checks)


def test_analyze_accepts_a_strictly_contracting_map(tmp_path, capsys):
    # 0.5 id on M2: no eigenvalue is peripheral, so every section that runs
    # over the peripheral spectrum runs over nothing
    path = tmp_path / "half.json"
    half = (0.5 * np.eye(4)).tolist()
    path.write_text(dump_json({"algebra": {"blocks": [2]}, "map": {"superop": half}}))
    assert main(["analyze", str(path), "--json", *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["point_spectrum"] == [] and report["classifications"] == []
    assert report["group_closure"]["has_identity"] is False
    assert report["invariant_state"]["error"] == "NoPositiveFixedState"
    assert report["eigenspace_closure"] == {
        "jordan_max_residual": 0.0,
        "jordan_vanished_count": 0,
        "star_max_residual": 0.0,
    }


def test_analyze_with_a_peripheral_tol_below_rounding(tmp_path, capsys):
    # LAPACK's real solver returns ex1's eigenvalue 1 exactly, from the block
    # [[1/2, 1/2], [1/2, 1/2]] on the diagonal units, and lambda0 and its
    # conjugate off the unit circle by rounding. At --peripheral-tol 1e-20
    # only the point at 1 is left, and ergodic and invariant_state both read
    # it: the state is the default run's, within eq_tol.
    path = _write_map(tmp_path)
    assert main(["analyze", str(path), "--json", *FAST]) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(path), "--json", "--peripheral-tol", "1e-20", *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["value"] for p in report["point_spectrum"]] == [[1.0, 0.0]]
    assert report["ergodic"] is True
    state, want = report["invariant_state"], default["invariant_state"]
    assert state["faithful"] is want["faithful"] is True
    assert max_norm(np.array(state["blocks"]) - np.array(want["blocks"])) <= 1e-9


def test_analyze_looks_up_the_point_at_one_with_its_own_merge_radius(tmp_path, capsys):
    # diag(1, 0.999998, 0.5) on three 1x1 blocks: at radius 1e-5 the values
    # 1 and 0.999998 merge into one point at 0.999999 of dimension 2, which
    # lies outside the default MERGE_TOL of 1. The dual fixes only e0.
    path = tmp_path / "near-fold.json"
    matrix = np.diag([1.0, 0.999998, 0.5]).tolist()
    path.write_text(dump_json({"algebra": {"blocks": [1, 1, 1]}, "map": {"superop": matrix}}))
    radii = ["--tol", "1e-5", "--peripheral-tol", "1e-5", "--merge-tol", "1e-5"]
    assert main(["analyze", str(path), "--json", *radii, *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["dimension"] for p in report["point_spectrum"]] == [2]
    assert report["ergodic"] is False
    state = report["invariant_state"]
    assert state["faithful"] is False
    assert max_norm(np.array(state["blocks"]).reshape(3, 2) - [[1, 0], [0, 0], [0, 0]]) <= 1e-12


def _coordinates_of_manifest_combination(path, value, weights) -> str:
    """--coeffs text for sum_k weights[k] b_k, the b_k being the manifest's
    canonical eigenvectors at ``value``, in the coordinates of whatever
    orthonormal basis the computed spectrum holds there."""
    loaded = load_map_file(path)
    manifest = loaded.manifest
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - value) < 1e-9
    )
    target = sum(
        w * vectorize(b) for w, b in zip(weights, manifest.canonical_eigenvectors[index])
    )
    point = point_spectrum(loaded.phi).find(value)
    q = np.column_stack([vectorize(x) for x in point.basis])
    coeffs = q.conj().T @ target
    assert max_norm(q @ coeffs - target) < 1e-12
    return ";".join(f"{c.real!r},{c.imag!r}" for c in coeffs.tolist())


def test_classify_lists_basis_and_combination(tmp_path, capsys):
    path = _write_map(tmp_path, name="ex2", lambda0=[0.0, 1.0])
    coeffs = _coordinates_of_manifest_combination(path, 1j, (0.6, 0.8))
    code = main(
        [
            "classify",
            str(path),
            "--lam",
            "0,1",
            f"--coeffs={coeffs}",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 2
    assert {entry["case"] for entry in report["vectors"]} <= {"I", "II", "III"}
    combo = report["combination"]
    assert combo["case"] == "II"
    assert combo["alpha1"] ** 2 + combo["alpha2"] ** 2 == pytest.approx(1.0)
    assert combo["theta"] == pytest.approx(
        (combo["alpha1"] * combo["alpha2"]) ** 2, abs=1e-12
    )


def test_classify_rejects_values_outside_the_spectrum(tmp_path, capsys):
    path = _write_map(tmp_path)
    assert main(["classify", str(path), "--lam", "0.5,0.5"]) == 2
    assert "not a peripheral eigenvalue" in capsys.readouterr().err


def test_classify_rejects_coefficient_count_mismatch(tmp_path):
    path = _write_map(tmp_path)
    code = main(
        ["classify", str(path), "--lam", "1,0", "--coeffs", "1,0;1,0"]
    )
    assert code == 2


def _classify_ex2_at_minus_one(tmp_path, capsys, lam_flag, coeffs_flag):
    path = tmp_path / "ex2.json"
    assert main(["example", "ex2", "--angle", "90", "--out", str(path)]) == 0
    code = main(["classify", str(path), lam_flag, "-1,0", coeffs_flag, "-1,0", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == pytest.approx([-1.0, 0.0])
    assert report["dimension"] == 1
    assert [entry["case"] for entry in report["vectors"]] == ["III"]
    assert report["combination"]["coefficients"] == [[-1.0, 0.0]]
    assert report["combination"]["case"] == "III"


@pytest.mark.parametrize("flag", ["--lam", "--lambda"])
def test_classify_reads_negative_values_after_a_space(tmp_path, capsys, flag):
    _classify_ex2_at_minus_one(tmp_path, capsys, flag, "--coeffs")


@pytest.mark.parametrize("lam_flag", ["--lam", "--lambd"])
def test_classify_reads_negative_values_after_abbreviated_options(
    tmp_path, capsys, lam_flag
):
    _classify_ex2_at_minus_one(tmp_path, capsys, lam_flag, "--coe")


def test_choi_on_single_block_map(tmp_path, capsys):
    path = _write_map(tmp_path)
    assert main(["choi", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completely_positive"] is False
    assert report["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("n, certified", [(4, False), (6, True)])
def test_choi_names_how_its_value_was_reached(n, certified, tmp_path, capsys):
    # a seeded channel: below Choi side 36 eigvalsh decides, from it on the
    # pivoted Cholesky factor's proven bound, as analyze says
    path = tmp_path / "channel.json"
    phi = map_from_choi(mixed_unitary_choi(rng_for(64, n), n))
    path.write_text(dump_json(explicit_map_dict(phi)))
    assert main(["choi", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(path), *FAST]) == 0
    entry = json.loads(capsys.readouterr().out)["complete_positivity"]
    assert report["method"] == entry["method"]
    assert report["method"].startswith("pivoted Cholesky factor") is certified
    assert report["min_eigenvalue"] == entry["choi_min_eigenvalue"]
    assert report["completely_positive"] is entry["completely_positive"] is True


def test_choi_and_analyze_reject_a_map_that_breaks_hermiticity(tmp_path, capsys):
    path = tmp_path / "nonhermitian.json"
    path.write_text(dump_json(explicit_map_dict(hermiticity_breaking_map())))
    assert main(["choi", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min_eigenvalue"] >= -1e-9
    assert report["completely_positive"] is False
    assert main(["analyze", str(path), *FAST]) == 0
    entry = json.loads(capsys.readouterr().out)["complete_positivity"]
    assert entry["choi_min_eigenvalue"] == report["min_eigenvalue"]
    assert entry["completely_positive"] is False


def test_choi_rejects_multi_block_maps(tmp_path, capsys):
    path = _write_map(tmp_path, name="ex2", lambda0=[0.0, 1.0])
    assert main(["choi", str(path)]) == 2
    assert "MultiBlockUnsupported" in capsys.readouterr().err


def test_positivity_methods_and_schedule(tmp_path, capsys):
    path = tmp_path / "block.json"
    path.write_text(
        dump_json(
            {
                "block2": {
                    "a": [[2, 0], [0, 2]],
                    "b": [[0, 1], [0, 0]],
                    "c": [[0, 0], [1, 0]],
                    "d": [[1, 0], [0, 1]],
                }
            }
        )
    )
    for method in ("eps", "eps-prime", "oracle"):
        assert main(["positivity", str(path), "--method", method, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["is_psd"] is True
    assert main(
        ["positivity", str(path), "--method", "eps", "--schedule", "0.5,0.01"]
    ) == 0
    capsys.readouterr()


def test_positivity_commuting_violation_is_a_numerical_error(tmp_path, capsys):
    path = tmp_path / "block.json"
    path.write_text(
        dump_json(
            {
                "block2": {
                    "a": [[1, 0], [0, 2]],
                    "b": [[0, 0], [0, 0]],
                    "c": [[0, 0], [0, 0]],
                    "d": [[1, 1], [1, 1]],
                }
            }
        )
    )
    assert main(["positivity", str(path), "--method", "commuting"]) == 3
    assert "CommutationViolated" in capsys.readouterr().err


def test_positivity_transforms_report_result_blocks(tmp_path, capsys):
    path = tmp_path / "block.json"
    path.write_text(
        dump_json(
            {
                "block2": {
                    "a": [[2, 0], [0, 2]],
                    "b": [[0, 1], [0, 0]],
                    "c": [[0, 0], [1, 0]],
                    "d": [[1, 0], [0, 1]],
                    "x": [[1, 0], [1, 1]],
                    "y": [[2, 0], [0, 1]],
                }
            }
        )
    )
    for transform in ("corner-swap", "congruence"):
        assert main(["positivity", str(path), "--transform", transform, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input_psd"]["is_psd"] is True
        assert report["result_psd"]["is_psd"] is True
        assert set(report["result"]) == {"a", "b", "c", "d"}


@pytest.mark.parametrize("method", ["eps", "eps-prime"])
def test_positivity_on_a_tolerance_negative_corner(tmp_path, capsys, recwarn, method):
    # the regularized corner has eigenvalue -1e-10, inside psd_tol; the
    # mirrored criterion regularizes d, so the corners swap for it
    corner, other = [[-1e-10, 0], [0, 1]], [[3, 0], [0, 3]]
    a, d = (other, corner) if method == "eps-prime" else (corner, other)
    b = [[0.1, 0], [0, 0.1]]
    path = tmp_path / "block.json"
    path.write_text(dump_json({"block2": {"a": a, "b": b, "c": b, "d": d}}))
    argv = ["positivity", str(path), "--method", method, "--schedule"]
    assert main([*argv, "1,1e-10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_psd"] is False
    assert report["witness"]["epsilon"] == 1e-10
    assert np.isfinite(report["witness"]["quadratic_form"])
    # 1 / 1e-320 overflows before any epsilon has failed: no verdict
    assert main([*argv, "1,1e-320"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConvergenceFailure" in captured.err and "1e-320" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "content",
    [
        None,  # no file at all
        "not json at all",
        "[1, 2]",
        '{"map": {}}',
        '{"block2": [1, 2]}',
        '{"block2": {"a": [[1]], "b": [[0]], "c": [[0]]}}',
        '{"block2": {"a": [[NaN]], "b": [[0]], "c": [[0]], "d": [[1]]}}',
        f'{{"block2": {{"a": [[{HUGE}]], "b": [[0]], "c": [[0]], "d": [[1]]}}}}',
    ],
    ids=[
        "missing", "invalid-json", "top-level-list", "no-block2", "not-object", "no-d",
        "nan-entry", "huge-int-entry",
    ],
)
def test_malformed_block2_files_exit_two(tmp_path, capsys, content):
    path = tmp_path / "block.json"
    if content is not None:
        path.write_text(content)
    assert main(["positivity", str(path)]) == 2
    assert "MapFileError" in capsys.readouterr().err


def test_misfit_congruence_factors_exit_two(tmp_path, capsys):
    eye2, eye3 = np.eye(2).tolist(), np.eye(3).tolist()
    path = tmp_path / "block.json"
    block2 = {"a": eye2, "b": eye2, "c": eye2, "d": eye2, "x": eye3, "y": eye2}
    path.write_text(json.dumps({"block2": block2}))
    assert main(["positivity", str(path), "--transform", "congruence"]) == 2
    err = capsys.readouterr().err
    assert "MapFileError" in err and "x has side 3" in err


def test_suite_json_reports_every_criterion(capsys):
    assert main(["suite", "--json", "--samples", "2000"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["all_passed"] is True
    assert document["confidence"] == "reduced"
    assert [c["id"] for c in document["criteria"]] == [f"c{k:02d}" for k in range(1, 11)]


def test_example_command_round_trips_through_the_loader(tmp_path, capsys):
    assert main(["example", "ex1", "--angle", "72", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    loaded = load_map_file(document)
    assert loaded.phi.algebra.blocks == (2,)
    assert main(["example", "psi_swap", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert load_map_file(document).phi.algebra.blocks == (1, 1)


def test_example_reads_a_negative_lambda0_after_a_space(capsys):
    assert main(["example", "ex1", "--lambda0", "-1,0", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["map"]["preset"]["lambda0"] == [-1.0, 0.0]
    assert main(["example", "ex1", "--lambda0", "-0.6,-0.8", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["map"]["preset"]["lambda0"] == [-0.6, -0.8]


def test_example_command_requires_exactly_one_rotation_flag(capsys):
    assert main(["example", "ex1"]) == 2
    capsys.readouterr()
    assert main(["example", "ex1", "--angle", "72", "--lambda0", "0,1"]) == 2
    capsys.readouterr()


def test_example_explicit_emits_a_superop_document(capsys):
    assert main(["example", "ex1", "--angle", "90", "--explicit", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert "superop" in document["map"]
    assert load_map_file(document).phi.matrix.shape == (4, 4)


@pytest.mark.parametrize(
    "content",
    [
        "not json at all",
        '{"map": {}}',
        '{"map": {"preset": {"name": "nope", "lambda0": [0, 1]}}}',
        '{"map": {"superop": [[1, 0], [0, 1], [0, 0]]}}',
        '{"algebra": {"blocks": [2]}, "map": {"superop": [[0, 1], [1, 0]]}}',
        '{"map": {"preset": {"name": "ex1", "lambda0": [0, 1]}}, "note": 1}',
        '{"algebra": {"blocks": [2], "blockz": [2]},'
        ' "map": {"preset": {"name": "ex1", "lambda0": [0, 1]}}}',
        '{"map": {"preset": {"name": "ex2", "lambda0": [false, true]}}}',
    ],
)
def test_malformed_map_files_exit_two(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["analyze", str(path), *FAST]) == 2
    assert capsys.readouterr().err.startswith("error")


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [
        '{"algebra": {"blocks": [1]}, "map": {"superop": [[NaN]]}}',
        '{"algebra": {"blocks": [1]}, "map": {"superop": [[[1e400, 0]]]}}',
        '{"algebra": {"blocks": [1, 1]}, "map": {"superop": [[1, [NaN, 0]], [[0, 0], 1]]}}',
        '{"map": {"preset": {"name": "ex1", "lambda0": [NaN, 0]}}}',
        '{"map": {"preset": {"name": "ex1c", "lambda0": [0, 1], "t": Infinity}}}',
        f'{{"map": {{"preset": {{"name": "ex1", "lambda0": [{HUGE}, 0]}}}}}}',
        f'{{"map": {{"preset": {{"name": "ex1c", "lambda0": [0, 1], "t": {HUGE}}}}}}}',
        f'{{"algebra": {{"blocks": [1]}}, "map": {{"superop": [[{HUGE}]]}}}}',
    ],
    ids=[
        "nan-superop", "overflow-superop", "nan-in-mixed-row", "nan-lambda0", "infinite-t",
        "huge-int-lambda0", "huge-int-t", "huge-int-superop",
    ],
)
def test_non_finite_map_files_exit_two(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["analyze", str(path), *FAST]) == 2
    assert "MapFileError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["example", "ex1", "--lambda0", "nan,0"], ["example", "ex1", "--lambda0", "0,inf"]],
    ids=["nan", "inf"],
)
def test_non_finite_cli_values_exit_two(capsys, argv):
    assert main(argv) == 2
    assert "MapFileError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,lambda0,extra,options",
    [
        ("ex1", GENERIC, None, ["--t", "2.5"]),
        ("ex2", GENERIC, None, ["--t", "2.5"]),
        ("psi_swap", None, None, ["--t", "2.5"]),
        ("ex1", GENERIC, {"t": 2.5}, []),
        ("ex2", GENERIC, {"t": 2.5}, []),
        ("psi_swap", None, {"t": 2.5}, []),
        ("psi_swap", GENERIC, None, []),
    ],
    ids=[
        "ex1-option-t",
        "ex2-option-t",
        "psi_swap-option-t",
        "ex1-stanza-t",
        "ex2-stanza-t",
        "psi_swap-stanza-t",
        "psi_swap-stanza-lambda0",
    ],
)
def test_preset_values_the_preset_never_reads_exit_two(
    tmp_path, capsys, name, lambda0, extra, options
):
    path = _write_map(tmp_path, name=name, lambda0=lambda0, extra=extra)
    assert main(["analyze", str(path), *options, *FAST]) == 2
    assert "MapFileError" in capsys.readouterr().err
    assert main(["choi", str(path), *options]) == 2
    assert "MapFileError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "ex1", "--angle", "72", "--t", "2.5", "--explicit"],
        ["example", "ex2", "--lambda0", "0,1", "--t", "2.5"],
        ["example", "psi_swap", "--t", "1"],
        ["example", "psi_swap", "--angle", "90"],
        ["example", "psi_swap", "--lambda0", "0,1"],
    ],
    ids=["ex1-t", "ex2-t", "psi_swap-t", "psi_swap-angle", "psi_swap-lambda0"],
)
def test_example_options_the_preset_never_reads_exit_two(capsys, argv):
    assert main(argv) == 2
    assert "MapFileError" in capsys.readouterr().err


def test_snapshot_time_on_an_explicit_map_exits_two(tmp_path, capsys):
    path = tmp_path / "explicit.json"
    argv = ["example", "ex1", "--angle", "72", "--explicit", "--out", str(path)]
    assert main(argv) == 0
    assert main(["analyze", str(path), "--t", "2.5", *FAST]) == 2
    assert "MapFileError" in capsys.readouterr().err
    assert main(["classify", str(path), "--lam", "1,0", "--t", "2.5"]) == 2
    assert "MapFileError" in capsys.readouterr().err
    assert main(["choi", str(path), "--t", "3"]) == 2
    assert "MapFileError" in capsys.readouterr().err
    assert main(["choi", str(path)]) == 0
    capsys.readouterr()


def test_unknown_preset_keys_exit_two_and_are_named(tmp_path, capsys):
    path = _write_map(tmp_path, name="ex1c", lambda0=[0, 1], extra={"time": 2.5})
    assert main(["analyze", str(path), *FAST]) == 2
    err = capsys.readouterr().err
    assert "MapFileError" in err and "'time'" in err
    assert main(["choi", str(path)]) == 2
    assert "'time'" in capsys.readouterr().err


def test_a_stanza_t_that_is_no_number_exits_two_under_an_override_too(tmp_path, capsys):
    path = _write_map(tmp_path, name="ex1c", extra={"t": "soon"})
    for options in ([], ["--t", "2"]):
        assert main(["analyze", str(path), *options, *FAST]) == 2
        assert "'soon'" in capsys.readouterr().err


def test_non_finite_snapshot_time_exits_two(tmp_path, capsys):
    path = _write_map(tmp_path, name="ex1c")
    assert main(["analyze", str(path), "--t", "inf", *FAST]) == 2
    assert "MapFileError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "map.json", "--lam", "1,0", "--seed", "1"],
        ["choi", "map.json", "--samples", "10"],
        ["positivity", "block.json", "--seed", "1"],
        ["example", "ex1", "--angle", "72", "--tol", "1e-9"],
        ["example", "ex1", "--angle", "72", "--samples", "10"],
    ],
    ids=["classify-seed", "choi-samples", "positivity-seed", "example-tol", "example-samples"],
)
def test_subcommands_reject_options_they_never_read(capsys, argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_tolerance_flag_exits_two(tmp_path, capsys):
    path = _write_map(tmp_path)
    assert main(["analyze", str(path), "--tol", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "option,value",
    [
        ("--tol", "inf"),
        ("--rank-tol", "inf"),
        ("--psd-tol", "inf"),
        ("--merge-tol", "nan"),
        ("--merge-tol", "inf"),
        ("--merge-tol", "-1e-7"),
        ("--peripheral-tol", "inf"),
        ("--peripheral-tol", "nan"),
        ("--peripheral-tol", "-1e-7"),
        ("--samples", "0"),
        ("--samples", "-3"),
    ],
)
def test_analyze_rejects_non_finite_or_out_of_range_options(tmp_path, capsys, option, value):
    path = _write_map(tmp_path)
    assert main(["analyze", str(path), option, value]) == 2
    assert "MapFileError" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--merge-tol", "--peripheral-tol"])
def test_classify_rejects_an_infinite_spectral_radius(tmp_path, capsys, option):
    path = _write_map(tmp_path)
    assert main(["classify", str(path), "--lam", "1,0", option, "inf"]) == 2
    assert "MapFileError" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", ["nan,0.1", "1,nan", "inf,1"])
def test_non_finite_schedules_exit_two(tmp_path, capsys, schedule):
    path = tmp_path / "block.json"
    path.write_text('{"block2": {"a": [[1]], "b": [[0]], "c": [[0]], "d": [[1]]}}')
    assert main(["positivity", str(path), "--schedule", schedule]) == 2
    assert "MapFileError" in capsys.readouterr().err


def test_suite_rejects_a_zero_sample_count_as_input(capsys):
    assert main(["suite", "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert "MapFileError" in captured.err
    assert captured.out == ""


# One parser per process: main builds it on the first call and shares it.


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_the_parser_once(monkeypatch, capsys, fresh_parser):
    builds = []
    original = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert main(["example", "psi_swap", "--json"]) == 0
    assert main(["example", "ex1", "--angle", "72", "--json"]) == 0
    assert len(builds) == 1
    assert original() is not original()  # the public builder stays fresh
    capsys.readouterr()


def test_an_option_does_not_leak_into_the_next_call(tmp_path, fresh_parser):
    path = _write_map(tmp_path)
    first, few, again = (tmp_path / f"{name}.json" for name in ("first", "few", "again"))
    assert main(["analyze", str(path), "--out", str(first)]) == 0
    assert main(["analyze", str(path), "--samples", "50", "--out", str(few)]) == 0
    assert main(["analyze", str(path), "--out", str(again)]) == 0
    assert few.read_bytes() != first.read_bytes()
    assert again.read_bytes() == first.read_bytes()


def test_a_usage_error_leaves_the_next_call_unharmed(tmp_path, capsys):
    path = _write_map(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["analyze", str(path), "--samples", "many"])
    assert info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["analyze", str(path), "--json", *FAST]) == 0
    assert json.loads(capsys.readouterr().out)["unital"] is True


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]], ids=["top", "analyze"])
def test_help_prints_the_same_text_on_every_call(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: perispec")


def _ex2_at_i(tmp_path):
    path = tmp_path / "ex2.json"
    assert main(["example", "ex2", "--angle", "90", "--out", str(path)]) == 0
    point = point_spectrum(load_map_file(path).phi).find(1j)
    return path, np.array([vectorize(x) for x in point.basis])


def test_classify_rejects_a_coefficient_combination_that_overflows(tmp_path, capsys):
    path, basis = _ex2_at_i(tmp_path)
    # at the entry where the basis weighs most, each coefficient adds the
    # real and imaginary parts of its vector's entry with one sign, at 1.7e308
    weight = np.abs(basis.real) + np.abs(basis.imag)
    k = int(np.argmax(weight.sum(axis=0)))
    assert weight[:, k].sum() > 1.06  # so that the real part passes 1.8e308
    coeffs = ";".join(
        f"{float(1.7e308 * np.sign(z.real))!r},{float(-1.7e308 * np.sign(z.imag))!r}"
        for z in basis[:, k]
    )
    assert main(["classify", str(path), "--lam", "0,1", f"--coeffs={coeffs}"]) == 2
    assert "--coeffs combination" in capsys.readouterr().err


def test_classify_takes_huge_coefficients_up_to_the_float_range(tmp_path, capsys):
    path, basis = _ex2_at_i(tmp_path)
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(1e308 * basis[0] + 1e308 * basis[1]).all()
    code = main(["classify", str(path), "--lam", "0,1", "--coeffs=1e308,0;1e308,0", "--json"])
    assert code == (2 if overflows else 0)
    if not overflows:
        assert json.loads(capsys.readouterr().out)["combination"]["case"] == "II"


def test_classify_a_vector_whose_products_overflow(tmp_path, capsys):
    # x x* + x* x is about 1e400 here; classification works on x scaled by
    # a power of two
    path = _write_map(tmp_path)
    assert main(["classify", str(path), "--lam", "1,0", "--coeffs", "1e200,0", "--json"]) == 0
    combination = json.loads(capsys.readouterr().out)["combination"]
    assert combination["case"] == "III"
    assert combination["scale"][0] == pytest.approx(1e200 / np.sqrt(2.0), rel=1e-12)
