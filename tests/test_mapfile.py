"""Map-file parsing and report rendering: the vectorized paths against the
per-entry reference, error messages, and the report layout."""

import json
import math

import numpy as np
import pytest

from perispec import (
    BlockAlgebra,
    MapFileError,
    Superoperator,
    build_example1,
    build_example2,
    dump_json,
    group_closure_report,
    load_block2_file,
    load_map_file,
    point_spectrum,
)
from perispec.analysis import analyze
from perispec.mapfile import _numeric_matrix, _parse_matrix, matrix_to_json

from conftest import random_complex, random_unitary, rng_for

GENERIC = complex(np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5))


# The per-entry parser as it stood before the numpy fast path; every input
# must give the same matrix, or the same message, through either route.
def _reference_complex(obj, where):
    if isinstance(obj, (int, float)):
        return complex(float(obj), 0.0)
    if (
        isinstance(obj, (list, tuple))
        and len(obj) == 2
        and all(isinstance(v, (int, float)) for v in obj)
    ):
        return complex(float(obj[0]), float(obj[1]))
    raise MapFileError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def _reference_matrix(obj, where):
    if not isinstance(obj, list) or not obj:
        raise MapFileError(f"{where}: expected a nonempty nested list")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise MapFileError(f"{where}: row {i} does not make the matrix square")
        rows.append([_reference_complex(entry, f"{where}[{i}]") for entry in row])
    return np.array(rows, dtype=np.complex128)


def _reference_message(obj, where):
    with pytest.raises(MapFileError) as info:
        _reference_matrix(obj, where)
    return str(info.value)


# Entries that a float conversion can get wrong: signed zeros, infinities,
# ints (some above 2**53, where float() rounds) and plain reals.
_SPECIAL = [0.0, -0.0, 1, -7, 2**53 + 1, -(2**60) - 3, math.inf, -math.inf, 0.5]


def _seeded_entries(seed, n):
    rng = rng_for(41, seed)
    values = random_complex(rng, n, n)
    special = rng.integers(0, len(_SPECIAL), size=(n, n, 2))
    use = rng.random((n, n, 2)) < 0.4
    re = [[_SPECIAL[special[i, j, 0]] if use[i, j, 0] else float(values[i, j].real)
           for j in range(n)] for i in range(n)]
    im = [[_SPECIAL[special[i, j, 1]] if use[i, j, 1] else float(values[i, j].imag)
           for j in range(n)] for i in range(n)]
    return re, im


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.float64), b.view(np.float64), equal_nan=True
    )


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 3), (2, 5), (3, 8)])
def test_fast_path_matches_the_reference_bitwise(seed, n):
    re, im = _seeded_entries(seed, n)
    documents = {
        "pairs": [[[re[i][j], im[i][j]] for j in range(n)] for i in range(n)],
        "reals": re,
    }
    for obj in documents.values():
        fast = _numeric_matrix(obj)
        assert fast is not None
        assert fast.dtype == np.complex128
        assert fast.flags.c_contiguous
        reference = _reference_matrix(obj, "m")
        assert _bits_equal(fast, reference)
        # the loader takes the fast matrix only when every entry is finite
        if np.isfinite(reference).all():
            assert _bits_equal(_parse_matrix(obj, "m"), reference)
        else:
            with pytest.raises(MapFileError, match="finite"):
                _parse_matrix(obj, "m")


def test_inputs_numpy_declines_still_parse_like_the_reference():
    bools = [[True, False], [False, True]]
    mixed = [[1, [0.5, -0.0]], [[2, 3], -0.0]]  # scalar and pair entries in a row
    wide = [[2**63, 0], [0, -(2**70)]]  # beyond int64: uint64 and object arrays
    for obj in (bools, mixed, wide):
        assert _numeric_matrix(obj) is None
        assert _bits_equal(_parse_matrix(obj, "m"), _reference_matrix(obj, "m"))


_BAD_MATRICES = {
    "string-in-pair": [[[1, "2"], [0, 0]], [[0, 0], [0, 0]]],
    "string-scalar": [["1.0", 0], [0, 0]],
    "three-element-entry": [[[1, 2, 3], [0, 0]], [[0, 0], [0, 0]]],
    "all-three-element": [[[1, 2, 3], [1, 2, 3]], [[1, 2, 3], [1, 2, 3]]],
    "none": None,
    "none-entry": [[None, 0], [0, 0]],
    "non-square": [[1, 0], [0, 1], [0, 0]],
    "short-row": [[1, 0], [0]],
    # a row mixing scalars and pairs is valid (see above); this one also
    # holds a 3-element entry
    "mixed-row-with-triple": [[1, [0, 0]], [[0, 0, 0], 0]],
}


@pytest.mark.parametrize("obj", _BAD_MATRICES.values(), ids=_BAD_MATRICES.keys())
def test_malformed_matrices_keep_their_messages(obj):
    with pytest.raises(MapFileError) as info:
        load_map_file({"algebra": {"blocks": [2]}, "map": {"superop": obj}})
    assert str(info.value) == _reference_message(obj, "map.superop")
    eye = [[1, 0], [0, 1]]
    document = {"block2": {"a": obj, "b": eye, "c": eye, "d": eye}}
    with pytest.raises(MapFileError) as info:
        load_block2_file(document)
    assert str(info.value) == _reference_message(obj, "block2.a")


def _reports():
    ex1, manifest1 = build_example1(GENERIC)
    ex2, manifest2 = build_example2(GENERIC)
    u = random_unitary(rng_for(42), 6)
    conj = Superoperator(BlockAlgebra((6,)), np.kron(u, u.conj()))
    return {
        "ex1": analyze(ex1, samples=500, manifest=manifest1),
        "ex2": analyze(ex2, samples=500, manifest=manifest2),
        "conj-n6": analyze(conj, samples=500),
    }


REPORTS = _reports()


def _assert_sorted(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def _braces(line):
    """Columns of the opening braces of ``line`` that lie outside JSON strings."""
    in_string = escaped = False
    for col, ch in enumerate(line):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            yield col


@pytest.mark.parametrize("name", REPORTS)
def test_reports_round_trip_with_sorted_keys_and_one_object_per_line(name):
    report = REPORTS[name]
    text = dump_json(report)
    assert text.endswith("}\n")
    assert json.loads(text) == report
    json.loads(text, object_pairs_hook=_assert_sorted)
    lines = text.splitlines()
    for row, line in enumerate(lines):
        indent = len(line) - len(line.lstrip(" "))
        assert indent % 2 == 0
        for col in _braces(line):
            if line[col + 1:col + 2] == "}":
                continue  # an empty object
            assert col == len(line) - 1, line
            following = lines[row + 1]
            assert len(following) - len(following.lstrip(" ")) == indent + 2


def _closure_maps():
    u = random_unitary(rng_for(45), 6)
    return {
        "ex1-generic": build_example1(GENERIC)[0],
        "ex2-generic": build_example2(GENERIC)[0],
        "ex2-at-i": build_example2(1j)[0],
        "conj-n6": Superoperator(BlockAlgebra((6,)), np.kron(u, u.conj())),
    }


CLOSURE_MAPS = _closure_maps()


@pytest.mark.parametrize("name", CLOSURE_MAPS)
def test_missing_pairs_rebuild_the_triples_bit_for_bit(name):
    phi = CLOSURE_MAPS[name]
    text = dump_json(analyze(phi, samples=100))
    report = json.loads(text)
    points = report["point_spectrum"]
    rebuilt = []
    for a, b in report["group_closure"]["missing"]:
        lam, mu = complex(*points[a]["value"]), complex(*points[b]["value"])
        rebuilt.append((lam, mu, lam * mu))
    closure = group_closure_report(point_spectrum(phi))
    assert tuple(rebuilt) == closure.missing
    assert report["group_closure"] == {
        "is_group": closure.is_group,
        "has_identity": closure.has_identity,
        "conjugation_closed": closure.conjugation_closed,
        "missing": closure.missing_pairs,
    }
    assert closure.is_group == (name == "ex2-at-i")
    assert bool(closure.missing) != closure.is_group
    # the whole list is one leaf on one line, the last of its section
    line = next(ln for ln in text.splitlines() if ln.lstrip().startswith('"missing": '))
    assert json.loads(line.split(": ", 1)[1]) == report["group_closure"]["missing"]


def test_objects_in_lists_are_spread_and_leaves_sit_on_one_line():
    text = dump_json({"b": [{"x": 1}], "a": [[1.0, -0.0], [2, 3]], "c": ["s", "t"]})
    assert text == (
        "{\n"
        '  "a": [[1.0, -0.0], [2, 3]],\n'
        '  "b": [\n'
        "    {\n"
        '      "x": 1\n'
        "    }\n"
        "  ],\n"
        '  "c": ["s", "t"]\n'
        "}\n"
    )
    assert dump_json({}) == "{}\n"


@pytest.mark.parametrize(
    "document",
    [{"x": float("nan")}, {"x": [[1.0, float("inf")]]}, {"x": [{"y": float("-inf")}]}],
)
def test_dump_json_rejects_non_finite_numbers(document):
    with pytest.raises(ValueError):
        dump_json(document)


def _old_matrix_to_json(m):
    return [[[float(complex(z).real), float(complex(z).imag)] for z in row]
            for row in np.asarray(m)]


@pytest.mark.parametrize(
    "matrix",
    [
        random_complex(rng_for(43), 4, 4),
        rng_for(44).standard_normal((3, 3)),
        np.arange(9).reshape(3, 3),
        np.array([[-0.0, 0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]]),
    ],
    ids=["complex", "real", "int", "signed-zeros"],
)
def test_matrix_to_json_matches_the_per_entry_encoding(matrix):
    new = matrix_to_json(matrix)
    assert json.dumps(new) == json.dumps(_old_matrix_to_json(matrix))
    assert all(type(v) is float for row in new for pair in row for v in pair)
