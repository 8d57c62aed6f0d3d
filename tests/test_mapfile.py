"""Map-file parsing and report rendering: the vectorized paths against the
per-entry reference, error messages, and the report layout."""

import json
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perispec import (
    BlockAlgebra,
    MapFileError,
    Superoperator,
    build_example1,
    build_example2,
    dump_json,
    explicit_map_dict,
    group_closure_report,
    load_block2_file,
    load_map_file,
    point_spectrum,
)
from perispec import mapfile
from perispec.analysis import analyze
from perispec.mapfile import _numeric_matrix, _parse_matrix, _RowDecoder, matrix_to_json

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


_DECLINED = {
    "bools": [[True, False], [False, True]],
    "mixed": [[1, [0.5, -0.0]], [[2, 3], -0.0]],  # scalar and pair entries in a row
    "wide": [[2**63, 0], [0, -(2**70)]],  # beyond int64: uint64 and object arrays
}


def test_inputs_numpy_declines_still_parse_like_the_reference():
    bools, mixed, wide = _DECLINED.values()
    for obj in (bools, mixed, wide):
        assert _numeric_matrix(obj) is None
    for obj in (mixed, wide):
        assert _bits_equal(_parse_matrix(obj, "m"), _reference_matrix(obj, "m"))
    # the reference read JSON true and false as 1 and 0; they are not numbers
    with pytest.raises(MapFileError, match=r"m\[0\]: expected a number .* got True"):
        _parse_matrix(bools, "m")


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
    # rows numpy reads as floats; the message still shows the ints as ints
    "int-and-float-triples": [[[1, 2.5, 3], [0.5, 0, 0]], [[0, 0, 0], [0, 0, 0.5]]],
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


EX1 = {"name": "ex1", "lambda0": [0.0, 1.0]}
EYE = [[1, 0], [0, 1]]
BLOCK2 = {"a": EYE, "b": EYE, "c": EYE, "d": EYE}

# Each object of both file kinds, with one key too many or one too few, or of
# another type than an object.
_MISFIT_OBJECTS = {
    "document-unknown": ({"map": {"preset": EX1}, "comment": 1}, "'comment'"),
    "document-missing-map": ({"algebra": {"blocks": [2]}}, "'map'"),
    "map-unknown": ({"map": {"preset": EX1, "t": 2.5}}, "'t'"),
    "algebra-unknown": ({"algebra": {"blocks": [2], "blockz": [2]}, "map": {"preset": EX1}},
                        "'blockz'"),
    "algebra-missing-blocks": ({"algebra": {}, "map": {"preset": EX1}}, "'blocks'"),
    "preset-missing-name": ({"map": {"preset": {"lambda0": [0, 1]}}}, "'name'"),
    "block2-document-unknown": ({"block2": BLOCK2, "x": EYE}, "'x'"),
    "block2-unknown": ({"block2": BLOCK2 | {"z": EYE}}, "'z'"),
    "map-list": ({"map": []}, "map must be an object, got list"),
    "preset-string": ({"map": {"preset": "ex1"}}, "map.preset must be an object, got str"),
    "algebra-list": ({"algebra": [2], "map": {"preset": EX1}},
                     "algebra must be an object, got list"),
}


@pytest.mark.parametrize("document,message", _MISFIT_OBJECTS.values(),
                         ids=_MISFIT_OBJECTS.keys())
def test_every_object_is_checked_for_its_type_and_keys(document, message):
    load = load_block2_file if "block2" in document else load_map_file
    with pytest.raises(MapFileError, match=message):
        load(document)


# JSON true and false at each site that reads a number outside a numpy matrix.
_BOOLEANS = {
    "lambda0": ({"map": {"preset": {"name": "ex2", "lambda0": [False, True]}}},
                r"lambda0: .* got \[False, True\]"),
    "blocks": ({"algebra": {"blocks": [True, 2]}, "map": {"preset": EX1}},
               r"got \[True, 2\]"),
    "t": ({"map": {"preset": {"name": "ex1c", "lambda0": [0, 1], "t": True}}},
          r"map.preset.t must be a number, got True"),
    "block2-entry": ({"block2": BLOCK2 | {"a": [[True]], "b": [[0]], "c": [[0]], "d": [[1]]}},
                     r"block2.a\[0\]: .* got True"),
    # a boolean among numbers, which numpy alone would read as 0 or 1
    "superop-among-numbers": ({"algebra": {"blocks": [1, 1]},
                               "map": {"superop": [[True, 0], [0, 1]]}},
                              r"map.superop\[0\]: .* got True"),
    "superop-among-pairs": ({"algebra": {"blocks": [1, 1]},
                             "map": {"superop": [[[1, 0], [0, 0]], [[0, 0], [1, False]]]}},
                            r"map.superop\[1\]: .* got \[1, False\]"),
    "block2-among-numbers": ({"block2": BLOCK2 | {"b": [[0.5, 0], [False, 0.5]]}},
                             r"block2.b\[1\]: .* got False"),
    "block2-factor-among-pairs": ({"block2": BLOCK2 | {"x": [[[1, 0], [0, 0]], [[0, True], [1, 0]]],
                                                       "y": EYE}},
                                  r"block2.x\[1\]: .* got \[0, True\]"),
}


@pytest.mark.parametrize("document,message", _BOOLEANS.values(), ids=_BOOLEANS.keys())
def test_booleans_are_not_numbers(document, message, tmp_path):
    load = load_block2_file if "block2" in document else load_map_file
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    for source in (document, path):
        with pytest.raises(MapFileError, match=message):
            load(source)


# An integer beyond the float range at each site that reads a number; numpy
# leaves such a matrix entry to the per-entry parser as dtype object.
_HUGE = 10**400
_HUGE_INTEGERS = {
    "lambda0": ({"map": {"preset": {"name": "ex1", "lambda0": [0, _HUGE]}}},
                "map.preset.lambda0"),
    "t": ({"map": {"preset": {"name": "ex1c", "lambda0": [0, 1], "t": -_HUGE}}},
          "map.preset.t"),
    "superop-entry": ({"algebra": {"blocks": [1]}, "map": {"superop": [[[_HUGE, 0]]]}},
                      r"map.superop\[0\]"),
    "block2-entry": ({"block2": BLOCK2 | {"b": [[0, _HUGE], [0, 0]]}}, r"block2.b\[0\]"),
}


@pytest.mark.parametrize("document,site", _HUGE_INTEGERS.values(), ids=_HUGE_INTEGERS.keys())
def test_integers_beyond_the_float_range_name_their_site(document, site):
    load = load_block2_file if "block2" in document else load_map_file
    with pytest.raises(MapFileError, match=f"^{site}: an integer beyond the float range$"):
        load(document)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"map": {"superop": [[' + b"1" * 5000 + b"]]}}"],
    ids=["not-utf8", "past-the-digit-limit"],
)
def test_files_json_cannot_read_are_map_file_errors(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(MapFileError, match="cannot parse"):
        load_map_file(path)


# 100,000 brackets deep, far past the interpreter's recursion limit
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "kind,text",
    [
        ("map", '{"algebra": {"blocks": [1]}, "map": {"superop": %s}}' % _DEEP),
        # an f in the text: read whole by json.loads, without the row loop
        ("map", '{"algebra": {"blocks": [1]}, "map": {"superop": %s}, "f": 1}' % _DEEP),
        ("block2", '{"block2": {"a": %s, "b": [[0]], "c": [[0]], "d": [[1]]}}' % _DEEP),
        ("block2", '{"block2": {"a": %s, "b": [[0]], "c": [[0]], "d": [[1]]}, "f": 1}' % _DEEP),
    ],
    ids=["map-rows", "map-whole", "block2", "block2-with-an-f"],
)
def test_text_nested_past_the_recursion_limit_is_a_map_file_error(kind, text, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(text)
    load = load_map_file if kind == "map" else load_block2_file
    with pytest.raises(MapFileError, match="cannot parse .*recursion"):
        load(path)


def _superop_document(obj):
    """An explicit map file holding ``obj`` as its superop, with an algebra of
    coefficient dimension len(obj) where that is a positive int."""
    n = len(obj) if isinstance(obj, list) and obj else 2
    return {"algebra": {"blocks": [1] * n}, "map": {"superop": obj}}


def _file_forms(document):
    """The text of ``document`` in five layouts that json.loads reads alike."""
    pretty = json.dumps(document, indent=2)
    algebra, stanza = (json.dumps(document[key]) for key in ("algebra", "map"))
    return {
        "compact": json.dumps(document, separators=(",", ":")),
        "indent": pretty,
        "crlf": pretty.replace("\n", "\r\n"),
        "map-first": f'{{"map": {stanza}, "algebra": {algebra}}}',
        # the last of two superop keys counts, as in json.loads
        "duplicate-superop": '{"algebra": %s, "map": {"superop": [[7, 7], [7]], "superop": %s}}'
                             % (algebra, json.dumps(document["map"]["superop"])),
    }


def _outcome(source):
    """The loaded matrix, or the message it is rejected with."""
    try:
        return load_map_file(source).phi.matrix
    except MapFileError as exc:
        return str(exc)


def _file_sourced_cases():
    cases = {f"bad-{key}": obj for key, obj in _BAD_MATRICES.items()}
    cases |= {f"booleans-{key}": _BOOLEANS[key][0]["map"]["superop"]
              for key in ("superop-among-numbers", "superop-among-pairs")}
    cases["huge-integer"] = _HUGE_INTEGERS["superop-entry"][0]["map"]["superop"]
    cases |= {f"declined-{key}": obj for key, obj in _DECLINED.items()}
    cases["nan"] = [[1.0, math.nan], [0.0, 1.0]]
    for seed, n in [(0, 1), (1, 3), (2, 5), (3, 8), (4, 4), (5, 6)]:
        re, im = _seeded_entries(seed, n)
        cases[f"seeded-{seed}-pairs"] = [[[re[i][j], im[i][j]] for j in range(n)]
                                         for i in range(n)]
        cases[f"seeded-{seed}-reals"] = re
        # the same entries with ±inf dropped, so no Infinity puts an f in the text
        cases[f"seeded-{seed}-finite"] = [[[x if math.isfinite(x) else 2**53 + 1
                                            for x in (re[i][j], im[i][j])]
                                           for j in range(n)] for i in range(n)]
    return cases


_FILE_SOURCED = _file_sourced_cases()


@pytest.mark.parametrize("obj", _FILE_SOURCED.values(), ids=_FILE_SOURCED.keys())
def test_file_sources_load_like_dict_sources(obj, tmp_path):
    document = _superop_document(obj)
    expected = _outcome(document)
    for form, text in _file_forms(document).items():
        path = tmp_path / f"{form}.json"
        path.write_text(text)
        got = _outcome(path)
        if isinstance(expected, str):
            assert got == expected, form
        else:
            assert isinstance(got, np.ndarray) and _bits_equal(got, expected), form


def _json_loads_message(path):
    try:
        json.loads(path.read_text())
    except ValueError as exc:
        return f"cannot parse {path}: {exc}"
    raise AssertionError("json.loads reads the text")


_ROWS = '[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]'
_MALFORMED = {
    "empty": "",
    "whitespace": " \r\n\t ",
    "bom": '\ufeff{"algebra": {"blocks": [2]}, "map": {"superop": %s}}' % _ROWS,
    "trailing-data": '{"algebra": {"blocks": [2]}, "map": {"superop": %s}} {}' % _ROWS,
    "missing-comma-between-rows": '{"algebra": {"blocks": [2]}, "map": {"superop": '
                                  '[[1, 0, 0, 0] [0, 1, 0, 0]]}}',
    "missing-comma-in-a-row": '{"algebra": {"blocks": [2]}, "map": {"superop": [[1, 0 0, 0]]}}',
    "unclosed-row": '{"algebra": {"blocks": [2]}, "map": {"superop": [[1, 0, 0, 0], [0, 1',
    "unclosed-rows": '{"algebra": {"blocks": [2]}, "map": {"superop": [[1, 0, 0, 0]',
    "trailing-comma-in-rows": '{"algebra": {"blocks": [2]}, "map": {"superop": [[1, 0],]}}',
    "trailing-comma-in-map": '{"algebra": {"blocks": [2]}, "map": {"superop": [[1]],}}',
    "missing-row": '{"algebra": {"blocks": [2]}, "map": {"superop": [[1, 0], , [0, 1]]}}',
    "missing-value": '{"algebra": {"blocks": [2]}, "map": {"superop": }}',
    "missing-colon": '{"algebra": {"blocks": [2]}, "map" {"superop": [[1]]}}',
    "unquoted-key": '{"algebra": {"blocks": [2]}, map: {"superop": [[1]]}}',
    "control-character-in-a-key": '{"algebra": {"blocks": [2]}, "ma\x01p": {"superop": [[1]]}}',
    "unterminated-key": '{"algebra": {"blocks": [2]}, "map',
    "bad-algebra": '{"algebra": {"blocks": [2,]}, "map": {"superop": %s}}' % _ROWS,
}


@pytest.mark.parametrize("text", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_text_fails_where_json_loads_fails(text, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode())
    with pytest.raises(MapFileError) as info:
        load_map_file(path)
    assert str(info.value) == _json_loads_message(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"algebra": {"blocks": [1, 1]}, "map": {"superop": [[1, NaN], [0, 1]]}}',
         "map.superop: entries must be finite"),
        ('{"algebra": {"blocks": [1, 1]}, "map": {"superop": [[1, 0], [0, -Infinity]]}}',
         "map.superop: entries must be finite"),
        ('{"algebra": {"blocks": [1, 1]}, "map": {"superop": [[[1, 0], [0, 0]], '
         '[[0, 0], [Infinity, 0]]]}}', "map.superop: entries must be finite"),
        ("[1, 2]", "map file must be an object, got list"),
        ('"map"', "map file must be an object, got str"),
        ('{"algebra": {"blocks": [2]}, "map": [[1]]}', "map must be an object, got list"),
    ],
    ids=["nan", "infinity", "infinity-in-pairs", "list", "string", "map-list"],
)
def test_text_that_json_loads_reads_reaches_the_checks(text, message, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(text)
    with pytest.raises(MapFileError) as info:
        load_map_file(path)
    assert str(info.value) == message


_WHITESPACE = st.text(alphabet=" \t\r\n", max_size=3)
_NUMBERS = st.one_of(st.integers(-(2**64), 2**64), st.floats(allow_nan=False))
_ENTRIES = st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2),
                     st.lists(_NUMBERS, max_size=3), st.none(), st.text(max_size=2))


def _spaced(value, draw):
    """``value`` as JSON text with drawn whitespace around every token."""
    def pad(token):
        return draw(_WHITESPACE) + token + draw(_WHITESPACE)
    if isinstance(value, dict):
        items = [pad(json.dumps(key)) + ":" + _spaced(v, draw) for key, v in value.items()]
    elif isinstance(value, list):
        items = [_spaced(v, draw) for v in value]
    else:
        return pad(json.dumps(value))
    brackets = "{}" if isinstance(value, dict) else "[]"
    return pad(brackets[0] + (",".join(items) or draw(_WHITESPACE)) + brackets[1])


def _assert_decoded_as(decoded, expected):
    if isinstance(decoded, np.ndarray):
        reference = np.asarray(expected)
        assert decoded.dtype == reference.dtype and decoded.shape == reference.shape
        assert decoded.tobytes() == reference.tobytes()
    elif isinstance(decoded, dict):
        assert list(decoded) == list(expected)
        for key in decoded:
            _assert_decoded_as(decoded[key], expected[key])
    elif isinstance(decoded, list):
        assert isinstance(expected, list) and len(decoded) == len(expected)
        for d, e in zip(decoded, expected):
            _assert_decoded_as(d, e)
    else:
        assert type(decoded) is type(expected) and repr(decoded) == repr(expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_decoder_reads_what_json_loads_reads(data):
    rows = st.lists(st.one_of(st.lists(_ENTRIES, max_size=4), _ENTRIES), max_size=4)
    superop = data.draw(st.one_of(rows, _ENTRIES, st.dictionaries(st.text(max_size=2), _ENTRIES)))
    stanza = {"superop": superop} | data.draw(st.dictionaries(st.sampled_from(["preset", "t"]),
                                                              _ENTRIES))
    members = {"algebra": {"blocks": [2]}, "map": stanza, "note": data.draw(_ENTRIES)}
    order = data.draw(st.permutations(list(members)))
    document = {key: members[key] for key in order[:data.draw(st.integers(1, 3))]}
    text = _spaced(document, data.draw)
    expected = json.loads(text)
    decoded = json.loads(text, cls=_RowDecoder)
    _assert_decoded_as(decoded, expected)
    superop = decoded.get("map", {}).get("superop")
    for row in superop if isinstance(superop, list) else ():
        # only a row of numbers or of [re, im] pairs becomes an array
        if isinstance(row, np.ndarray):
            assert row.dtype.kind in "fi" and row.shape[1:] in ((), (2,))


def test_a_large_explicit_map_loads_in_about_twice_its_file_size(tmp_path):
    u = random_unitary(rng_for(47), 12)
    phi = Superoperator(BlockAlgebra((12,)), np.kron(u, u.conj()))
    path = tmp_path / "conj-n12.json"
    path.write_text(dump_json(explicit_map_dict(phi)))
    tracemalloc.start()
    try:
        loaded = load_map_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits_equal(loaded.phi.matrix, phi.matrix)
    # reading the file holds its bytes and its text at once, about 2x its
    # size; a tree of Python lists for the whole superop took over 4x
    assert peak <= 2.5 * path.stat().st_size


# The split read: a large superop's second half is read by a forked child.
# Each test file here is small, so at the real SPLIT_CHARS it is read by the
# serial loop; with SPLIT_CHARS set to 0 the same file takes the split route,
# which must give the same matrix, bit for bit, or the same message.


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child_and_no_fd(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@pytest.fixture
def routes(monkeypatch):
    """How each split read went, one entry per fork: "forked" when the
    parent's loop did not end on the child's comma, "declined" when it did and
    the child sent no array, "taken" when the child's rows were used."""
    if not (os.path.isdir("/proc/self/fd") and mapfile._two_readers(mapfile.SPLIT_CHARS + 1)):
        pytest.skip("this process cannot read a superop with a forked child, or count its fds")
    seen = []
    fork, receive = os.fork, mapfile._receive_rows

    def recorded_fork():
        seen.append("forked")
        return fork()

    def recorded_receive(read):
        received = receive(read)
        seen[-1] = "declined" if received is None else "taken"
        return received

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(mapfile, "_receive_rows", recorded_receive)
    return seen


def _both_routes(path, routes):
    """The outcome of loading ``path`` at the real SPLIT_CHARS and at 0, and
    the route of each fork the second load made; no load leaves a child
    process or an open file descriptor behind."""
    fds = _open_fds()
    serial = _outcome(path)
    assert routes == []
    _assert_no_child_and_no_fd(fds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mapfile, "SPLIT_CHARS", 0)
        split = _outcome(path)
    _assert_no_child_and_no_fd(fds)
    taken = list(routes)
    routes.clear()
    return serial, split, taken


def _pairs(matrix):
    return [[[x.real, x.imag] for x in row] for row in matrix.tolist()]


def _split_matrices():
    rng = rng_for(53)
    cases = {f"seeded-pairs-{n}": _pairs(random_complex(rng_for(53, n), n, n)) for n in (5, 24, 37)}
    re, im = _seeded_entries(6, 24)
    cases["special-pairs"] = [[[x if math.isfinite(x) else 0.5 for x in (a, b)]
                               for a, b in zip(ra, ia)] for ra, ia in zip(re, im)]
    cases["real-rows"] = random_complex(rng, 24, 24).real.tolist()
    cases["integer-pairs"] = rng.integers(-9, 10, size=(24, 24, 2)).tolist()
    floats = _pairs(random_complex(rng, 24, 24))
    integers = rng.integers(-9, 10, size=(24, 24, 2)).tolist()
    cases["integer-then-float-rows"] = integers[:12] + floats[12:]
    cases["alternating-integer-and-float-rows"] = [
        (integers if i % 2 else floats)[i] for i in range(24)]
    cases["integers-among-floats"] = [[pair if (i + j) % 3 else [int(pair[0] * 9), 0]
                                       for j, pair in enumerate(row)]
                                      for i, row in enumerate(floats)]
    return cases


_SPLIT_MATRICES = _split_matrices()


@pytest.mark.parametrize("name", list(_SPLIT_MATRICES))
def test_split_read_gives_the_serial_matrix_bit_for_bit(name, routes, tmp_path):
    obj = _SPLIT_MATRICES[name]
    document = _superop_document(obj)
    forms = _file_forms(document) | {"json-tool": json.dumps(document, indent=4)}
    # real rows hold no comma between rows of pairs, and the child's rows are
    # declined where their dtypes differ; the first of two superops ends
    # before the comma the child starts from
    expected = ["declined" if "alternating" in name else "taken"] if name != "real-rows" else []
    for form, text in forms.items():
        path = tmp_path / f"{form}.json"
        path.write_text(text)
        serial, split, taken = _both_routes(path, routes)
        assert isinstance(serial, np.ndarray) and _bits_equal(serial, _outcome(document)), form
        assert isinstance(split, np.ndarray) and _bits_equal(split, serial), form
        duplicate = form == "duplicate-superop" and expected
        assert taken == ["forked"] * bool(duplicate) + expected, form


def _planted_faults():
    """Map-file texts with one fault, each with the route the split read takes:
    faults in the child's half, where the child declines or its rows are taken
    all the same, faults in the parent's half, and split candidates that are
    no comma between rows."""
    n = 24
    late, early = 3 * n // 4, n // 4
    pairs = _pairs(random_complex(rng_for(61), n, n))

    def document(rows):
        return json.dumps(_superop_document(rows))

    def planted(i, row=None, entry=None):
        rows = [list(r) for r in pairs]
        if entry is not None:
            row = rows[i][:n // 2] + [entry] + rows[i][n // 2 + 1:]
        rows[i] = row
        return document(rows)

    text = document(pairs)
    return {
        "nan": (planted(late, entry=[math.nan, 0.0]), "taken"),
        "infinity": (planted(late, entry=[0.0, -math.inf]), None),
        "string": (planted(late, entry="x"), "declined"),
        "string-in-a-pair": (planted(late, entry=["]], [[", 0.0]), "declined"),
        "ragged-row": (planted(late, pairs[late][:-1]), "declined"),
        "triples": (planted(late, [p + [0.0] for p in pairs[late]]), "declined"),
        "huge-integer": (planted(late, entry=[10**400, 0]), "declined"),
        "deeper-row": (planted(late, [pairs[late]]), "declined"),
        "trailing-garbage": (text[:-2] + " x}}", "taken"),
        "malformed-late": (text[::-1].replace("[ ,]", "[ ]", 1)[::-1], "declined"),
        # a key twice as long as the rest of the text holds the midpoint
        "boundary-in-a-key": (text[:-1] + ', "%s": 1}' % ("]], [[" * (len(text) // 3)), "forked"),
        # the middle row's entries are four pairs each, so the midpoint of the
        # text and the first "]], [[" after it fall inside that row
        "candidate-inside-a-row": (planted(n // 2, [[p] * 4 for p in pairs[n // 2]]), "forked"),
        "string-early": (planted(early, entry="x"), "taken"),
        "ragged-early": (planted(early, pairs[early][:-1]), "taken"),
        "malformed-early": (text.replace("], [", "] [", 1), "forked"),
        "not-square": (document(pairs[:-1]), "taken"),
        # a row nested past the recursion limit in the child's half: the child
        # sends nothing, and the parent's own read raises the serial message
        "nested-past-the-recursion-limit": (
            planted(late, "deep").replace('"deep"', "[" * 5000 + "]" * 5000),
            "declined",
        ),
    }


_PLANTED = _planted_faults()


@pytest.mark.parametrize("name", list(_PLANTED))
def test_split_read_gives_the_serial_message(name, routes, tmp_path):
    text, route = _PLANTED[name]
    path = tmp_path / "map.json"
    path.write_text(text)
    serial, split, taken = _both_routes(path, routes)
    assert isinstance(serial, str)
    assert split == serial
    # a text with an f (Infinity) is read whole, without the row loop
    assert taken == ([route] if route else [])


def test_a_file_above_the_split_size_is_split_and_matches_the_dict_route(routes, tmp_path):
    n = 14
    u = random_unitary(rng_for(67), n)
    phi = Superoperator(BlockAlgebra((n,)), np.kron(u, u.conj()))
    path = tmp_path / "conj-n14.json"
    path.write_text(dump_json(explicit_map_dict(phi)))
    assert path.stat().st_size > mapfile.SPLIT_CHARS
    fds = _open_fds()
    loaded = load_map_file(path)
    _assert_no_child_and_no_fd(fds)
    assert routes == ["taken"]
    assert _bits_equal(loaded.phi.matrix, load_map_file(json.loads(path.read_text())).phi.matrix)


def test_a_parent_side_error_ends_a_child_blocked_on_a_full_pipe(routes, monkeypatch, tmp_path):
    """The child's half holds 48 rows of 96 pairs, 73,728 bytes, more than a
    64 KB pipe buffer, so it blocks on writing while the parent's own loop is
    held up and then fails: the load must fail with the serial message,
    promptly, and leave no child."""
    n = 96
    pairs = _pairs(random_complex(rng_for(71), n, n))
    text = json.dumps(_superop_document(pairs)).replace("], [", "] [", 1)
    path = tmp_path / "map.json"
    path.write_text(text)
    serial = _outcome(path)
    rows = mapfile._rows

    def held_up(text, end, stop=-1):
        if stop >= 0:
            time.sleep(0.5)
        return rows(text, end, stop)

    monkeypatch.setattr(mapfile, "_rows", held_up)
    monkeypatch.setattr(mapfile, "SPLIT_CHARS", 0)
    fds = _open_fds()
    start = time.perf_counter()
    assert _outcome(path) == serial and serial.startswith("cannot parse")
    assert time.perf_counter() - start < 5.0
    _assert_no_child_and_no_fd(fds)
    assert routes == ["forked"]


def test_an_interrupted_parent_ends_a_child_still_reading(routes, monkeypatch, tmp_path):
    """The child would read for a minute; a parent interrupted at once must
    not wait for it, and must leave no child."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_superop_document(_pairs(random_complex(rng_for(73), 24, 24)))))

    def slow_child(text, comma, read, write):
        time.sleep(60)
        os._exit(1)

    def interrupted(text, end, stop=-1):
        raise KeyboardInterrupt

    monkeypatch.setattr(mapfile, "_send_rows", slow_child)
    monkeypatch.setattr(mapfile, "_rows", interrupted)
    monkeypatch.setattr(mapfile, "SPLIT_CHARS", 0)
    fds = _open_fds()
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        load_map_file(path)
    assert time.perf_counter() - start < 5.0
    _assert_no_child_and_no_fd(fds)
    assert routes == ["forked"]


def _exit_at_once(text, comma, read, write):
    os._exit(1)


def _send_a_partial_array(text, comma, read, write):
    os.write(write, json.dumps([len(text), "<f8", [1000, 1000, 2]]).encode().ljust(128) + b"\0" * 64)
    os._exit(0)


@pytest.mark.parametrize("child", [_exit_at_once, _send_a_partial_array])
def test_a_failed_child_falls_back_to_the_serial_read(child, routes, monkeypatch, tmp_path):
    obj = _pairs(random_complex(rng_for(79), 24, 24))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_superop_document(obj)))
    monkeypatch.setattr(mapfile, "_send_rows", child)
    serial, split, taken = _both_routes(path, routes)
    assert taken == ["declined"]
    assert _bits_equal(split, serial)


@pytest.mark.parametrize("host", ["one-cpu", "no-fork", "a-second-thread"])
def test_the_split_needs_two_cpus_fork_and_one_thread(host, routes, monkeypatch, tmp_path):
    obj = _pairs(random_complex(rng_for(83), 24, 24))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_superop_document(obj)))
    monkeypatch.setattr(mapfile, "SPLIT_CHARS", 0)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if host == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif host == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        thread.start()
    try:
        matrix = load_map_file(path).phi.matrix
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert routes == []
    assert _bits_equal(matrix, load_map_file(_superop_document(obj)).phi.matrix)


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


def test_dump_json_raises_on_a_document_that_contains_itself():
    # the encoder does not look for cycles; the recursion limit stops one
    loop = [1.0]
    loop.append(loop)
    with pytest.raises(RecursionError):
        dump_json({"x": loop})
    node = {}
    node["x"] = [node]
    with pytest.raises(RecursionError):
        dump_json(node)


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
        random_complex(rng_for(45), 3, 3).T,
        random_complex(rng_for(46), 5, 5)[::2, 1::2],
    ],
    ids=["complex", "real", "int", "signed-zeros", "transposed", "strided"],
)
def test_matrix_to_json_matches_the_per_entry_encoding(matrix):
    new = matrix_to_json(matrix)
    assert json.dumps(new) == json.dumps(_old_matrix_to_json(matrix))
    assert all(type(v) is float for row in new for pair in row for v in pair)
