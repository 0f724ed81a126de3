import json
import time
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopls import (
    KPartialSquare,
    ParseError,
    from_json,
    from_text_grid,
    load_square,
    save_square,
    to_json,
    to_text_grid,
)
from mopls.formats import MAX_LAYERS, MAX_ORDER, MAX_TEXT_ORDER, json_document

from conftest import maximal_squares_with_holes, partial_squares


@given(partial_squares(max_n=6))
def test_text_round_trip(square):
    text = to_text_grid(square)
    back = from_text_grid(text, k=square.k)
    assert back == square


@given(partial_squares(max_n=6))
def test_json_round_trip(square):
    back = from_json(to_json(square))
    assert back == square


@given(st.one_of(maximal_squares_with_holes(max_n=12), partial_squares(max_n=12, ks=(1, 2, 3, 4))))
@example(KPartialSquare.empty(1, 1))
@example(KPartialSquare.empty(12, 4))
def test_to_json_writes_the_bytes_of_json_dumps(square):
    # the template writer is pinned to the standard encoder's indented output
    assert to_json(square) == json.dumps(json_document(square), indent=2) + "\n"


@pytest.mark.parametrize("name", ["square.json", "square.txt"])
def test_saved_squares_with_bool_and_numpy_values_reload(tmp_path, name):
    square = KPartialSquare.from_cells(
        3, 2, {(0, np.int64(1)): (True, np.int64(2)), (np.int64(2), 0): (np.int64(1), False)}
    )
    path = tmp_path / name
    save_square(square, path)
    back = load_square(path)
    assert back == square
    assert {type(x) for cell, entries in back.cells.items() for x in cell + entries} == {int}
    assert {type(x) for record in json_document(square)["cells"] for x in record["entries"]} == {int}


def test_text_grid_shape():
    sq = KPartialSquare.from_cells(3, 2, {(0, 0): (0, 1), (2, 1): (1, 0)})
    assert to_text_grid(sq) == "12 - -\n- - -\n- 21 -\n"


def test_text_symbols_beyond_nine():
    sq = KPartialSquare.from_cells(12, 1, {(0, 0): (11,), (1, 1): (9,)})
    text = to_text_grid(sq)
    assert text.splitlines()[0].split()[0] == "C"
    assert from_text_grid(text) == sq


def test_text_parse_golden_grids(golden):
    assert golden["mpls_6"].n == 6 and golden["mpls_6"].k == 1
    assert golden["mopls_9"].n == 9 and golden["mopls_9"].k == 2
    assert golden["mopls3_16"].n == 16 and golden["mopls3_16"].k == 3


def test_text_empty_grid_requires_k():
    text = "- - -\n- - -\n- - -\n"
    with pytest.raises(ParseError):
        from_text_grid(text)
    sq = from_text_grid(text, k=2)
    assert sq.n == 3 and sq.k == 2 and sq.filled_count == 0


def test_text_rejects_ragged_rows():
    with pytest.raises(ParseError):
        from_text_grid("1 2\n1\n")


def test_text_rejects_mixed_token_lengths():
    with pytest.raises(ParseError):
        from_text_grid("11 2\n- -\n")


def test_text_rejects_symbol_out_of_range():
    with pytest.raises(ParseError):
        from_text_grid("1 4\n- -\n")  # 4 exceeds order 2
    with pytest.raises(ParseError):
        from_text_grid("0 1\n- -\n")  # symbols are 1-based


@pytest.mark.parametrize("letter", ["\u017f", "\ufb06"], ids=["long-s", "st-ligature"])
def test_text_rejects_letters_that_upper_case_to_a_digit(letter):
    rows = [["-"] * 28 for _ in range(28)]  # order 28 has the symbol S
    rows[0][0] = letter
    with pytest.raises(ParseError, match="is not a symbol"):
        from_text_grid("\n".join(map(" ".join, rows)), k=1)


def test_text_rejects_k_mismatch():
    with pytest.raises(ParseError):
        from_text_grid("11 -\n- -\n", k=1)


def test_text_rejects_invalid_square():
    with pytest.raises(ParseError):
        from_text_grid("1 1\n- -\n")


def test_text_rejects_oversized_order():
    # a square too large for the grid is not malformed input: writing it fails
    sq = KPartialSquare.empty(36, 2)
    with pytest.raises(ValueError) as caught:
        to_text_grid(sq)
    assert type(caught.value) is ValueError


def test_parsers_reject_orders_above_the_maximum():
    doc = {"format": "kpls", "version": 1, "k": 2, "cells": []}
    assert from_json(json.dumps({**doc, "n": MAX_ORDER})).n == MAX_ORDER
    with pytest.raises(ParseError, match="exceeds the supported maximum"):
        from_json(json.dumps({**doc, "n": MAX_ORDER + 1}))
    assert MAX_TEXT_ORDER < MAX_ORDER
    with pytest.raises(ParseError, match="supports n <= 35"):
        from_text_grid("\n".join(["- " * 36] * 36), k=2)


def test_parsers_reject_layer_counts_above_the_maximum():
    doc = {"format": "kpls", "version": 1, "n": 2, "cells": []}
    assert from_json(json.dumps({**doc, "k": MAX_LAYERS})).k == MAX_LAYERS
    started = time.perf_counter()
    with pytest.raises(ParseError, match=f"k=100000 exceeds the supported maximum {MAX_LAYERS}"):
        from_json(json.dumps({**doc, "k": 100000}))
    with pytest.raises(ParseError, match=f"k={MAX_LAYERS + 1} exceeds the supported maximum"):
        from_text_grid("1" * (MAX_LAYERS + 1) + " -\n- -\n")
    with pytest.raises(ParseError, match="k=100000 exceeds the supported maximum"):
        from_text_grid("- -\n- -\n", k=100000)
    assert time.perf_counter() - started < 0.5


def test_json_schema_fields():
    sq = KPartialSquare.from_cells(3, 2, {(2, 1): (1, 0)})
    doc = json.loads(to_json(sq))
    assert doc["format"] == "kpls"
    assert doc["version"] == 1
    assert doc["n"] == 3 and doc["k"] == 2
    assert doc["cells"] == [{"row": 2, "col": 1, "entries": [1, 0]}]


def test_json_ignores_unknown_keys():
    doc = {
        "format": "kpls",
        "version": 1,
        "n": 2,
        "k": 1,
        "cells": [{"row": 0, "col": 0, "entries": [0]}],
        "meta": {"origin": "anywhere"},
    }
    sq = from_json(json.dumps(doc))
    assert sq.entries_at((0, 0)) == (0,)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("format"),
        lambda d: d.update(format="mystery"),
        lambda d: d.update(version=99),
        lambda d: d.pop("n"),
        lambda d: d.update(cells=[{"row": 0, "col": 0}]),
        lambda d: d.update(cells=[{"row": 0, "col": 5, "entries": [0]}]),
        lambda d: d.update(cells="nope"),
    ],
)
def test_json_malformed_documents(mutate):
    doc = {
        "format": "kpls",
        "version": 1,
        "n": 2,
        "k": 1,
        "cells": [{"row": 0, "col": 0, "entries": [0]}],
    }
    mutate(doc)
    with pytest.raises(ParseError):
        from_json(json.dumps(doc))


LENIENT_DOCUMENTS = [
    '{"format": "kpls", "version": 1, "n": 2.7, "k": 1, "cells": []}',
    '{"format": "kpls", "version": 1, "n": "2", "k": 1, "cells": []}',
    '{"format": "kpls", "version": 1, "n": 2, "k": true, "cells": []}',
    '{"format": "kpls", "version": 1, "n": 2, "k": 2, "cells": [{"row": 0, "col": 0, "entries": "01"}]}',
]


@pytest.mark.parametrize("text", LENIENT_DOCUMENTS)
def test_json_fields_must_be_integers_not_values_that_convert(text):
    # each of these once loaded: as order 2, order 2, one layer, and the tuple (0, 1)
    with pytest.raises(ParseError):
        from_json(text)


@pytest.mark.parametrize(
    "cells, message",
    [
        ([{"row": 0, "col": 0, "entries": [True]}], "every entry must be an integer"),
        ([{"row": 0, "col": 0, "entries": [1.5]}], "every entry must be an integer"),
        (
            [{"row": 0, "col": 0, "entries": [0]}, {"row": 0, "col": 0, "entries": [1]}],
            r"duplicate cell \(0, 0\)",
        ),
    ],
    ids=["bool-entry", "float-entry", "duplicate-cell"],
)
def test_json_rejects_non_integer_entries_and_duplicate_cells(cells, message):
    doc = {"format": "kpls", "version": 1, "n": 2, "k": 1, "cells": cells}
    with pytest.raises(ParseError, match=message):
        from_json(json.dumps(doc))


def test_json_rejects_non_json():
    with pytest.raises(ParseError):
        from_json("{not json")


def test_load_square_sniffs_format(tmp_path):
    sq = KPartialSquare.from_cells(2, 1, {(0, 0): (0,)})
    for name, text in (("doc.dat", "\n  " + to_json(sq)), ("grid.dat", to_text_grid(sq))):
        (tmp_path / name).write_text(text)
        assert load_square(tmp_path / name) == sq


def test_save_load_by_suffix(tmp_path):
    sq = KPartialSquare.from_cells(3, 2, {(0, 0): (0, 1)})
    for name in ("square.json", "square.txt"):
        path = tmp_path / name
        save_square(sq, path)
        assert load_square(path) == sq


def test_save_explicit_format_overrides_suffix(tmp_path):
    sq = KPartialSquare.from_cells(3, 2, {(0, 0): (0, 1)})
    path = tmp_path / "square.dat"
    save_square(sq, path, fmt="json")
    assert path.read_text().lstrip().startswith("{")
    assert load_square(path) == sq


def test_load_missing_file_reports_parse_error(tmp_path):
    # unreadable inputs surface as ParseError so callers see one error type
    with pytest.raises(ParseError):
        load_square(tmp_path / "absent.json")


def test_save_square_round_trips_and_rejects_unknown_formats(tmp_path):
    square = KPartialSquare.from_cells(3, 2, {(1, 0): (2, 1), (0, 1): (1, 2)})
    path = tmp_path / "square"
    for fmt in ("json", "text"):
        save_square(square, path, fmt=fmt)
        assert load_square(path, k=2) == square
    save_square(KPartialSquare.empty(4, 3), path, fmt="json")
    assert load_square(path) == KPartialSquare.empty(4, 3)
    with pytest.raises(ValueError):
        save_square(square, tmp_path / "other", fmt="yaml")
    assert [p.name for p in tmp_path.iterdir()] == ["square"]


# -- fuzzing: any input ends in ParseError or a square, never another exception ------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# kpls-shaped documents whose fields hold arbitrary JSON, to get past the format check
square_documents = st.fixed_dictionaries({
    "format": st.just("kpls") | json_values,
    "version": st.just(1) | json_values,
    "n": json_values,
    "k": json_values,
    "cells": json_values | st.lists(
        st.fixed_dictionaries({"row": json_values, "col": json_values, "entries": json_values}), max_size=4
    ),
}).map(json.dumps)
grid_texts = st.text(alphabet="-0129AZaz\u017f\ufb06 \t\n\r\x85\u2028", max_size=40)
deeply_nested = '{"n": ' + "[" * 100_000


@settings(max_examples=300)
@given(st.text() | square_documents)
@example('{"format": "kpls", "version": 1, "n": Infinity, "k": 2, "cells": []}')
@example('{"format": "kpls", "version": 1, "n": 2, "k": 2, "cells": [{"row": 1e400, "col": 0, "entries": [0, 0]}]}')
@example(deeply_nested)
@example(LENIENT_DOCUMENTS[0])
@example(LENIENT_DOCUMENTS[1])
@example(LENIENT_DOCUMENTS[2])
@example(LENIENT_DOCUMENTS[3])
def test_from_json_raises_only_parse_errors(text):
    with suppress(ParseError):
        square = from_json(text)
        # whatever loads is exactly the document: no field was converted
        doc = json.loads(text)
        assert (type(doc["n"]), type(doc["k"])) == (int, int)
        assert json_document(square)["cells"] == sorted(
            ({key: cell[key] for key in ("row", "col", "entries")} for cell in doc["cells"]),
            key=lambda cell: (cell["row"], cell["col"]),
        )


@settings(max_examples=300)
@given(st.text() | grid_texts, st.sampled_from([None, 2]))
def test_from_text_grid_raises_only_parse_errors(text, k):
    with suppress(ParseError):
        from_text_grid(text, k)


@settings(max_examples=300)
@given(st.binary() | grid_texts.map(str.encode) | square_documents.map(str.encode))
@example(deeply_nested.encode())
def test_load_square_raises_only_parse_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "square"
    path.write_bytes(data)
    with suppress(ParseError):
        load_square(path)
