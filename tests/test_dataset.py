import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbsample import dataset
from gbsample.dataset import (
    CATEGORICAL,
    CHUNK_ROWS,
    NULL_TOKEN,
    NUMERIC,
    ColumnSchema,
    GroupKey,
    Relation,
    _split,
    first_occurrence_ids,
    load_csv,
    segments,
    stratum_ids,
)
from gbsample.errors import (
    EmptyFile,
    InvalidArgument,
    MissingColumn,
    NotASubset,
    SchemaMismatch,
    TypeParseError,
    UnknownAttribute,
    UnreadableFile,
)

from conftest import STUDENT_SCHEMA
import reference
from reference import partition, project_key


def test_load_csv_student(student_csv):
    rel = load_csv(student_csv, STUDENT_SCHEMA)
    assert rel.n_rows == 8
    assert rel.numeric("age")[0] == 25.0
    assert rel.categorical("major")[2] == "Math"


def test_load_csv_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,age\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_csv(path, (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC)))


def test_load_csv_empty_schema_keeps_the_row_count(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("id,age\nx,1\ny,2\n", encoding="utf-8")
    rel = load_csv(path, ())
    assert rel.n_rows == 2 and rel.schema == ()
    path.write_text("id,age\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_csv(path, ())


def test_load_csv_no_header(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_csv(path, (ColumnSchema("id", CATEGORICAL),))


def test_load_csv_bad_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,age\nx,abc\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(TypeParseError) as err:
        load_csv(path, schema)
    assert err.value.column == "age"
    assert err.value.row == 0


def test_load_csv_missing_numeric_cell_is_error(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("id,age\nx,\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(TypeParseError):
        load_csv(path, schema)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("id\nx\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(MissingColumn):
        load_csv(path, schema)


def test_load_csv_trims_and_nulls(tmp_path):
    path = tmp_path / "trim.csv"
    path.write_text("id,grp\n1,  CS \n2,\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("grp", CATEGORICAL))
    rel = load_csv(path, schema)
    assert rel.categorical("grp") == ["CS", NULL_TOKEN]
    # the null token forms its own stratum
    assert len(partition(rel, ["grp"])) == 2


def test_partition_by_major(student_rel):
    buckets = partition(student_rel, ["major"])
    assert len(buckets) == 4
    sizes = {key.values[0]: len(rows) for key, rows in buckets.items()}
    assert sizes == {"CS": 2, "Math": 2, "EE": 2, "ME": 2}


def test_partition_injective_key(student_rel):
    buckets = partition(student_rel, ["id"])
    assert len(buckets) == 8
    assert all(len(rows) == 1 for rows in buckets.values())


def test_partition_major_college(student_rel):
    buckets = partition(student_rel, ["major", "college"])
    got = {key.values for key in buckets}
    assert got == {
        ("CS", "Science"),
        ("Math", "Science"),
        ("EE", "Engineering"),
        ("ME", "Engineering"),
    }
    assert all(len(rows) == 2 for rows in buckets.values())


def test_partition_empty_attrs(student_rel):
    buckets = partition(student_rel, [])
    assert list(buckets) == [GroupKey((), ())]
    assert buckets[GroupKey((), ())] == list(range(8))


def test_partition_unknown_attribute(student_rel):
    with pytest.raises(UnknownAttribute):
        partition(student_rel, ["age"])  # numeric column
    with pytest.raises(UnknownAttribute):
        partition(student_rel, ["nope"])
    with pytest.raises(UnknownAttribute):
        stratum_ids(student_rel, ["major", "age"])


def test_project_key_basic():
    key = GroupKey(("major", "year", "zipcode"), ("CS", "2020", "50011"))
    assert project_key(key, ["major", "year"]) == GroupKey(
        ("major", "year"), ("CS", "2020")
    )
    assert project_key(key, key.attrs) == key
    assert project_key(key, ["zipcode"]) == GroupKey(("zipcode",), ("50011",))


def test_project_key_not_subset():
    key = GroupKey(("major",), ("CS",))
    with pytest.raises(NotASubset):
        project_key(key, ["college"])


def test_group_key_validation():
    with pytest.raises(ValueError):
        GroupKey(("a", "b"), ("x",))
    assert str(GroupKey((), ())) == "(*)"
    assert str(GroupKey(("m",), ("CS",))) == "(m=CS)"


def test_relation_construction_errors():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))
    with pytest.raises(ValueError):
        Relation(schema, {"g": ["a", "b"], "v": [1.0]})
    dup = (ColumnSchema("g", CATEGORICAL), ColumnSchema("g", CATEGORICAL))
    with pytest.raises(ValueError):
        Relation(dup, {"g": ["a"]})
    with pytest.raises(ValueError):
        ColumnSchema("x", "text")


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("id,age\nx,nan\n", encoding="utf-8")
    schema = (ColumnSchema("id", CATEGORICAL), ColumnSchema("age", NUMERIC))
    with pytest.raises(TypeParseError):
        load_csv(path, schema)


# ---------------------------------------------------------------------------
# the chunked loader

_LOADED = (
    ColumnSchema("k", CATEGORICAL),
    ColumnSchema("x", NUMERIC),
    ColumnSchema("g", CATEGORICAL),
    ColumnSchema("y", NUMERIC),
)


#: stand for NUL and carriage return in the cells given to ``csv.writer``,
#: which need not write a NUL, nor leave a carriage return unquoted, on
#: every Python
_MARKS = {"\0": "\ue000", "\r": "\ue001"}


def _write_rows(path, rows, header=("k", "x", "g", "y"), line_end="\n"):
    """``rows`` (lists of cells, or None for a blank line) under ``header``
    as CSV text with ``line_end`` after every line, written as UTF-8; a NUL
    or a carriage return in a cell is written as it is, unquoted, and a
    lone surrogate becomes an invalid byte."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=line_end)
    writer.writerow(header)
    for row in rows:
        if row is None:
            out.write(line_end)
        else:
            for char, mark in _MARKS.items():
                row = [cell.replace(char, mark) for cell in row]
            writer.writerow(row)
    text = out.getvalue()
    for char, mark in _MARKS.items():
        text = text.replace(mark, char)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _outcome(load, path, schema=_LOADED):
    """What ``load`` makes of the file: the exception's type and text, or
    the row count, every categorical column's levels and code bytes and
    every numeric column's float bytes."""
    try:
        rel = load(path, schema)
    except Exception as exc:
        return type(exc), str(exc)
    columns = []
    for c in schema:
        if c.kind == CATEGORICAL:
            codes, levels = rel.encoded(c.name)
            columns.append((levels, codes.dtype.str, codes.tobytes()))
        else:
            values = rel.numeric(c.name)
            columns.append((values.dtype.str, values.tobytes()))
    return rel.n_rows, columns


_PLAIN_KEYS = ["CS", " CS ", "", "  ", "p|q", "Zürich", "東京"]
#: keys ``csv.writer`` quotes (a newline only with a ``\n`` line end)
_QUOTED_KEYS = ["a,b", "two\nlines", 'say "hi"']
_KEY_CELLS = _PLAIN_KEYS + _QUOTED_KEYS
_GOOD_NUMBERS = ["1", "2.5", " 3.5 ", "-0.0", "1_0", "1e-300", "7"]
_BAD_NUMBERS = ["", "nan", "inf", "-inf", "1e400", "0x10", "abc", " "]
#: a cell longer than the largest field ``csv.reader`` reads
_LONG_CELL = "z" * (csv.field_size_limit() + 1)
_CELLS = _KEY_CELLS + _GOOD_NUMBERS + _BAD_NUMBERS + [
    NULL_TOKEN, "new", "\udcff", "C\0S", "\0", _LONG_CELL
]
_EDITS = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 4), st.sampled_from(_CELLS)),
    st.tuples(st.just("short"), st.integers(0, 3)),
    st.tuples(st.just("extra"), st.sampled_from(_CELLS)),
    st.tuples(st.just("blank")),
)
#: what makes a chunk fail the split route's test: a quote, a carriage
#: return inside a line or before its newline, a NUL, a line longer than
#: ``csv.field_size_limit()``, and a short or a long row
_SPLIT_BREAKERS = ['say "hi"', "C\rS", "7\r", "C\0S", _LONG_CELL, "short", "extra"]


def _checked_split(lines, ncols, positions, limit):
    """:func:`dataset._split`, checked: the lines of every chunk it splits
    hold no NUL (which ``csv.reader`` rejects on Python 3.10), and
    ``csv.reader`` cuts them into the same cells.  A failed check is kept
    in :data:`_SPLIT_FAULTS`, since an error raised here would reach the
    loader."""
    columns = _split(lines, ncols, positions, limit)
    if columns is not None:
        try:
            rows = list(csv.reader(lines))
            same = [[row[i] for row in rows] for i in positions] == columns
        except (csv.Error, IndexError):
            same = False
        if not same or any("\0" in line for line in lines):
            _SPLIT_FAULTS.append(lines)
    return columns


_SPLIT_FAULTS: list = []


@settings(max_examples=200)
@given(st.data())
def test_load_csv_equals_the_row_at_a_time_loader(tmp_path_factory, data):
    """On generated CSV text (quoted cells holding ``,``, ``|`` or a
    newline, non-ASCII, padded and empty keys, blank lines, short rows,
    extra columns, numeric cells that are empty, non-finite, out of range
    or in Python-only syntax, cells holding NUL or longer than
    ``csv.field_size_limit()``, and ``\n``, ``\r\n`` or ``\r`` line
    ends) the chunked loader gives the relation of the row-at-a-time one,
    bit for bit, or raises the same error.  Its keys are often all
    unquoted, so the chunks are split until an edit (in any chunk) puts in
    a cell that quotes or ends a line, a NUL, a long line or a row of
    another width; a file of more than one chunk gets one such edit after
    its first chunk, so the split route meets it after a chunk it split.
    Every chunk the split route takes must be one ``csv.reader`` cuts the
    same way (:func:`_checked_split`)."""
    header = data.draw(st.permutations(["k", "x", "g", "y", "extra"]))
    header = data.draw(st.sampled_from([header] * 7 + [header[1:]]))
    # a clean lead: plain keys, newlines and no edit but the late one, so
    # the first chunk is split and the late edit is the only break
    clean_lead = data.draw(st.booleans())
    lengths = [1025, 1500, 2049] if clean_lead else [0, 1, 1023, 1024, 1025, 1500, 2049]
    n = data.draw(st.sampled_from(lengths))
    keys = _PLAIN_KEYS if clean_lead else data.draw(st.sampled_from([_PLAIN_KEYS, _KEY_CELLS]))
    line_end = "\n" if clean_lead else data.draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    palette = data.draw(
        st.lists(
            st.fixed_dictionaries({
                "k": st.sampled_from(keys),
                "g": st.sampled_from(keys),
                "x": st.sampled_from(_GOOD_NUMBERS),
                "y": st.sampled_from(_GOOD_NUMBERS),
                "extra": st.sampled_from(keys),
            }),
            min_size=1,
            max_size=4,
        )
    )
    rows = [[palette[r % len(palette)][h] for h in header] for r in range(n)]
    edits = [] if clean_lead else data.draw(
        st.lists(st.tuples(st.integers(0, 2048), _EDITS), max_size=6)
    )
    if n > CHUNK_ROWS:
        late = CHUNK_ROWS + data.draw(st.integers(0, n - CHUNK_ROWS - 1))
        breaker, column = data.draw(st.sampled_from(_SPLIT_BREAKERS)), data.draw(st.integers(0, 4))
        edit = {"short": ("short", 1 + column % 3), "extra": ("extra", "CS")}
        edits.append((late, edit.get(breaker, ("cell", column, breaker))))
    blanks = set()
    for at, edit in edits:
        if not rows:
            break
        row = rows[at % n]
        if edit[0] == "cell" and row:
            row[edit[1] % len(row)] = edit[2]
        elif edit[0] == "short":
            del row[edit[1]:]
        elif edit[0] == "extra":
            row.append(edit[1])
        else:
            blanks.add(at % n)
    rows = [line for r, row in enumerate(rows) for line in ([None, row] if r in blanks else [row])]
    path = _write_rows(tmp_path_factory.mktemp("load") / "data.csv", rows, header, line_end)
    _SPLIT_FAULTS.clear()
    with mock.patch.object(dataset, "_split", _checked_split):
        got = _outcome(load_csv, path)
    assert got == _outcome(reference.load_csv, path)
    assert _SPLIT_FAULTS == []


def _filled(n, keys=("CS",), header=("k", "x", "g", "y")):
    """``n`` valid rows over ``header``, the key column cycling through ``keys``."""
    return [[keys[r % len(keys)], "1.5", "G", "2.5"][: len(header)] for r in range(n)]


@pytest.mark.parametrize("bad_row", [CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS])
def test_a_bad_numeric_cell_at_a_chunk_boundary_names_its_row(tmp_path, bad_row):
    rows = _filled(2 * CHUNK_ROWS + 10)
    rows[bad_row][1] = "abc"
    with pytest.raises(TypeParseError) as err:
        load_csv(_write_rows(tmp_path / "bad.csv", rows), _LOADED)
    assert (err.value.row, err.value.column, err.value.value) == (bad_row, "x", "abc")


def test_the_first_bad_cell_in_row_major_order_is_reported(tmp_path):
    """A non-finite ``y`` in a row beats a parse error in ``x`` in the next
    row, though ``x`` comes first in the schema."""
    rows = _filled(1100)
    rows[1030][3] = "inf"
    rows[1031][1] = "abc"
    with pytest.raises(TypeParseError) as err:
        load_csv(_write_rows(tmp_path / "bad.csv", rows), _LOADED)
    assert (err.value.row, err.value.column, err.value.value) == (1030, "y", "inf")


def test_levels_are_numbered_by_first_occurrence_across_chunks(tmp_path):
    """A level seen padded in a later chunk keeps the code it got in the
    first, and a level first seen in the third chunk takes the next code."""
    rows = _filled(2 * CHUNK_ROWS + 5, keys=("CS", "EE"))
    rows[CHUNK_ROWS + 3][0] = " CS "
    rows[2 * CHUNK_ROWS + 1][0] = "Math"
    codes, levels = load_csv(_write_rows(tmp_path / "data.csv", rows), _LOADED).encoded("k")
    assert levels == ("CS", "EE", "Math")
    assert codes[CHUNK_ROWS + 3] == codes[0] == 0
    assert codes[2 * CHUNK_ROWS + 1] == 2
    assert codes.tolist() == [levels.index(row[0].strip()) for row in rows]


def test_a_bad_numeric_cell_before_an_unreadable_row_is_reported(tmp_path):
    """Rows are parsed up to the one the reader cannot read, so a bad cell
    before it names its row, as when the file is read row by row; without
    that cell the file is unreadable."""
    rows = _filled(CHUNK_ROWS)
    rows[900][0] = "z" * (csv.field_size_limit() + 1)
    rows[5][3] = "nan"
    path = _write_rows(tmp_path / "bad.csv", rows)
    with pytest.raises(TypeParseError) as err:
        load_csv(path, _LOADED)
    assert (err.value.row, err.value.column) == (5, "y")
    rows[5][3] = "2.5"
    with pytest.raises(UnreadableFile):
        load_csv(_write_rows(path, rows), _LOADED)


def test_short_rows_pad_only_the_cells_they_lack(tmp_path):
    """A short row's missing categorical cells are null; the cells it has
    keep their values, whichever chunk the row falls in."""
    rows = [["1.5", "CS", "G"] for _ in range(CHUNK_ROWS + 2)]
    rows[3] = ["2"]
    rows[CHUNK_ROWS + 1] = ["4", "EE"]
    path = _write_rows(tmp_path / "short.csv", rows, header=("x", "k", "g"))
    schema = _LOADED[:3]
    rel = load_csv(path, schema)
    assert rel.records([2, 3, CHUNK_ROWS + 1]) == [
        ("CS", 1.5, "G"), (NULL_TOKEN, 2.0, NULL_TOKEN), ("EE", 4.0, NULL_TOKEN)
    ]
    assert _outcome(load_csv, path, schema) == _outcome(reference.load_csv, path, schema)


#: the header of the split-route files: ``g`` last, so that a short row
#: leaves only a categorical cell out
_SPLIT_HEADER = ("x", "y", "k", "g")
_SPLIT_SCHEMA = [ColumnSchema(h, NUMERIC if h in "xy" else CATEGORICAL) for h in _SPLIT_HEADER]
#: the line, in the second chunk, that each split-route test changes
_AT = CHUNK_ROWS + 500


def _split_lines(n=2 * CHUNK_ROWS + 5):
    """``n`` valid unquoted data lines over :data:`_SPLIT_HEADER`."""
    return [f"{r % 7}.5,{r % 5},k{r % 3},g{r % 2}\n" for r in range(n)]


def _write_lines(path, lines):
    """The header and ``lines`` as the file's text; a lone surrogate
    becomes an invalid byte."""
    text = ",".join(_SPLIT_HEADER) + "\n" + "".join(lines)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _splits(lines):
    """Whether the split route takes the chunk ``lines``."""
    return _split(lines, len(_SPLIT_HEADER), [0, 1, 2, 3], csv.field_size_limit()) is not None


#: per condition of the split route's test, lines that fail only it
_SPLIT_FAILURES = {
    "quote": {_AT: '1.5,2,"k0",g1\n'},
    "lone carriage return": {_AT: "1.5,2,k0,g1\r"},
    "carriage return before newline": {_AT: "1.5,2,k0,g1\r\n"},
    "NUL": {_AT: "1.5,2,k\0,g1\n"},
    "comma count": {_AT: "1.5,2,k0,g1,extra\n", _AT + 1: "1.5,2,k0\n"},
    "line length": {_AT: f"1.5,2,{'z' * csv.field_size_limit()},g1\n"},
}


def test_unquoted_chunks_take_the_split_route(tmp_path):
    """Every chunk of a valid unquoted file is split, a line exactly as long
    as ``csv.field_size_limit()`` included, and the relation is the
    row-at-a-time loader's."""
    lines = _split_lines()
    limit = csv.field_size_limit()
    lines[_AT] = "1.5,2,k0," + "g" * (limit - len("1.5,2,k0,\n")) + "\n"
    assert len(lines[_AT]) == limit
    assert all(_splits(lines[i:i + CHUNK_ROWS]) for i in range(0, len(lines), CHUNK_ROWS))
    path = _write_lines(tmp_path / "data.csv", lines)
    got = _outcome(load_csv, path, _SPLIT_SCHEMA)
    assert got == _outcome(reference.load_csv, path, _SPLIT_SCHEMA)


@pytest.mark.parametrize("condition", list(_SPLIT_FAILURES))
def test_a_chunk_that_fails_the_split_test_takes_the_csv_route(tmp_path, condition):
    """A chunk with a quote, a carriage return, a NUL (which ``csv.reader``
    rejects on Python 3.10 only), a line of another comma count or a line
    longer than ``csv.field_size_limit()`` is not split: from it on the
    file is read by ``csv.reader``, so the relation, or the error, is the
    row-at-a-time loader's on every Python."""
    lines = _split_lines()
    for at, line in _SPLIT_FAILURES[condition].items():
        lines[at] = line
    assert _splits(lines[:CHUNK_ROWS])
    assert not _splits(lines[CHUNK_ROWS:2 * CHUNK_ROWS])
    path = _write_lines(tmp_path / "data.csv", lines)
    got = _outcome(load_csv, path, _SPLIT_SCHEMA)
    assert got == _outcome(reference.load_csv, path, _SPLIT_SCHEMA)


def test_a_read_error_stops_the_split_route(tmp_path):
    """The lines read before an invalid UTF-8 byte are parsed as
    ``csv.reader`` parses them, and then the file is unreadable, as when it
    is read row by row; a bad numeric cell before the byte is reported
    first."""
    lines = _split_lines()
    lines[_AT] = "1.5,2,k\udcff,g1\n"
    path = _write_lines(tmp_path / "data.csv", lines)
    with pytest.raises(UnreadableFile):
        load_csv(path, _SPLIT_SCHEMA)
    got = _outcome(load_csv, path, _SPLIT_SCHEMA)
    assert got == _outcome(reference.load_csv, path, _SPLIT_SCHEMA)
    lines[CHUNK_ROWS + 2] = "nan,2,k0,g1\n"
    with pytest.raises(TypeParseError) as err:
        load_csv(_write_lines(path, lines), _SPLIT_SCHEMA)
    assert (err.value.row, err.value.column) == (CHUNK_ROWS + 2, "x")


@pytest.mark.parametrize("first", [CHUNK_ROWS, CHUNK_ROWS + 300, 2 * CHUNK_ROWS])
def test_a_quote_first_seen_in_a_later_chunk(tmp_path, first):
    """A quoted cell first met after the first chunk, and a quoted newline
    that spans two chunks' lines, parse as ``csv.reader`` parses them."""
    rows = _filled(2 * CHUNK_ROWS + 10, keys=("CS", "EE"))
    rows[first][0] = 'say "hi"'
    rows[first - 1][2] = "two\nlines"
    path = _write_rows(tmp_path / "data.csv", rows)
    assert _outcome(load_csv, path) == _outcome(reference.load_csv, path)
    rel = load_csv(path, _LOADED)
    assert rel.records([first - 1, first]) == [
        ("CS" if (first - 1) % 2 == 0 else "EE", 1.5, "two\nlines", 2.5),
        ('say "hi"', 1.5, "G", 2.5),
    ]


# ---------------------------------------------------------------------------
# the stratum kernels


#: ``first_occurrence_ids`` indexes an array by value when ``max + 1`` is at
#: most this many times the count of values, and calls ``np.unique`` otherwise
DENSE_RATIO = 4


def _values(n, top, seed=0):
    """``n`` values below ``top``, the largest ``top - 1``."""
    values = np.random.default_rng(seed).integers(0, top, n) if n else np.zeros(0, np.intp)
    if n:
        values[seed % n] = top - 1
    return values


@pytest.mark.parametrize(
    "n, top",
    [(0, 0), (1, 1), (1, DENSE_RATIO), (1, DENSE_RATIO + 1), (2, 3),
     (1000, 10), (1000, DENSE_RATIO * 1000), (1000, DENSE_RATIO * 1000 + 1), (1000, 10**12)],
)
def test_first_occurrence_ids_equal_the_unique_form(n, top):
    """On both sides of the dense bound, ``max + 1 <= DENSE_RATIO * n``."""
    for seed in range(3):
        values = _values(n, top, seed)
        got, want = first_occurrence_ids(values), reference.first_occurrence_ids(values)
        for have, expect in zip(got, want):
            assert have.dtype == expect.dtype == np.intp
            assert have.tolist() == expect.tolist()


@given(st.lists(st.integers(0, 60), max_size=40), st.integers(1, 10**6))
def test_first_occurrence_ids_match_the_unique_form_at_any_spread(values, scale):
    values = np.asarray(values, dtype=np.intp) * scale
    got, want = first_occurrence_ids(values), reference.first_occurrence_ids(values)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


@pytest.mark.parametrize(
    "n, count",
    [(0, 0), (0, 65537), (1, 1), (1, 65537), (70000, 7), (70000, 65536), (70000, 65537)],
)
def test_segments_equal_the_stable_argsort_of_intp_ids(n, count):
    """On both sides of 65536 strata, the most whose ids fit ``uint16``."""
    ids = np.random.default_rng(n + count).integers(0, count, n) if n else np.zeros(0, np.intp)
    if n > count:
        ids[:count] = np.arange(count)[::-1]
    got, want = segments(ids, count), reference.segments(ids, count)
    for have, expect in zip(got, want):
        assert have.dtype == expect.dtype == np.intp
        assert have.tolist() == expect.tolist()


# ---------------------------------------------------------------------------
# properties

_rows = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.sampled_from("xyz"),
        st.floats(-100, 100, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _rel_from(rows):
    schema = (
        ColumnSchema("g1", CATEGORICAL),
        ColumnSchema("g2", CATEGORICAL),
        ColumnSchema("v", NUMERIC),
    )
    return Relation.from_records(schema, rows)


@given(_rows)
def test_partition_is_disjoint_cover(rows):
    rel = _rel_from(rows)
    for attrs in ([], ["g1"], ["g2"], ["g1", "g2"], ["g2", "g1"]):
        buckets = partition(rel, attrs)
        seen = [r for rows_ in buckets.values() for r in rows_]
        assert sorted(seen) == list(range(rel.n_rows))
        assert all(rows_ for rows_ in buckets.values())
        # stratum ids number the same strata in the same order
        ids, values = stratum_ids(rel, attrs)
        assert values == [key.values for key in buckets]
        assert [list(np.flatnonzero(ids == k)) for k in range(len(values))] == list(
            buckets.values()
        )


@given(_rows)
def test_partition_refinement(rows):
    """Every (g1, g2) stratum sits inside exactly the g1 stratum that
    project_key names."""
    rel = _rel_from(rows)
    fine = partition(rel, ["g1", "g2"])
    coarse = partition(rel, ["g1"])
    for key, members in fine.items():
        target = project_key(key, ["g1"])
        assert set(members) <= set(coarse[target])


@given(_rows, st.data())
def test_take_gathers_rows_and_renumbers_codes(rows, data):
    """``take`` holds the chosen rows in the chosen order, with codes
    renumbered by first occurrence among them, so ``stratum_ids`` on the
    taken relation numbers its strata as on the same rows built afresh."""
    rel = _rel_from(rows)
    chosen = data.draw(st.lists(st.integers(0, rel.n_rows - 1), max_size=30))
    taken = rel.take(chosen)
    afresh = Relation.from_records(rel.schema, rel.records(chosen))
    assert len(taken) == len(chosen)
    assert taken.records(range(len(chosen))) == afresh.records(range(len(chosen)))
    for name in ("g1", "g2"):
        assert taken.encoded(name).codes.tolist() == afresh.encoded(name).codes.tolist()
        assert taken.encoded(name).levels == afresh.encoded(name).levels
    for attrs in ([], ["g1"], ["g2", "g1"]):
        got, want = stratum_ids(taken, attrs), stratum_ids(afresh, attrs)
        assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])


_KEY_TEXT = st.sampled_from(["a", "", ",", "a,b", "|", "x|y", "Zürich", "東京", NULL_TOKEN])
_GROUPED = (
    ColumnSchema("g1", CATEGORICAL),
    ColumnSchema("g2", CATEGORICAL),
    ColumnSchema("g3", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
)


@given(
    st.lists(st.tuples(_KEY_TEXT, _KEY_TEXT, _KEY_TEXT, st.just(1.0)), min_size=1, max_size=40),
    st.data(),
)
def test_strata_equal_the_uncached_kernels(rows, data):
    """``Relation.strata`` holds exactly what ``stratum_ids`` and
    ``segments`` compute, for every grouping in every attribute order, on
    relations built from records and made by ``take``."""
    rel = Relation.from_records(_GROUPED, rows)
    taken = rel.take(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=30)))
    groupings = [(), ("g1",), ("g2", "g1"), ("g1", "g2", "g3"), ("g3", "g1", "g2")]
    groupings.append(data.draw(st.permutations(["g1", "g2", "g3"])))
    groupings.append(data.draw(st.lists(st.sampled_from(["g1", "g2", "g3"]), unique=True)))
    for r in (rel, taken):
        for attrs in groupings:
            ids, keys = stratum_ids(r, attrs)
            order, bounds = segments(ids, len(keys))
            got = r.strata(attrs)
            assert got.keys == tuple(keys)
            for have, want in ((got.ids, ids), (got.order, order), (got.bounds, bounds)):
                assert have.dtype == want.dtype and have.tolist() == want.tolist()
            assert r.strata(list(attrs)) is got


def test_strata_are_read_only_and_computed_once(student_rel):
    for attrs in ((), ("major",), ("major", "college")):
        strata = student_rel.strata(attrs)
        assert student_rel.strata(list(attrs)) is strata
        assert isinstance(strata.keys, tuple)
        for arr in (strata.ids, strata.order, strata.bounds):
            with pytest.raises(ValueError):
                arr[0] = 1
    assert student_rel.strata(("college", "major")) is not student_rel.strata(
        ("major", "college")
    )


def test_strata_of_an_unknown_attribute_raise_on_every_call(student_rel):
    for attrs in (("nope",), ("major", "nope"), ("age",), ("college", "gpa")):
        for _ in range(2):
            with pytest.raises(UnknownAttribute):
                student_rel.strata(attrs)
    assert student_rel._memo == {}


def test_a_relation_without_columns_keeps_its_row_count():
    rel = Relation((), {}, 3)
    assert len(rel) == 3 and rel.records(range(3)) == [(), (), ()]
    assert len(Relation.from_records((), [(), ()])) == 2
    assert len(_rel_from([("a", "x", 1.0)] * 4).take([0, 2])) == 2
    with pytest.raises(ValueError):
        Relation((ColumnSchema("v", NUMERIC),), {"v": [1.0]}, 2)


_RECORD_SCHEMA = (ColumnSchema("g", CATEGORICAL), ColumnSchema("v", NUMERIC))


@pytest.mark.parametrize(
    "bad, message",
    [
        (("a", 1.0, 9.9), r"^record \('a', 1.0, 9.9\) is 3 wide, the schema 2$"),
        (("a",), r"^record \('a',\) is 1 wide, the schema 2$"),
        (("a", "oops"), r"^record \('a', 'oops'\): column 'v' cannot hold 'oops'$"),
        ((["x"], 1.0), r"^record \(\['x'\], 1.0\): column 'g' cannot hold \['x'\]$"),
    ],
    ids=["long", "short", "non-numeric", "unhashable"],
)
def test_from_records_rejects_a_record_that_does_not_fit_the_schema(bad, message):
    good = ("b", 2.0)
    for records in ([bad], [good, bad, good]):
        with pytest.raises(SchemaMismatch, match=message):
            Relation.from_records(_RECORD_SCHEMA, records)


def test_from_records_keeps_duplicate_names_an_invalid_argument():
    schema = (ColumnSchema("g", CATEGORICAL), ColumnSchema("g", NUMERIC))
    with pytest.raises(InvalidArgument, match="^duplicate column names in schema$"):
        Relation.from_records(schema, [("a", 1.0)])
