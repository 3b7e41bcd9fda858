import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from survbench.bench import write_csv
from survbench.cox import fit_cox
from survbench.data import (
    Cohort,
    Column,
    CovariateSchema,
    DegenerateColumnError,
    ParseError,
    SchemaError,
    cohort_table,
    column_list,
    encode,
    encode_like,
    infer_schema,
    ingest_csv,
    split,
)

from conftest import cohorts_equal, numeric_cohort


def mixed_cohort(n=8):
    schema = CovariateSchema(
        columns=(
            Column("age", "numeric"),
            Column("group", "categorical", levels=("a", "b", "c")),
        )
    )
    return Cohort(
        schema=schema,
        covariates={
            "age": np.arange(n, dtype=float),
            "group": np.array(list("abcabcab")[:n], dtype=object),
        },
        time=np.linspace(1.0, 2.0, n),
        event=np.array([1, 0] * (n // 2)),
    )


# --- cohort validation ---------------------------------------------------


def test_negative_time_rejected():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        numeric_cohort([[1.0], [2.0]], [1.0, -0.5], [1, 0])


def test_nonfinite_time_rejected():
    with pytest.raises(ValueError):
        numeric_cohort([[1.0], [2.0]], [1.0, np.inf], [1, 0])


def test_bad_event_value_rejected():
    with pytest.raises(ValueError, match="0 or 1"):
        numeric_cohort([[1.0], [2.0]], [1.0, 2.0], [1, 2])


def test_unknown_level_rejected():
    schema = CovariateSchema((Column("g", "categorical", levels=("a", "b")),))
    with pytest.raises(ValueError, match="unknown levels"):
        Cohort(schema, {"g": np.array(["a", "z"], dtype=object)}, [1.0, 2.0], [1, 1])


def test_missing_covariate_rejected():
    schema = CovariateSchema((Column("x", "numeric"),))
    with pytest.raises(ValueError, match="missing covariate"):
        Cohort(schema, {}, [1.0], [1])


def test_subset_and_equals():
    c = mixed_cohort()
    sub = c.subset([0, 2, 4])
    assert sub.n == 3
    assert sub.time[1] == c.time[2]
    assert cohorts_equal(c, c.subset(np.arange(c.n)))
    assert not cohorts_equal(c, sub)


def test_counts():
    c = mixed_cohort()
    assert c.n == 8
    assert c.n_events == 4
    assert c.censoring_rate == 0.5


# --- encoding ------------------------------------------------------------


def test_one_hot_drops_reference_level():
    c = mixed_cohort()
    d = encode(c)
    assert d.names == ["age", "group=b", "group=c"]
    # row 0 is level "a": both indicators zero
    assert d.X[0, 1] == 0.0 and d.X[0, 2] == 0.0
    assert d.X[1, 1] == 1.0 and d.X[1, 2] == 0.0
    assert d.X[2, 1] == 0.0 and d.X[2, 2] == 1.0
    assert not d.standardized


def test_one_level_categorical_encodes_to_no_column():
    s = infer_schema(["a", "g"], [["1.5", "2", "3"], ["x", "x", "x"]])
    assert s.columns[1] == Column("g", "categorical", levels=("x",))
    c = Cohort(s, {"a": [1.5, 2.0, 3.0], "g": ["x", "x", "x"]}, [1.0, 2.0, 3.0], [1, 0, 1])
    d = encode(c, standardize=True)
    assert d.names == ["a"] and d.X.shape == (3, 1)


def test_encode_carries_outcomes():
    c = mixed_cohort()
    d = encode(c)
    assert np.array_equal(d.times, c.time)
    assert np.array_equal(d.events, c.event)
    assert d.n == c.n and d.p == 3


def test_standardize_moments():
    c = mixed_cohort()
    d = encode(c, standardize=True)
    assert d.standardized
    np.testing.assert_allclose(d.X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(d.X.std(axis=0), 1.0, atol=1e-12)


def test_standardize_is_population_sd():
    # ddof=0, not the n-1 flavor
    c = numeric_cohort([[0.0], [2.0]], [1.0, 2.0], [1, 1])
    d = encode(c, standardize=True)
    assert d.sds[0] == pytest.approx(1.0)  # population sd of {0, 2}
    np.testing.assert_allclose(d.X[:, 0], [-1.0, 1.0])


def test_constant_column_refuses_standardization():
    c = numeric_cohort([[5.0, 1.0], [5.0, 2.0]], [1.0, 2.0], [1, 1])
    with pytest.raises(DegenerateColumnError, match="x0"):
        encode(c, standardize=True)
    # without standardization the constant column is allowed
    assert encode(c).X.shape == (2, 2)


def test_column_whose_sd_overflows_refuses_standardization():
    # a cell of 1e200 overflows the sd of x1, and two cells of 1.7e308 overflow its sum
    for x1 in ([1e200, 1.0, 2.0], [1.7e308, 1.7e308, 0.0]):
        c = numeric_cohort(np.column_stack([[1.0, 2.0, 3.0], x1]), [1.0, 2.0, 3.0], [1, 1, 1])
        with pytest.raises(DegenerateColumnError, match=r"sd is not finite .*\['x1'\]"):
            encode(c, standardize=True)


def test_refusals_name_five_columns_and_count_the_rest():
    # eight constant columns beside one that varies, refused by encode and by fit_cox
    X = np.column_stack([np.full((3, 8), 5.0), [1.0, 2.0, 3.0]])
    c = numeric_cohort(X, [1.0, 2.0, 3.0], [1, 1, 1])
    names = "['x0', 'x1', 'x2', 'x3', 'x4', ... and 3 more]"
    with pytest.raises(DegenerateColumnError) as info:
        encode(c, standardize=True)
    assert str(info.value) == f"constant design column(s) cannot be standardized: {names}"
    with pytest.raises(ValueError) as info:
        fit_cox(encode(c))
    assert str(info.value) == f"constant design column(s): {names}"
    assert column_list(["x0", "x1"]) == str(["x0", "x1"])


def test_encode_like_replays_affine_map():
    rng = np.random.default_rng(5)
    train = numeric_cohort(rng.normal(3.0, 2.0, (40, 2)), rng.uniform(1, 5, 40),
                           np.ones(40, dtype=int))
    test = numeric_cohort(rng.normal(0.0, 1.0, (10, 2)), rng.uniform(1, 5, 10),
                          np.ones(10, dtype=int))
    template = encode(train, standardize=True)
    d = encode_like(test, template)
    raw = encode(test).X
    np.testing.assert_allclose(d.X, (raw - template.means) / template.sds)
    # test-set columns are NOT re-centered on the test sample
    assert abs(d.X[:, 0].mean()) > 0.1


def design_bits(d):
    """Every field of design `d`, each array as its dtype, shape and bytes."""
    return {k: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for k, v in vars(d).items()}


@pytest.mark.parametrize("standardize", [False, True])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40))
@settings(max_examples=40, deadline=None)
def test_encode_like_replays_a_design_bit_for_bit(standardize, seed, n):
    # encode and encode_like build a design one way, so a cohort encoded like its own
    # design gives that design's bits in every field
    rng = np.random.default_rng(seed)
    schema = CovariateSchema((Column("x", "numeric"), Column("g", "categorical", ("a", "b", "c")),
                              Column("y", "numeric")))
    cohort = Cohort(schema, {"x": rng.normal(size=n) * 10.0 ** rng.integers(-6, 7),
                             "g": rng.choice(["a", "b", "c"], n).astype(object),
                             "y": rng.standard_exponential(n) - 0.5},
                    rng.exponential(size=n), rng.integers(0, 2, n))
    try:
        design = encode(cohort, standardize=standardize)
    except DegenerateColumnError:  # a level drawn for no row, or for every row
        reject()
    assert design_bits(encode_like(cohort, design)) == design_bits(design)


def test_encode_like_schema_mismatch():
    a = numeric_cohort([[1.0]], [1.0], [1])
    b = mixed_cohort()
    with pytest.raises(ValueError, match="schema"):
        encode_like(b, encode(a))


# --- splitting -----------------------------------------------------------


@given(
    n=st.integers(10, 120),
    frac=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_split_sizes_exact(n, frac, seed):
    events = np.zeros(n, dtype=int)
    events[: max(4, n // 3)] = 1
    c = numeric_cohort(np.arange(n, dtype=float)[:, None], np.arange(1, n + 1), events)
    expected_test = int(round(frac * n))
    if expected_test == 0 or expected_test == n:
        return
    try:
        train, test = split(c, frac, seed)
    except ValueError:
        return  # a partition with no events is legitimately refused
    assert test.n == expected_test
    assert train.n == n - expected_test
    # stratified: the test share of events tracks frac to within one seat
    assert abs(test.n_events - frac * c.n_events) <= 1.0 + 1e-9
    # disjoint cover: multiset of times is preserved
    assert sorted(np.concatenate([train.time, test.time])) == sorted(c.time)


def test_split_deterministic():
    c = mixed_cohort()
    a1, b1 = split(c, 0.25, seed=3)
    a2, b2 = split(c, 0.25, seed=3)
    assert cohorts_equal(a1, a2) and cohorts_equal(b1, b2)


def test_split_seed_changes_assignment():
    n = 40
    events = np.tile([1, 0], n // 2)
    c = numeric_cohort(np.arange(n, dtype=float)[:, None], np.arange(1, n + 1), events)
    _, t1 = split(c, 0.3, seed=0)
    _, t2 = split(c, 0.3, seed=1)
    assert not np.array_equal(t1.time, t2.time)


def test_split_refuses_empty_event_partition():
    # a single event and a 50% split: the lone event must land on one side,
    # leaving the other with none
    c = numeric_cohort([[0.0], [1.0], [2.0], [3.0]], [1, 2, 3, 4], [1, 0, 0, 0])
    with pytest.raises(ValueError, match="zero events"):
        split(c, 0.5, seed=0)


def test_split_bad_fraction():
    c = mixed_cohort()
    for f in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            split(c, f, seed=0)


def test_split_preserves_row_order_within_parts():
    n = 30
    events = np.tile([1, 0, 1], n // 3)
    c = numeric_cohort(np.arange(n, dtype=float)[:, None], np.arange(1, n + 1), events)
    train, test = split(c, 0.3, seed=7)
    assert np.all(np.diff(train.covariates["x0"]) > 0)
    assert np.all(np.diff(test.covariates["x0"]) > 0)


# --- CSV round-trip ------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    c = mixed_cohort()
    # awkward floats that would not survive a %.6g trip
    c.covariates["age"][:] = rng.normal(0, 1, c.n) * np.pi
    p = tmp_path / "cohort.csv"
    write_csv(p, *cohort_table(c))
    back = ingest_csv(p)
    assert cohorts_equal(back, c)


def test_ingest_boolean_event_tokens(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("x,time,event\n1,1.0,true\n2,2.0,False\n3,3.0,1\n")
    c = ingest_csv(p)
    assert c.event.tolist() == [1, 0, 1]


def test_ingest_bad_event_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,time,event\n1,1.0,1\n2,2.0,yes\n")
    with pytest.raises(ParseError, match="row 2"):
        ingest_csv(p)


def test_ingest_bad_time_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,time,event\n1,oops,1\n")
    with pytest.raises(ParseError, match="row 1"):
        ingest_csv(p)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_ingest_non_finite_covariate_names_row(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"x,time,event\n1,1.0,1\n{cell},2.0,0\n")
    with pytest.raises(ParseError, match=f"row 2: non-finite value '{cell}' in 'x'"):
        ingest_csv(p)


def test_ingest_negative_time_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,time,event\n1,-3.0,1\n")
    with pytest.raises(ParseError, match="row 1"):
        ingest_csv(p)


def test_ingest_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,time,event\n1,1.0,1\n2,2.0\n")
    with pytest.raises(ParseError, match="row 2"):
        ingest_csv(p)


def test_ingest_missing_required_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,when,event\n1,1.0,1\n")
    with pytest.raises(SchemaError, match="time"):
        ingest_csv(p)


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        ingest_csv(p)


@pytest.mark.parametrize("text, refusal", [
    ("", "empty CSV"),
    ("x,when,event\n1,1.0,1\n", "missing column 'time'"),
    ("x,time,what\n1,1.0,1\n", "missing column 'event'"),
    ("x,time,event\n", "a header but no data rows"),
    ("x,time,x,event\n1,1.0,2,1\n", "column 'x' appears twice in the header"),
    ("x,time,,event\n1,1.0,2,1\n", "column 3 of the header has no name"),
    (" ,time,event, \n1,1.0,1,2\n", "column 1 of the header has no name"),
], ids=["empty", "no time", "no event", "header only", "repeated name", "blank name",
        "spaces for names"])
def test_a_refusal_of_the_whole_file_names_it(tmp_path, text, refusal):
    # with or without a schema to compare, before the schema is inferred or compared
    p = tmp_path / "c.csv"
    p.write_text(text)
    for schema in (None, CovariateSchema((Column("y", "numeric"),))):
        with pytest.raises(SchemaError) as info:
            ingest_csv(p, schema=schema)
        assert str(info.value) == f"{p}: {refusal}"


def test_ingest_schema_mismatch(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("x,time,event\n1,1.0,1\n")
    other = CovariateSchema((Column("y", "numeric"),))
    with pytest.raises(SchemaError, match="do not match"):
        ingest_csv(p, schema=other)


THOUSAND = [str(j) for j in range(1000)]


@pytest.mark.parametrize(
    "names, schema_names, first",
    [(THOUSAND, [*THOUSAND[:700], "other", *THOUSAND[701:]], 701),
     (THOUSAND, THOUSAND[:999], 1000),
     (THOUSAND, [*THOUSAND, "1000"], 1001),
     (["x" * 5000], ["x"], 1),
     ([*THOUSAND[:3], "4", "3", *THOUSAND[5:]], THOUSAND, 4)],
    ids=["renamed", "csv-longer", "csv-shorter", "long-header", "reordered"],
)
def test_ingest_schema_mismatch_names_the_first_differing_covariate(tmp_path, names,
                                                                     schema_names, first):
    # a cohort of 1,000 covariates, or one whose header name is 5,000 characters, is refused
    # in a line of bounded length that starts at the first covariate the CSV and the schema
    # disagree on; covariates that match the schema by name but not by order are refused
    p = tmp_path / "c.csv"
    p.write_text(",".join([*names, "time", "event"]) + "\n"
                 + ",".join(["1"] * (len(names) + 2)) + "\n")
    schema = CovariateSchema(tuple(Column(name, "numeric") for name in schema_names))
    with pytest.raises(SchemaError, match=f"from covariate {first} on$") as info:
        ingest_csv(p, schema=schema)
    message = str(info.value)
    assert len(message) < 200
    assert message.startswith(f"CSV covariate columns {column_list(names[first - 1:])} ")
    assert f" schema {column_list(schema_names[first - 1:])} " in message


def test_ingest_reads_past_a_byte_order_mark(tmp_path):
    p = tmp_path / "c.csv"
    p.write_bytes("\ufeffx,time,event\n1,1.0,1\n".encode("utf-8"))
    assert ingest_csv(p).schema.names == ["x"]


def test_ingest_unknown_level_with_schema(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("g,time,event\nz,1.0,1\n")
    schema = CovariateSchema((Column("g", "categorical", levels=("a", "b")),))
    with pytest.raises(ParseError, match="row 1"):
        ingest_csv(p, schema=schema)


INGEST_SCHEMA = CovariateSchema((Column("x", "numeric"), Column("g", "categorical", ("a", "b"))))
GOOD_CELLS = {
    "x": st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-10**20, 10**20).map(str),
                   st.sampled_from([" 2.5", "1_000", ".5", "+3", "1E3", "-0"])),
    "time": st.one_of(st.floats(0.0, 1e300).map(repr), st.sampled_from(["0", "-0", " 7 ", "1e3"])),
    "g": st.sampled_from(["a", "b"]),
    "event": st.sampled_from(["0", "1", "true", "False", " TRUE ", "1 "]),
}
BAD_CELLS = {
    "x": ["abc", "", "inf", "-inf", "nan", "NaN", "1e999", " ", "NA"],
    "time": ["soon", "", "-1", "-0.5", "inf", "-inf", "nan", "1e999"],
    "g": ["c", "A", " a", ""],
    "event": ["yes", "2", "", "-1", "0.0"],
}


def first_bad_cell(rows):
    """The error a row-by-row read names first: time then event, row by
    row; then each covariate column, a numeric column's non-numbers
    before its non-finite values."""
    for i, (_, t, _, e) in enumerate(rows):
        try:
            value = float(t)
        except ValueError:
            return f"row {i + 1}: non-numeric time {t!r}"
        if not (math.isfinite(value) and value >= 0):
            return f"row {i + 1}: time must be finite and >= 0, got {t!r}"
        if e.strip().lower() not in ("0", "1", "true", "false"):
            return f"row {i + 1}: bad event value {e!r}"
    for i, (x, _, _, _) in enumerate(rows):
        try:
            float(x)
        except ValueError:
            if not x.strip():
                return f"row {i + 1}: empty cell in numeric column 'x'"
            return f"row {i + 1}: non-numeric value {x!r} in 'x'"
    for i, (x, _, _, _) in enumerate(rows):
        if not math.isfinite(float(x)):
            return f"row {i + 1}: non-finite value {x!r} in 'x'"
    for i, (_, _, g, _) in enumerate(rows):
        if g not in ("a", "b"):
            return f"row {i + 1}: unknown level {g!r} in 'g'"
    return None


@given(st.lists(st.fixed_dictionaries(GOOD_CELLS), min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 11), st.sampled_from(list(BAD_CELLS)),
                          st.integers(0, 8)), max_size=3))
@settings(max_examples=300, deadline=None)
def test_ingest_reads_each_cell_as_float_and_names_the_first_bad_row(tmp_path_factory, rows,
                                                                      edits):
    for i, column, k in edits:
        rows[i % len(rows)][column] = BAD_CELLS[column][k % len(BAD_CELLS[column])]
    cells = [[row[c] for c in ("x", "time", "g", "event")] for row in rows]
    path = tmp_path_factory.mktemp("ingest") / "c.csv"
    write_csv(path, ["x", "time", "g", "event"], cells)
    want = first_bad_cell(cells)
    if want is not None:
        with pytest.raises(ParseError) as exc:
            ingest_csv(path, schema=INGEST_SCHEMA)
        assert str(exc.value) == want
        return
    cohort = ingest_csv(path, schema=INGEST_SCHEMA)
    assert cohort.covariates["x"].tobytes() == np.array([float(r[0]) for r in cells]).tobytes()
    assert cohort.time.tobytes() == np.array([float(r[1]) for r in cells]).tobytes()
    assert cohort.covariates["g"].tolist() == [r[2] for r in cells]
    assert cohort.event.tolist() == [int(r[3].strip().lower() in ("1", "true")) for r in cells]


def test_infer_schema_types_and_levels():
    # a column with any number in it is numeric, whatever else it holds (ingest refuses
    # the rest), so no blank or word makes it one level per value; a column of blanks
    # and words is categorical, each distinct cell a level
    words = ["NA", " n/a ", "#N/A", "NULL", "None"]
    s = infer_schema(["a", "b", "c", "d", "e", "f", "g", "h"],
                     [["1.5", "2", "3e1"], ["x", "y", "x"], ["1.5", "", " "], ["", " ", ""],
                      ["1.5", *words], ["", *words], ["x", *words], ["None", "1", "2"]])
    assert [c.kind for c in s.columns] == ["numeric", "categorical", "numeric", "categorical",
                                           "numeric", "categorical", "categorical", "numeric"]
    assert s.columns[1].levels == ("x", "y")
    assert s.columns[6].levels == (" n/a ", "#N/A", "NA", "NULL", "None", "x")


@pytest.mark.parametrize("word", ["NA", "unknown", "None"])
def test_ingest_refuses_a_word_in_an_inferred_numeric_column(tmp_path, word):
    # a column of numbers and words, such as a count with None for 0, is numeric, and
    # its first word is named, not made a level beside each distinct number
    path = tmp_path / "c.csv"
    write_csv(path, ["x", "time", "event"], [["1", "1", "1"], [word, "2", "0"], ["2", "3", "1"]])
    with pytest.raises(ParseError, match=rf"^row 2: non-numeric value '{word}' in 'x'$"):
        ingest_csv(path)


def test_ingest_refuses_a_blank_cell_in_an_inferred_numeric_column(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(path, ["x", "time", "event"], [["1.5", "1", "1"], ["", "2", "0"], ["3", "3", "1"]])
    with pytest.raises(ParseError, match=r"^row 2: empty cell in numeric column 'x'$"):
        ingest_csv(path)


def test_column_validation():
    with pytest.raises(ValueError):
        Column("g", "categorical", levels=())
    with pytest.raises(ValueError):
        Column("x", "numeric", levels=("a", "b"))
    with pytest.raises(ValueError):
        Column("x", "ordinal")
