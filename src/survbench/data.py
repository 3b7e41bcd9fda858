"""Cohort container, CSV ingest and table rows, and design-matrix encoding.

A cohort is a fixed covariate schema plus aligned columns: one array per
covariate, an observed time, and an event indicator (1 = purchase seen,
0 = right-censored). Time is unitless; everything downstream only ranks
or integrates over it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .rng import CounterRng

SD_FLOOR = 1e-12  # the least sd of a standardized design column, in `encode` and in model files


class SchemaError(ValueError):
    """Header or column layout does not match the expected schema."""


class ParseError(ValueError):
    """A cell failed to parse; the message names the offending row."""


class DegenerateColumnError(ValueError):
    """A design column asked to be standardized is constant, or its sd is not finite."""


@dataclass(frozen=True)
class Column:
    """One covariate. Categorical columns carry their level vocabulary;
    the first level is the reference dropped during one-hot encoding, so a
    one-level column encodes to no design column."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown column kind: {self.kind!r}")
        if self.kind == "categorical" and not self.levels:
            raise ValueError(f"categorical column {self.name!r} needs a level")
        if self.kind == "numeric" and self.levels:
            raise ValueError(f"numeric column {self.name!r} cannot have levels")


@dataclass(frozen=True)
class CovariateSchema:
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names) or "" in names:
            raise ValueError("column names must be unique and non-empty")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)


class Cohort:
    """Aligned covariate columns plus (time, event)."""

    def __init__(self, schema: CovariateSchema, covariates: dict, time, event):
        self.schema = schema
        self.time = np.asarray(time, dtype=np.float64)
        self.event = np.asarray(event, dtype=np.int64)
        n = self.time.size
        if self.event.shape != (n,) or self.time.ndim != 1:
            raise ValueError("time and event must be 1-d and equal length")
        if not np.all(np.isfinite(self.time)) or np.any(self.time < 0):
            raise ValueError("times must be finite and nonnegative")
        if not np.all((self.event == 0) | (self.event == 1)):
            raise ValueError("event must be 0 or 1")
        self.covariates = {}
        for col in schema.columns:
            if col.name not in covariates:
                raise ValueError(f"missing covariate column {col.name!r}")
            vals = covariates[col.name]
            if col.kind == "numeric":
                arr = np.asarray(vals, dtype=np.float64)
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"non-finite values in {col.name!r}")
            else:
                arr = np.asarray(vals, dtype=object)
                bad = set(arr) - set(col.levels)
                if bad:
                    raise ValueError(f"unknown levels in {col.name!r}: {sorted(bad)}")
            if arr.shape != (n,):
                raise ValueError(f"column {col.name!r} has wrong length")
            self.covariates[col.name] = arr

    @property
    def n(self) -> int:
        return self.time.size

    @property
    def n_events(self) -> int:
        return int(self.event.sum())

    @property
    def censoring_rate(self) -> float:
        return float((self.event == 0).sum()) / self.n

    def subset(self, idx) -> "Cohort":
        idx = np.asarray(idx, dtype=np.int64)
        cov = {name: arr[idx] for name, arr in self.covariates.items()}
        return Cohort(self.schema, cov, self.time[idx], self.event[idx])


@dataclass
class DesignMatrix:
    """Numeric encoding of a cohort: numeric columns as-is, categoricals
    one-hot with the reference (first) level dropped. Carries the outcome
    vectors so fitters need nothing else.

    When standardized, `means`/`sds` hold the encoding-cohort statistics
    so the identical affine map can be replayed on new data (or inverted).
    """

    X: np.ndarray
    names: list[str]
    times: np.ndarray
    events: np.ndarray
    schema: CovariateSchema
    means: np.ndarray | None = None
    sds: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def standardized(self) -> bool:
        return self.means is not None


def _raw_design(cohort: Cohort) -> tuple[np.ndarray, list[str]]:
    cols, names = [], []
    for col in cohort.schema.columns:
        vals = cohort.covariates[col.name]
        if col.kind == "numeric":
            cols.append(np.asarray(vals, dtype=np.float64))
            names.append(col.name)
        else:
            for lv in col.levels[1:]:
                cols.append((vals == lv).astype(np.float64))
                names.append(f"{col.name}={lv}")
    X = np.column_stack(cols) if cols else np.empty((cohort.n, 0))
    return X, names


@np.errstate(over="ignore", invalid="ignore")  # finite rows, means and sds can still overflow
def standardize_rows(X: np.ndarray, means, sds, what: str) -> np.ndarray:
    """(X - means) / sds, or a ValueError naming the rows `what` if any of it is not finite."""
    X = (X - means) / sds
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{what} are not finite after standardization")
    return X


def _design(cohort: Cohort, X: np.ndarray, names: list[str], means, sds) -> DesignMatrix:
    """The cohort's design from its raw design X, standardized unless means is None."""
    X = X if means is None else standardize_rows(X, means, sds, "scored rows")
    return DesignMatrix(X, names, cohort.time, cohort.event, cohort.schema, means, sds)


def column_list(names) -> str:
    """`names` as a list in a refusal: the first 5, then how many more."""
    names = list(names)
    more = f", ... and {len(names) - 5} more" if len(names) > 5 else ""
    return f"{str(names[:5])[:-1]}{more}]"


@np.errstate(over="ignore", invalid="ignore")  # a huge cell overflows its column's sd
def encode(cohort: Cohort, standardize: bool = False) -> DesignMatrix:
    """Encode a cohort, optionally centering/scaling every design column to sample
    mean 0 and (population) sd 1; each sd must be finite and at least SD_FLOOR."""
    X, names = _raw_design(cohort)
    means = sds = None
    if standardize:
        means, sds = X.mean(axis=0), X.std(axis=0)
        for bad, which in ((sds < SD_FLOOR, "constant design column(s)"),
                           (~np.isfinite(sds), "design column(s) whose sd is not finite")):
            if bad.any():
                cols = column_list(names[j] for j in np.flatnonzero(bad))
                raise DegenerateColumnError(f"{which} cannot be standardized: {cols}")
    return _design(cohort, X, names, means, sds)


def encode_like(cohort: Cohort, template: DesignMatrix) -> DesignMatrix:
    """Encode with the template's column layout and (if any) its affine map."""
    if cohort.schema != template.schema:
        raise ValueError("cohort schema does not match template design")
    return _design(cohort, *_raw_design(cohort), template.means, template.sds)


def split(cohort: Cohort, test_fraction: float, seed: int) -> tuple[Cohort, Cohort]:
    """Deterministic train/test split stratified on the event indicator.

    The test part gets round(test_fraction * n) rows, apportioned to the
    two strata by largest remainder so the total is exact. Within each
    stratum rows are ordered by seeded uniforms. Row order inside each
    part follows the original cohort order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = CounterRng(seed)
    keys = rng.uniform(cohort.n)
    total_test = int(round(test_fraction * cohort.n))
    strata = [np.nonzero(cohort.event == flag)[0] for flag in (1, 0)]
    quotas = [test_fraction * s.size for s in strata]
    counts = [int(np.floor(q)) for q in quotas]
    # hand leftover seats to the largest fractional remainders (event
    # stratum wins ties, so the result is deterministic)
    leftover = total_test - sum(counts)
    order = sorted(range(2), key=lambda s: (-(quotas[s] - counts[s]), s))
    for s in order[:leftover]:
        counts[s] += 1
    test_idx = []
    for s, stratum in enumerate(strata):
        shuffled = stratum[np.argsort(keys[stratum], kind="stable")]
        test_idx.extend(shuffled[: counts[s]].tolist())
    mask = np.zeros(cohort.n, dtype=bool)
    mask[test_idx] = True
    train = cohort.subset(np.nonzero(~mask)[0])
    test = cohort.subset(np.nonzero(mask)[0])
    if train.n_events == 0 or test.n_events == 0:
        raise ValueError("split left a partition with zero events")
    return train, test


def cohort_table(cohort: Cohort) -> tuple[list[str], list[tuple[str, ...]]]:
    """The cohort as CSV header (covariate names + time + event) and rows.
    Floats are written via repr, so the file round-trips bit-exactly."""
    arrays = [cohort.covariates[n] for n in cohort.schema.names] + [cohort.time, cohort.event]
    columns = [map(repr if a.dtype == np.float64 else str, a.tolist()) for a in arrays]
    return cohort.schema.names + ["time", "event"], list(zip(*columns))


def infer_schema(names: list[str], columns: list[list[str]]) -> CovariateSchema:
    """A column with any cell that parses as float is numeric (ingest then names its
    first cell that does not, so no stray word makes a level of every number); the rest
    are categorical with levels sorted lexicographically."""
    cols = []
    for name, vals in zip(names, columns, strict=True):
        numeric = any(_number(v) is not None for v in set(vals))
        cols.append(Column(name=name, kind="numeric") if numeric else
                    Column(name=name, kind="categorical", levels=tuple(sorted(set(vals)))))
    return CovariateSchema(columns=tuple(cols))


_EVENT_TOKENS = {"0": 0, "1": 1, "false": 0, "true": 1}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _floats(cells: tuple[str, ...]) -> np.ndarray:
    """The cells as floats, NaN where a cell is not a number."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return np.array([_number(v) for v in cells], dtype=np.float64)


def ingest_csv(path, schema: CovariateSchema | None = None) -> Cohort:
    """Read a cohort CSV. The event column accepts {0, 1, true, false}.

    Covariate columns are the header minus `time` and `event`, in
    header order; they must match `schema` when one is supplied, and are
    type-inferred otherwise. Parse failures name the offending data row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty CSV") from None
        rows = [r for r in reader if r]
    if not rows:
        raise SchemaError(f"{path}: a header but no data rows")
    for required in ("time", "event"):
        if required not in header:
            raise SchemaError(f"missing column {required!r}")
    t_j, e_j = header.index("time"), header.index("event")
    cov_js = [j for j in range(len(header)) if j not in (t_j, e_j)]
    cov_names = [header[j] for j in cov_js]
    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise ParseError(f"row {i + 1}: expected {len(header)} fields, got {len(r)}")
    columns = list(zip(*rows))
    if schema is None:
        schema = infer_schema(cov_names, [columns[j] for j in cov_js])
    elif schema.names != cov_names:
        raise SchemaError(
            f"CSV covariate columns {cov_names} do not match schema {schema.names}"
        )
    t_raw, e_raw = columns[t_j], columns[e_j]
    time = _floats(t_raw)
    event = np.array([_EVENT_TOKENS.get(v.strip().lower(), -1) for v in e_raw])
    bad_time = ~(np.isfinite(time) & (time >= 0))
    bad = bad_time | (event < 0)
    if bad.any():  # the first bad row; a row's time is read before its event
        i = int(np.argmax(bad))
        if not bad_time[i]:
            raise ParseError(f"row {i + 1}: bad event value {e_raw[i]!r}")
        if _number(t_raw[i]) is None:
            raise ParseError(f"row {i + 1}: non-numeric time {t_raw[i]!r}")
        raise ParseError(f"row {i + 1}: time must be finite and >= 0, got {t_raw[i]!r}")
    cov = {}
    for j, col in zip(cov_js, schema.columns):
        raw = columns[j]
        if col.kind == "numeric":
            vals = _floats(raw)
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:  # a non-number anywhere is named before a non-finite number
                i = next((i for i in bad.tolist() if _number(raw[i]) is None), int(bad[0]))
                if not raw[i].strip():
                    raise ParseError(f"row {i + 1}: empty cell in numeric column {col.name!r}")
                what = "non-numeric" if _number(raw[i]) is None else "non-finite"
                raise ParseError(f"row {i + 1}: {what} value {raw[i]!r} in {col.name!r}")
            cov[col.name] = vals
        else:
            known = set(col.levels)
            if not known.issuperset(raw):
                i = next(i for i, v in enumerate(raw) if v not in known)
                raise ParseError(f"row {i + 1}: unknown level {raw[i]!r} in {col.name!r}")
            cov[col.name] = np.array(raw, dtype=object)
    return Cohort(schema, cov, time, event)
