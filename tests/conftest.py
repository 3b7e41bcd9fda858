import json
import os
import signal

import numpy as np
import pytest

from survbench import rsf, workers
from survbench.bench import model_from_dict, model_to_dict
from survbench.data import Cohort, Column, CovariateSchema, encode
from survbench.rng import derive_seed


def numeric_cohort(X, times, events):
    """Cohort with anonymous numeric covariates x0..x{p-1}."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    cols = tuple(Column(name=f"x{j}", kind="numeric") for j in range(X.shape[1]))
    covariates = {f"x{j}": X[:, j].copy() for j in range(X.shape[1])}
    return Cohort(
        schema=CovariateSchema(cols),
        covariates=covariates,
        time=np.asarray(times, dtype=float),
        event=np.asarray(events, dtype=int),
    )


def reloaded(name, model, design, raw=None):
    """`model` written by `bench.model_to_dict` as JSON text and read back by
    `bench.model_from_dict`, as `fit` and `eval` do; `raw` is `design.X`
    unstandardized, which only a KSVM file reads."""
    doc = json.loads(json.dumps(model_to_dict(name, model, design, raw)))
    return model_from_dict(doc, f"{name}.json")[1]


def cohorts_equal(a, b) -> bool:
    """Same schema, outcomes and covariate values."""
    return (
        a.schema == b.schema
        and np.array_equal(a.time, b.time)
        and np.array_equal(a.event, b.event)
        and all(np.array_equal(a.covariates[c], b.covariates[c]) for c in a.schema.names)
    )


def numeric_design(X, times, events, standardize=False):
    return encode(numeric_cohort(X, times, events), standardize=standardize)


def forest_file(forest, design) -> dict:
    """The file of `forest` fitted on `design`, as `bench.model_to_dict`
    writes it, less the schema and standardization that `load_forest` adds."""
    doc = model_to_dict("rsf", forest, design, design.X)
    del doc["schema"], doc["standardization"]
    return doc


def load_forest(doc: dict):
    """The forest of file `doc`, given the schema and standardization of its
    columns as numeric covariates, as `bench.model_from_dict` reads it."""
    schema = [{"name": name, "kind": "numeric", "levels": []} for name in doc["column_names"]]
    return model_from_dict({**doc, "schema": schema,
                            "standardization": {"means": None, "sds": None}}, "rsf.json")[1]


def forest_fields(**fields) -> dict:
    """Fields of a tree in a forest file, as `rsf.trees_to_dict` writes
    them: thresholds one string of numbers one space apart, every other list
    one string of `rsf._encode_digits` digits, column plus one. A string in
    a list is written as it is, in place of a number."""
    def text(key, values):
        if key == "threshold":
            return " ".join(map(str, values))
        numbers = [v + (key == "column") for v in values if not isinstance(v, str)]
        digits = iter(rsf._encode_digits(numbers, [1] * len(numbers)))
        return "".join(v if isinstance(v, str) else next(digits) for v in values)
    return {key: text(key, values) for key, values in fields.items()}


def tree_file(seed=0, **table) -> dict:
    """A tree of a forest file whose `rsf.NodeTable` has the given lists, as
    `rsf.trees_to_dict` writes it."""
    nodes = rsf.NodeTable(**{key: np.array(values, dtype=float if key == "threshold" else int)
                             for key, values in table.items()})
    return rsf.trees_to_dict([rsf.SurvivalTree(seed, 1, nodes)])[0]


def forest_lists(tree: dict) -> dict:
    """The fields of a tree in a forest file as lists of numbers, the
    inverse of `forest_fields`."""
    return {key: json.loads(f"[{text.replace(' ', ',')}]") if key == "threshold"
            else (rsf._decode_digits([text], key)[0] - (key == "column")).tolist()
            for key, text in tree.items() if key != "seed"}


def shard_failing_at(tree, mp):
    """Make fit_forest fork 3 shards down to a single row, and make the
    shard that grows tree `tree` of a seed-0 forest raise ValueError("boom")."""
    real, bad = rsf._grow_trees, derive_seed(0, tree)

    def grow(design, seeds, *rest):
        if bad in seeds:
            raise ValueError("boom")
        return real(design, seeds, *rest)

    mp.setattr(rsf, "_SHARD_ROWS", 1)
    mp.setattr(workers, "usable_cpus", lambda: 3)
    mp.setattr(rsf, "_grow_trees", grow)


def forked_shards_killed(mp):
    """Make fit_forest fork 3 shards down to a single row, each forked one
    killing itself with SIGKILL before it grows a tree."""
    real, here = rsf._grow_trees, os.getpid()

    def grow(*args):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    mp.setattr(rsf, "_SHARD_ROWS", 1)
    mp.setattr(workers, "usable_cpus", lambda: 3)
    mp.setattr(rsf, "_grow_trees", grow)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps every process it forks."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
