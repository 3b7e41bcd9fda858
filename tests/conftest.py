import os
import signal

import numpy as np
import pytest

from survbench import rsf, workers
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
