import os
import signal
import time
import warnings

import pytest

from survbench import workers


def test_results_come_back_in_job_order():
    pids = workers.run([os.getpid, os.getpid, os.getpid])
    assert pids[-1] == os.getpid() and len(set(pids)) == 3
    assert workers.run([lambda: [1.5, "a"], lambda: ValueError("a value")])[0] == [1.5, "a"]
    returned = workers.run([lambda: ValueError("a value"), lambda: None])[0]
    assert type(returned) is ValueError and str(returned) == "a value"  # an outcome too


def test_one_job_runs_here_without_a_fork():
    assert workers.run([os.getpid]) == [os.getpid()]


def fail(exc):
    raise exc


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first-child", "second-child", "this-process"])
def test_a_job_error_is_raised_with_its_type_and_message(where):
    # a forked job's exception is its outcome; the job run here raises
    jobs = [lambda: 1, lambda: 2, lambda: 3]
    jobs[where] = lambda: fail(KeyError("boom"))
    if where == 2:
        with pytest.raises(KeyError, match="boom"):
            workers.run(jobs)
        return
    outcomes = workers.run(jobs)
    assert type(outcomes[where]) is KeyError and outcomes[where].args == ("boom",)
    outcomes[where] = where + 1
    assert outcomes == [1, 2, 3]


@pytest.mark.parametrize("end, text", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     f"a worker process was killed by signal 9 ({signal.strsignal(signal.SIGKILL)})"),
    (lambda: os._exit(3), "a worker process exited with code 3"),
    (lambda: fail(SystemExit(0)), "a worker process exited with code 1"),
    (lambda: os._exit(0), "a worker process exited with code 0"),
], ids=["signal", "exit-code", "system-exit", "exit-zero"])
def test_a_child_that_dies_without_replying_is_a_child_process_error(end, text):
    first, dead, last = workers.run([lambda: 1, end, lambda: 3])
    assert (first, last) == (1, 3)
    assert type(dead) is ChildProcessError and str(dead) == text


def test_a_failure_here_kills_the_children_first():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="here"):
        workers.run([lambda: time.sleep(60), lambda: fail(ValueError("here"))])
    assert time.perf_counter() - started < 30


def warn_twice():
    warnings.warn("first", UserWarning)
    warnings.warn("second", DeprecationWarning)
    return "done"


def caught_warnings(jobs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = workers.run(jobs)
    return results, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def test_a_childs_warnings_are_issued_here_as_its_own():
    here = caught_warnings([warn_twice])
    forked = caught_warnings([warn_twice, lambda: None])
    assert forked[0] == ["done", None] and here[0] == ["done"]
    assert forked[1] == here[1] and len(here[1]) == 2
    assert here[1][0][2] == __file__


def test_a_childs_warnings_meet_the_filters_here():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the child raises the first, and it is the job's outcome
        raised, _ = workers.run([warn_twice, lambda: None])
    assert type(raised) is UserWarning and str(raised) == "first"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # the first of each location only
        workers.run([warn_twice, warn_twice, warn_twice])
    assert [str(w.message) for w in caught] == ["first", "second"]
