"""Jobs run side by side, all but the last in forked worker processes.

A child pipes back its pickled outcome, its result or the exception it
raised, with the warnings it recorded, and ends by os._exit: no exit
handlers, no stdio flush. A child that dies without replying (a signal,
the OOM killer) ends only its own job. A job must take no lock that
another thread of this process could have held when it forked; NumPy,
pickle and OpenBLAS (which stops its threads around a fork) take none."""

import os
import pickle
import signal
import sys
import warnings


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _serve(job, w: int):
    """In a child: pipe back the outcome of `job` and its warnings, then
    exit, with status 0 only if all was written."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                result = job()
            except Exception as exc:
                result = exc
        reply = (result, [(m.message, m.category, m.filename, m.lineno) for m in caught])
        view = memoryview(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(w, view):]
        os._exit(0)
    finally:
        os._exit(1)


def _warn_again(message, category, filename, lineno) -> None:
    """Issue a child's warning here as its module's line would issue it."""
    scope = next((vars(m) for m in list(sys.modules.values())
                  if getattr(m, "__file__", None) == filename), None)
    warnings.warn_explicit(message, category, filename, lineno,
                           module=scope and scope["__name__"], module_globals=scope,
                           registry=scope and scope.setdefault("__warningregistry__", {}))


def run(jobs: list) -> list:
    """The outcomes of zero-argument callables `jobs`, in job order: all but the
    last run in forked children, the last here, where its exception is raised.
    A child's outcome is its result, its exception, or a ChildProcessError naming
    the signal or exit code of its death without a reply, and its warnings are
    issued here in job order. Every child is reaped, killed first if this fails."""
    children, replies = [], None  # each child's pid and its pipe's read end
    try:
        for job in jobs[:-1]:
            r, w = os.pipe()
            children.append((os.fork(), r))
            if children[-1][0] == 0:
                _serve(job, w)
            os.close(w)
        last = jobs[-1]()
        replies = [b"".join(iter(lambda r=r: os.read(r, 1 << 20), b"")) for _, r in children]
    finally:
        codes = []
        for pid, r in children:
            os.close(r)
            if replies is None:  # this process failed, so the children's outcomes go unused
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    outcomes = []
    for reply, code in zip(replies, codes):
        result, caught = pickle.loads(reply) if code == 0 and reply else (ChildProcessError(
            "a worker process " + (f"was killed by signal {-code} ({signal.strsignal(-code)})"
                                   if code < 0 else f"exited with code {code}")), ())
        for warning in caught:
            _warn_again(*warning)
        outcomes.append(result)
    return outcomes + [last]
