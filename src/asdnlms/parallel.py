"""A campaign's batch workers: :func:`_forked` children that each pickle their
batches' results to a pipe, while this process runs its own share."""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import threading


def usable_cpus() -> int:
    """The CPUs a campaign's batches run on: those of this process's affinity
    mask.  1 where ``os.fork`` or ``os.sched_getaffinity`` does not exist, or
    while other threads run, which a forked child would lack."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


@contextlib.contextmanager
def _forked(body, unused):
    """Fork a child that runs ``body(send)``, and yield the read end of its pipe.

    ``send`` pickles an object to the pipe; an exception from ``body`` is sent
    in place of the next object and ends the child.  The child closes the read
    end and ``unused``, so that its sends fail once this process is gone, and
    leaves through ``os._exit``, with 0 once ``body`` has returned or its
    exception was sent.  It is killed and reaped when the context ends.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (r, *unused):
                os.close(fd)
            pipe = os.fdopen(w, "wb")

            def send(obj) -> None:
                pipe.write(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
                pipe.flush()

            try:
                body(send)
            except Exception as exc:
                send(exc)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as pipe:
            yield pipe
    finally:
        # a child that has exited stays a zombie until reaped; none is left
        # to reap where SIGCHLD is ignored
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _receive(pipe, missing: str):
    """The next object a :func:`_forked` child sent to ``pipe``; raises the exception
    it sent instead, or ``ChildProcessError(missing)`` if it ended without sending."""
    try:
        obj = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(missing) from None
    if isinstance(obj, Exception):
        raise obj
    return obj


def _run_batches(plan, run, take, workers: int) -> None:
    """``take(rows, run(rows))`` for the rows of each batch of ``plan``, in plan order.

    Batch k runs in worker k mod ``workers``: worker 0 is this process, the
    others are :func:`_forked` children that send each result when it is
    done.  This process reads them in plan order, so each process holds one
    batch at a time, and a child's exception is raised at its batch, where a
    serial run raises it.  Every child is reaped before this returns.
    """
    def work(batches, send):
        for batch in batches:
            send(run(batch))

    with contextlib.ExitStack() as children:
        pipes = []
        for w in range(1, workers):
            # a child closes the read ends of the children before it
            pipes.append(children.enter_context(_forked(
                functools.partial(work, plan[w::workers]), [p.fileno() for p in pipes])))
        for k, batch in enumerate(plan):
            w = k % workers
            take(batch, run(batch) if w == 0 else
                 _receive(pipes[w - 1], f"batch {k}'s worker died without its result"))
