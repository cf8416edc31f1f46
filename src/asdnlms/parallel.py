"""A campaign's processes: its batch workers and block producers, each a :func:`_forked` child."""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
import pickle
import signal
import threading

import numpy as np

FREE = b"f"  # a consumer's token: it is done with a block's slot


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
    end and ``unused``, so that its sends and reads fail once this process is
    gone, and leaves through ``os._exit``, with 0 once ``body`` has returned or
    its exception was sent.  It is killed and reaped when the context ends.
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


def _slots(layout: dict, n: int) -> list[dict[str, np.ndarray]]:
    """``n`` block slots, each a dict of zeroed arrays of ``layout``'s (shape, dtype).

    They lie one after another in one anonymous shared ``mmap``, so a forked
    child writes into the same memory as its parent.
    """
    counts = {name: int(np.prod(shape)) for name, (shape, _) in layout.items()}
    # each array starts on a 64-byte boundary
    sizes = {name: -(-counts[name] * np.dtype(dt).itemsize // 64) * 64
             for name, (_, dt) in layout.items()}
    buf = mmap.mmap(-1, n * sum(sizes.values()))
    slots, offset = [], 0
    for _ in range(n):
        slots.append({})
        for name, (shape, dt) in layout.items():
            slots[-1][name] = np.frombuffer(buf, dt, counts[name], offset).reshape(shape)
            offset += sizes[name]
    return slots


def _prefetched(prepare, layout: dict, count: int):
    """The ``count`` blocks of ``prepare(slots)``, prepared ahead in a forked producer.

    The producer writes block k into slot k mod 2 of two :func:`_slots` and
    sends None; this generator yields that slot and, when asked for the next
    block, writes a FREE token, which lets the producer write block k + 2
    there.  An exception the producer raises is re-raised at its block.  The
    producer is killed and reaped when this generator is closed.
    """
    slots = _slots(layout, 2)
    free_r, free = os.pipe()  # both ends stay open here, so a FREE write never fails

    def produce(send):
        for k, _ in enumerate(prepare(slots)):
            send(None)
            # block k + 1 goes into the slot of block k - 1; the read finds EOF
            # once the consumer, the only holder of free, is gone
            if k and os.read(free_r, 1) != FREE:
                return

    try:
        with _forked(produce, (free,)) as pipe:
            for k in range(count):
                _receive(pipe, f"block {k}'s producer died without it")
                yield slots[k % 2]
                os.write(free, FREE)
    finally:
        os.close(free_r)
        os.close(free)


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
