"""The one writer of artifact files.

Every artifact is written to a temporary name in its own directory and
then renamed over the final name with ``os.replace``, so a reader sees
either the whole new file or none of it; on any failure the temporary
file is removed.  A command writes all its artifacts into a ``staging``
directory and ``publish``es them together, its manifest last.  Tables are
formatted with ``%.17g`` (round trip) and one ``%`` per block of rows.

A large ``surface.csv`` is formatted by two processes where two CPUs are
usable: the later half of its time layers goes to a child made with
``os.fork`` (``layer_blocks``, ``write_artifact``), and the bytes are
those of one process.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import shutil
import signal
import tempfile
from pathlib import Path

import numpy as np

#: rows of ``surface.csv`` each of two formatting processes must have
#: before a fork pays for itself (README, "File formats": the measured table)
_FORK_MIN_ROWS = 5_000


def layer_blocks(n_layers: int, n_rows: int) -> list[tuple[int, int]]:
    """Contiguous ``[a, b)`` blocks of ``n_layers`` time layers holding
    ``n_rows`` rows in all: two halves, the second for a forked child,
    where ``os.fork`` is present, two CPUs are usable and each half holds
    ``_FORK_MIN_ROWS`` rows; one block otherwise.  Two processes are all
    that was measured (README, "File formats")."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not hasattr(os, "fork") or cpus < 2 or n_layers < 2 or n_rows < 2 * _FORK_MIN_ROWS:
        return [(0, n_layers)]
    return [(0, n_layers // 2), (n_layers // 2, n_layers)]


def write_artifact(path, chunks, forked=None) -> None:
    """Write the strings of ``chunks`` (any iterable, consumed once) to
    ``path`` atomically, followed by those of ``forked`` if given.  A
    child made with ``os.fork`` consumes ``forked`` into a part file
    beside the temporary file while this process consumes ``chunks``, and
    the part is appended; where the fork fails, this process consumes
    ``forked`` itself.  A failed child fails the write with ``OSError``;
    on any failure a child still running is killed and reaped."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    part = tmp.with_name(f"{tmp.name}.part")
    pid = None
    try:
        if forked is not None:
            try:
                pid = _fork_writer(part, forked)
            except OSError:  # no process to be had (EAGAIN, ENOMEM, EPERM)
                chunks = itertools.chain(chunks, forked)
            else:
                _place_beside_this_thread(pid)
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
            if pid is not None:
                fh.flush()
                status = os.waitpid(pid, 0)[1]
                child, pid = pid, None
                if status:
                    raise OSError(
                        f"the process {child} formatting {part.name} failed "
                        f"(exit code {os.waitstatus_to_exitcode(status)})"
                    )
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
        os.replace(tmp, path)
    except BaseException:
        if pid is not None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        tmp.unlink(missing_ok=True)
        raise
    finally:
        part.unlink(missing_ok=True)


def _place_beside_this_thread(pid: int) -> None:
    """Where exactly two CPUs are usable, pin the child ``pid`` to the one
    this thread is not on (field 39 of ``/proc/thread-self/stat``): a
    kernel that is slow to balance its run queues (seen on a 2-vCPU KVM
    guest) would run a short-lived child beside its parent.  With more
    CPUs, or where this thread's CPU is unknown, the kernel places it."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) != 2:
        return
    # the placement is a hint: any failure leaves it to the kernel
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            here = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(pid, cpus - {here})


def _fork_writer(part: Path, chunks) -> int:
    """Fork a child that writes the strings of ``chunks`` to ``part`` and
    exits, with code 0 only if all were written; returns its pid.  The
    child never returns into the caller's frames: whatever it raises, the
    ``finally`` ends it with ``os._exit``."""
    parent, code = os.getpid(), 1
    try:
        pid = os.fork()
        if pid == 0:
            # a collection here could run a finalizer of the parent's garbage
            gc.disable()
            with open(part, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            code = 0
    finally:
        if os.getpid() != parent:
            os._exit(code)
    return pid


@contextlib.contextmanager
def staging(out: Path):
    """A new directory inside ``out`` for the artifacts of one command;
    removed with whatever is left in it when the block ends."""
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield stage
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def publish(stage: Path, out: Path, names: list[str]) -> None:
    """Rename the artifacts ``names`` from ``stage`` into ``out`` in order.
    The last one marks a complete set: an earlier copy of it is removed
    first, and on a failure the artifacts already renamed in are removed."""
    (out / names[-1]).unlink(missing_ok=True)
    done = []
    try:
        for name in names:
            os.replace(stage / name, out / name)
            done.append(name)
    except BaseException:
        for name in done:
            (out / name).unlink(missing_ok=True)
        raise


def surface_rows(t, s, y, price: np.ndarray, xi: np.ndarray):
    """Header and rows ``t,s,regime,y,price,xi`` of a surface, one string
    per time layer.  ``price`` and ``xi`` are shaped ``(t, regime, s, y)``;
    rows run over ``t``, then ``s``, then the regime, then ``y``.  Each
    distinct ``t``, ``s`` and ``y`` is formatted once.  Any slice of the
    time layers of ``t``, ``price`` and ``xi`` gives the header and that
    slice's rows."""
    g17 = "%.17g".__mod__
    # the rows of one layer, with a NUL where each row's t goes
    body = "\0" + "\0".join(
        f",{g17(sv)},{x},{g17(yv)},%.17g,%.17g\n"
        for sv in s.tolist()
        for x in range(price.shape[1])
        for yv in y.tolist()
    )
    yield "t,s,regime,y,price,xi\n"
    for n, tv in enumerate(t.tolist()):
        template = body.replace("\0", g17(tv))
        pairs = np.stack([price[n], xi[n]], axis=-1).transpose(1, 0, 2, 3)
        yield template % tuple(pairs.ravel().tolist())
