"""The one writer of artifact files.

Every artifact is written to a temporary name in its own directory and
then renamed over the final name with ``os.replace``, so a reader sees
either the whole new file or none of it; on any failure the temporary
file is removed.  A command writes all its artifacts into a ``staging``
directory and ``publish``es them together, its manifest last.  Tables are
formatted with ``%.17g`` (round trip) and one ``%`` per block of rows.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np


def write_artifact(path, chunks) -> None:
    """Write the strings of ``chunks`` (any iterable, consumed once) to
    ``path`` atomically."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    distinct ``t``, ``s`` and ``y`` is formatted once."""
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
