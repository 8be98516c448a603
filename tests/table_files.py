"""Table-file lines and record edits shared by the loader and CLI tests."""

import functools
import io
import json

import numpy as np

from gatecert.network import ALMOST_DI, ScenarioSpec, born_table, read_table, reference_realization, write_table
from gatecert.primitives import gate


@functools.cache
def table_lines(scheme=ALMOST_DI):
    """Lines of the cz n=2 table file: the header, then one record per row."""
    buf = io.StringIO()
    write_table(born_table(reference_realization(2, gate("cz", 2), scheme=scheme)), buf)
    return tuple(buf.getvalue().splitlines())


def with_change(lines, index, change):
    """``lines`` after editing the record at ``index``: each field of
    ``change`` is deleted (None), mapped (a callable) or replaced."""
    lines = list(lines)
    rec = json.loads(lines[index])
    for field, value in change.items():
        if value is None:
            del rec[field]
        else:
            rec[field] = value(rec[field]) if callable(value) else value
    lines[index] = json.dumps(rec)
    return lines


def read_with_change(lines, index, change):
    """Read ``lines`` after ``with_change``."""
    return read_table(io.StringIO("\n".join(with_change(lines, index, change))))


def move_mass(scheme, axis, amount, flip=None):
    """A ``p`` edit of an n=2 record: move ``amount`` of the mass of its
    largest entry to the entry one step along outcome axis ``axis``, or,
    with ``flip``, to the entry whose index on that axis is xored with
    ``flip``; the row still sums to one."""
    shape = ScenarioSpec(scheme, 2).outcome_shape()

    def move(p):
        arr = np.array(p).reshape(shape)
        src = np.unravel_index(int(np.argmax(arr)), shape)
        dst = list(src)
        dst[axis] = (dst[axis] + 1) % shape[axis] if flip is None else dst[axis] ^ flip
        arr[src] -= amount
        arr[tuple(dst)] += amount
        return arr.ravel().tolist()

    return move
