"""Keyless reductions: a per-batch partial, a worker-side merge tree and
one driver merge — the one place a Dataset is folded to a single value.

:func:`fold` carries every keyless reduction in ``stages/``: gradient
sums, centroid and codebook sums, farthest points, count tables,
sketches, Bloom filters, order bounds and stratum counts.  Each batch's
partial value travels as ONE (cloud)pickled ``large_binary`` cell.  Two
``map_batches`` hops, each bundling up to ``FANIN`` cells into one
merged cell, run on the workers before the driver's final ``merge``.
Ray Data fuses both hops into the partial's own tasks, so each task
merges the cells of the blocks it was given, and the driver merges
one value per task.  The cells carry no key, so nothing is shuffled.
"""

from __future__ import annotations

import pickle

import pyarrow as pa
from ray import cloudpickle

#: cells bundled per worker-side merge hop
FANIN = 64

_EMPTY = pa.table({"v": pa.array([], type=pa.large_binary())})


def _cell(value) -> pa.Table:
    if value is None:
        return _EMPTY
    # cloudpickle: a value's class may itself travel by value (the
    # package is shipped to workers that way), which pickle refuses
    return pa.table({"v": pa.array([cloudpickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)],
                                   type=pa.large_binary())})


def fold(ds, partial, merge):
    """Fold ``ds`` to one value.

    ``partial(batch: pa.Table)`` returns any picklable value, or None to
    contribute nothing; a batch with no rows contributes nothing and is
    never passed to it.  ``merge(values: list)`` returns one value of
    the same kind; it must be associative and commutative, because the
    tree's grouping and order of values follow Ray's block order, which
    no caller controls.

    Returns ``merge`` of the values that reach the driver, or None when
    no batch gave a value (an empty Dataset, or every partial None)."""

    def node(t: pa.Table) -> pa.Table:
        vals = [pickle.loads(b) for b in t.column("v").to_pylist()]
        return _cell(merge(vals) if vals else None)

    out = ds.map_batches(lambda t: _cell(partial(t) if t.num_rows else None),
                         batch_format="pyarrow")
    for _ in range(2):
        out = out.map_batches(node, batch_format="pyarrow", batch_size=FANIN)
    vals = [pickle.loads(row["v"]) for row in out.take_all()]
    return merge(vals) if vals else None
