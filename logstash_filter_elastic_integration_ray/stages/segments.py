"""Sorted per-key runs: the one place rows are grouped by sorting.

:func:`runs` lexsorts the rows by ``(keys..., order_by...)`` once and
returns a :class:`Runs`: the sort order and the start and size of each
key's run.  The reductions — :func:`first`, :func:`last`, :func:`min`,
:func:`max`, :func:`sum`, :func:`count` and the segmented exclusive
:func:`prefix` — are one ``ufunc.reduceat`` each over those starts; no
Python loop over groups and no ``ufunc.at``.

The rules, stated once for every caller:

- **A null group key is a group of its own**, as in SQL ``GROUP BY``.
  Arrow keys dictionary-encode with null as one code; float and object
  keys factorize with NaN/None as one code; integer keys (callers'
  dictionary codes) compare by value, so a caller's null code is one
  group like any other.
- **A null order key raises** ``ValueError`` ("null in order column"):
  SQL's null ordering is dialect-dependent, so no rule is guessed.
- **Ties keep input order.**  Rows equal on every key and order key
  stay in input order (``np.lexsort`` is stable); :meth:`Runs.tied`
  tells a caller whose answer would depend on that order (among the
  ``ok`` rows given to :func:`runs`) that it needs a tiebreak column.
- **Reductions skip rows that are not ``ok``** (the reduction's ``ok``
  mask; every row when it is None), and a run with no ``ok`` row
  reduces to null: the result is a masked array whose
  masked slots hold the reduction's identity (row 0 for
  :func:`first`/:func:`last`).  ``pa.array`` turns the mask into
  nulls.  :func:`count` is never null (SQL ``count`` of nothing is 0).

Values given to a reduction are in input row order.  Per-run results
come in run order (run ``i`` starts at sorted position ``starts[i]``);
per-row results (:func:`prefix`, :attr:`Runs.pos`) come in sorted
order, row ``order[j]`` at position ``j``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _key(a) -> np.ndarray:
    """Sortable integer view of one group key column."""
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    if isinstance(a, pa.Array):
        return pc.dictionary_encode(a, null_encoding="encode").indices.to_numpy()
    a = np.asarray(a)
    if a.dtype.kind in "biu":
        return a
    if a.dtype.kind in "mM":  # NaT is INT64_MIN: one group of its own
        return a.view(np.int64)
    return pd.factorize(a, sort=True, use_na_sentinel=False)[0]


def _order_key(name, a) -> np.ndarray:
    """Sortable view of one order column; a null in it raises."""
    if isinstance(a, (pa.Array, pa.ChunkedArray)):
        if a.null_count:
            raise ValueError(f"null in order column {name!r}")
        a = a.to_numpy(zero_copy_only=False)
    a = np.asarray(a)
    if a.dtype.kind in "biu":
        return a
    if pd.isna(a).any():
        raise ValueError(f"null in order column {name!r}")
    if a.dtype.kind == "M":  # microseconds, whatever the source unit
        return a.astype("datetime64[us]").view(np.int64)
    return a


@dataclass
class Runs:
    """Rows sorted into per-key runs (see the module docstring).

    ``order`` — input row index at each sorted position; ``starts`` /
    ``sizes`` — sorted position and length of each run; ``ok`` — the
    rows :meth:`tied` compares, in input order (None: all)."""

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    ok: np.ndarray | None
    cols: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def head(self) -> np.ndarray:
        """Sorted position of its run's first row, per sorted row."""
        return np.repeat(self.starts, self.sizes)

    @property
    def ids(self) -> np.ndarray:
        """Run index per sorted row."""
        return np.repeat(np.arange(len(self.starts), dtype=np.int64), self.sizes)

    @property
    def pos(self) -> np.ndarray:
        """0-based position within its run, per sorted row."""
        return np.arange(len(self.order), dtype=np.int64) - self.head

    @property
    def new(self) -> np.ndarray:
        """True at each run's first sorted row."""
        out = np.zeros(len(self.order), dtype=bool)
        out[self.starts] = True
        return out

    def tied(self) -> bool:
        """Whether two ``ok`` rows are equal on every key and order key —
        the case where an answer would follow input order."""
        sel = self.order if self.ok is None else self.order[self.ok[self.order]]
        same = np.ones(len(sel), dtype=bool)[1:]
        for c in self.cols:
            same &= c[sel][1:] == c[sel][:-1]
        return bool(same.any())


def runs(keys, order_by=(), ok=None) -> Runs:
    """Rows sorted by ``(keys..., order_by...)`` into one run per key.

    ``keys`` is one column or a tuple of columns (the run key);
    ``order_by`` a sequence of columns, or a mapping of column name →
    column so a null names its column; ``ok`` a boolean mask in input
    order of the rows :meth:`Runs.tied` compares.  Columns are numpy
    or Arrow arrays of equal length."""
    keys = [_key(k) for k in (keys if isinstance(keys, tuple) else (keys,))]
    named = order_by.items() if isinstance(order_by, Mapping) else enumerate(order_by)
    cols = keys + [_order_key(name, a) for name, a in named]
    order = np.lexsort(cols[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[order][1:] != k[order][:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(order)))
    return Runs(order, starts, sizes, None if ok is None else np.asarray(ok, dtype=bool), cols)


def _sorted(r: Runs, vals, ok):
    """(values in sorted order, sorted ok mask or None)."""
    v = np.asarray(vals)[r.order]
    return v, (None if ok is None else np.asarray(ok, dtype=bool)[r.order])


def _identity(ufunc, dtype):
    if ufunc is np.add:
        return 0
    if dtype.kind == "f":
        return np.inf if ufunc is np.minimum else -np.inf
    info = np.iinfo(dtype)
    return info.max if ufunc is np.minimum else info.min


def _reduce(ufunc, r: Runs, vals, ok) -> np.ma.MaskedArray:
    v, oks = _sorted(r, vals, ok)
    if not len(r):
        return np.ma.MaskedArray(v[:0])
    if oks is None:
        return np.ma.MaskedArray(ufunc.reduceat(v, r.starts))
    v = np.where(oks, v, _identity(ufunc, v.dtype))
    return np.ma.MaskedArray(ufunc.reduceat(v, r.starts),
                             mask=~np.logical_or.reduceat(oks, r.starts))


def sum(r: Runs, vals, ok=None) -> np.ma.MaskedArray:  # noqa: A001
    """Sum of each run's ``ok`` values (exact for integers)."""
    return _reduce(np.add, r, vals, ok)


def min(r: Runs, vals, ok=None) -> np.ma.MaskedArray:  # noqa: A001
    """Least ``ok`` value of each run."""
    return _reduce(np.minimum, r, vals, ok)


def max(r: Runs, vals, ok=None) -> np.ma.MaskedArray:  # noqa: A001
    """Greatest ``ok`` value of each run."""
    return _reduce(np.maximum, r, vals, ok)


def count(r: Runs, ok=None) -> np.ndarray:
    """Number of ``ok`` rows in each run (int64, 0 when none)."""
    if ok is None:
        return r.sizes.astype(np.int64)
    return sum(r, np.asarray(ok, dtype=np.int64)).data


def _pick(ufunc, r: Runs, ok) -> np.ma.MaskedArray:
    """Input row of each run's least/greatest sorted position among its
    ``ok`` rows; masked (row ``order[0]``) where there is none."""
    pos = np.empty(len(r.order), dtype=np.int64)
    pos[r.order] = np.arange(len(r.order))
    p = _reduce(ufunc, r, pos, ok)
    return np.ma.MaskedArray(r.order[p.filled(0)], mask=p.mask)


def first(r: Runs, ok=None) -> np.ma.MaskedArray:
    """Input row index of each run's first ``ok`` row in sorted order."""
    return _pick(np.minimum, r, ok)


def last(r: Runs, ok=None) -> np.ma.MaskedArray:
    """Input row index of each run's last ``ok`` row in sorted order."""
    return _pick(np.maximum, r, ok)


def prefix(r: Runs, vals, ok=None) -> np.ndarray:
    """Segmented exclusive prefix sum, per sorted row: the sum of the
    ``ok`` values before it in its run (0 at each run's first row)."""
    v, oks = _sorted(r, vals, ok)
    if oks is not None:
        v = np.where(oks, v, 0)
    excl = np.zeros_like(v)
    np.cumsum(v[:-1], out=excl[1:])
    return excl - np.repeat(excl[r.starts], r.sizes)
