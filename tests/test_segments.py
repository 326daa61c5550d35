"""stages/segments.py: ``runs`` and every reduction against a plain
dict-of-lists reference (null keys, null values, all-null runs, full
ties), and a source scan that keeps the hand-rolled sort-then-group
copies from coming back."""

import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logstash_filter_elastic_integration_ray.stages import segments

_row = st.tuples(
    st.one_of(st.none(), st.integers(0, 3)),   # group key (None = null)
    st.integers(0, 2),                         # order key: few values, many ties
    st.one_of(st.none(), st.integers(-50, 50)),  # value (None = not ok)
)


def _key_column(keys, form):
    """The same keys as an Arrow array, an object array or a float array
    with NaN — a null key is one group in each."""
    if form == "arrow":
        return pa.array(keys, type=pa.int64())
    if form == "object":
        return np.array(keys, dtype=object)
    return np.array([np.nan if k is None else k for k in keys], dtype=np.float64)


def _reference(rows):
    """key → the run's rows as (order, input index, value), sorted by
    (order, input index): ties keep input order."""
    groups: dict = {}
    for i, (k, o, v) in enumerate(rows):
        groups.setdefault(k, []).append((o, i, v))
    return {k: sorted(g) for k, g in groups.items()}


@settings(max_examples=150, deadline=None)
@given(st.lists(_row, max_size=40), st.sampled_from(["arrow", "object", "float"]))
@example(rows=[(None, 0, None), (None, 0, None)], form="arrow")   # all-null run
@example(rows=[(1, 1, 5), (1, 1, 6), (1, 1, None)], form="object")  # full ties
def test_runs_and_reductions_match_reference(rows, form):
    keys = [k for k, _, _ in rows]
    order_key = np.array([o for _, o, _ in rows], dtype=np.int64)
    ok = np.array([v is not None for _, _, v in rows], dtype=bool)
    vals = np.array([0 if v is None else v for _, _, v in rows], dtype=np.int64)
    r = segments.runs(_key_column(keys, form), (order_key,), ok=ok)
    ref = _reference(rows)
    assert len(r) == len(ref)
    assert r.sizes.sum() == len(rows) and sorted(r.order.tolist()) == list(range(len(rows)))

    reduced = {
        "first": segments.first(r, ok), "last": segments.last(r, ok),
        "min": segments.min(r, vals, ok), "max": segments.max(r, vals, ok),
        "sum": segments.sum(r, vals, ok),
    }
    count = segments.count(r, ok)
    prefix = segments.prefix(r, vals, ok)
    seen = set()
    for i, (s, n) in enumerate(zip(r.starts, r.sizes)):
        run = r.order[s:s + n].tolist()
        k = keys[run[0]]
        seen.add(k)
        expect = ref[k]
        assert run == [j for _, j, _ in expect]           # sorted, stable
        assert all(keys[j] == k for j in run)
        good = [(j, v) for _, j, v in expect if v is not None]
        want = {
            "first": good[0][0] if good else None,
            "last": good[-1][0] if good else None,
            "min": min(v for _, v in good) if good else None,
            "max": max(v for _, v in good) if good else None,
            "sum": sum(v for _, v in good) if good else None,
        }
        for name, got in reduced.items():
            g = None if np.ma.getmaskarray(got)[i] else int(got.data[i])
            assert g == want[name], (name, k)
        assert count[i] == len(good)
        acc = 0
        for pos, (_, _, v) in enumerate(expect):
            assert prefix[s + pos] == acc
            acc += v or 0
        assert r.pos[s:s + n].tolist() == list(range(n))
        assert r.new[s:s + n].tolist() == [True] + [False] * (n - 1)
    assert seen == set(ref)
    tie = any(len({o for o, _, v in g if v is not None}) < sum(v is not None for _, _, v in g)
              for g in ref.values())
    assert r.tied() == tie


def test_reductions_without_ok_cover_every_row():
    r = segments.runs(np.array([2, 1, 2, 1]), (np.array([0, 1, 1, 0]),))
    assert r.order.tolist() == [3, 1, 0, 2]
    v = np.array([10, 20, 30, 40])
    assert segments.sum(r, v).tolist() == [60, 40]
    assert segments.first(r).tolist() == [3, 0]
    assert segments.last(r).tolist() == [1, 2]
    assert segments.count(r).tolist() == [2, 2]
    assert not np.ma.getmaskarray(segments.min(r, v)).any()


def test_empty_input():
    r = segments.runs(np.array([], dtype=np.int64), (np.array([], dtype=np.int64),))
    assert len(r) == 0
    assert len(segments.sum(r, np.array([], dtype=np.int64))) == 0
    assert len(segments.first(r, np.array([], dtype=bool))) == 0


@pytest.mark.parametrize("order_col", [
    pa.array([1, None, 3]),
    np.array([1.0, np.nan, 3.0]),
    np.array(["2025-01-01", "NaT", "2025-01-02"], dtype="datetime64[us]"),
    np.array([1, None, 3], dtype=object),
])
def test_null_order_key_raises(order_col):
    with pytest.raises(ValueError, match="null in order column 'ts'"):
        segments.runs(np.array([0, 0, 1]), {"ts": order_col})


def test_multi_column_keys_group_nulls_once():
    a = pa.array(["x", None, "x", None, "y"])
    b = np.array([1, 2, 1, 2, 1])
    r = segments.runs((a, b))
    assert sorted(r.sizes.tolist()) == [1, 2, 2]


# ---------------------------------------------------------------------------
# the copies must not grow back
# ---------------------------------------------------------------------------

STAGES = pathlib.Path(segments.__file__).parent

#: sort-then-group idioms that belong in stages/segments.py
_COPY = re.compile(
    r"np\.lexsort\(|\.reduceat\(|np\.(?:minimum|maximum)\.at\("
    r"|\[1:\]\s*!=\s*[\w.]+\[:-1\]")

#: files that may still hold a copy, one reason each
ALLOWED = {
    "dedup.py": "MinHash/LSH band grouping and union-find label sites",
    "similarity.py": "SimHash/LSH band grouping and top-k neighbour sites",
    "corpus.py": "near-dup cluster and group_topk selections",
    "clustering.py": "k-means/k-center quantized-vector grouping",
    "textindex.py": "BM25 per-doc score keeps np.add.at's sequential float order",
}

PORTED = {"aggregate.py", "windows.py", "textstats.py", "funnel.py", "sft.py", "logflow.py"}


def test_no_sort_then_group_copies_outside_segments():
    found = {}
    for path in sorted(STAGES.glob("*.py")):
        if path.name == "segments.py":
            continue
        hits = [i for i, line in enumerate(path.read_text().splitlines(), 1)
                if _COPY.search(line)]
        if hits:
            found[path.name] = hits
    stray = {f: lines for f, lines in found.items() if f not in ALLOWED}
    assert not stray, f"use stages/segments.py instead: {stray}"
    stale = set(ALLOWED) - set(found)
    assert not stale, f"allowlisted files with no copy left (drop them): {sorted(stale)}"
    assert not PORTED & set(ALLOWED)
