"""stages/fold.py: ``fold`` against a plain single-process fold of the
same partials under several block counts, its None cases, and a source
scan that keeps hand-rolled keyless reductions from coming back."""

import ast
import inspect
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

from logstash_filter_elastic_integration_ray.stages.clustering import _smallest
from logstash_filter_elastic_integration_ray.stages.fold import fold


def _table(n: int = 300) -> pa.Table:
    rng = np.random.default_rng(11)
    emb = rng.normal(size=(n, 3))
    return pa.table({
        "id": pa.array(rng.permutation(n).astype(np.int64) * 7 + 2),
        "emb": pa.FixedSizeListArray.from_arrays(pa.array(emb.ravel()), 3),
    })


def _cases() -> dict:
    """name → (partial, merge, equal), built here so that Ray workers,
    which cannot import this test module, get the functions by value."""

    def or_words(t: pa.Table) -> np.ndarray:
        bit = t.column("id").to_numpy() % 256
        words = np.zeros(4, dtype=np.uint64)
        np.bitwise_or.at(words, bit // 64, np.uint64(1) << (bit % 64).astype(np.uint64))
        return words

    return {
        "sum": (lambda t: np.bincount(t.column("id").to_numpy() % 5, minlength=5), sum,
                np.array_equal),
        "or": (or_words, np.bitwise_or.reduce, np.array_equal),
        "k smallest": (lambda t: _smallest([t], 4, "id"), lambda ts: _smallest(ts, 4, "id"),
                       lambda a, b: a.equals(b)),
    }


@pytest.mark.parametrize("blocks", [1, 3, 17])
@pytest.mark.parametrize("case", ["k smallest", "or", "sum"])
def test_fold_equals_plain_fold(ray_session, case, blocks):
    import ray.data as rd

    partial, merge, same = _cases()[case]
    t = _table()
    edges = np.linspace(0, t.num_rows, blocks + 1).astype(int)
    pieces = [t.slice(a, b - a) for a, b in zip(edges[:-1], edges[1:])]
    expected = merge([partial(p) for p in pieces])
    assert same(fold(rd.from_arrow(pieces), partial, merge), expected)


def test_fold_is_none_without_values(ray_session):
    import ray.data as rd

    assert fold(rd.range(50).filter(expr="id < 0"), lambda t: t.num_rows, sum) is None
    assert fold(rd.range(50, override_num_blocks=3), lambda t: None, sum) is None


def test_fold_takes_exactly_ds_partial_merge():
    assert list(inspect.signature(fold).parameters) == ["ds", "partial", "merge"]


# ---------------------------------------------------------------------------
# the hand-rolled copies must not grow back
# ---------------------------------------------------------------------------

STAGES = pathlib.Path(inspect.getfile(fold)).parent

_TREE = re.compile(r"\b_tree_merge\b|\btree_or_blobs\b|\.repartition\(8\)")


def _hand_folds(src: str) -> list[tuple[int, str]]:
    """(line, what) for each keyless reduction written by hand: a
    ``tobytes()`` blob packed into a binary column, a hand-built merge
    tree, or a ``map_batches(...)`` collected on the driver."""
    found = []
    for node in ast.walk(ast.parse(src)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        f = node.func
        inner = f.value
        if (f.attr in ("take_all", "to_pandas") and isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute) and inner.func.attr == "map_batches"):
            found.append((node.lineno, f"map_batches(...).{f.attr}() driver fold"))
        if (f.attr == "array" and ".tobytes()" in ast.unparse(node)
                and any(k.arg == "type" and "binary" in ast.unparse(k.value) for k in node.keywords)):
            found.append((node.lineno, "tobytes() blob in a binary column"))
    found += [(i, "hand-built merge tree") for i, line in enumerate(src.splitlines(), 1)
              if _TREE.search(line)]
    return found


#: files that may still hold one, one reason each
ALLOWED = {
    "sketches.py": "hll_group_distinct: one register blob per KEY, merged by an exchange",
}


def test_no_hand_rolled_keyless_reductions_outside_fold():
    found = {}
    for path in sorted(STAGES.glob("*.py")):
        hits = _hand_folds(path.read_text())
        if hits and path.name != "fold.py":
            found[path.name] = hits
    stray = {f: hits for f, hits in found.items() if f not in ALLOWED}
    assert not stray, f"use stages/fold.py instead: {stray}"
    stale = set(ALLOWED) - set(found)
    assert not stale, f"allowlisted files with no hand-rolled reduction left (drop them): {sorted(stale)}"


def test_scan_sees_each_shape():
    src = '''
rows = ds.map_batches(f, batch_format="pyarrow").take_all()
blob = pa.array([v.tobytes()], type=pa.binary())
out = _tree_merge(partials, merge_batch)
'''
    assert [w for _, w in _hand_folds(src)] == [
        "map_batches(...).take_all() driver fold",
        "tobytes() blob in a binary column",
        "hand-built merge tree",
    ]
