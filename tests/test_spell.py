"""SymSpell-style typo clustering (stages/spell.py) vs a plain
union-find reference: ed<=1 semantics, canon selection, block
invariance."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

import ray

from logstash_filter_elastic_integration_ray.stages.spell import _ed1, typo_clusters


class TestEd1:
    def test_semantics(self):
        assert _ed1("table", "tables")      # insertion
        assert _ed1("table", "tble")        # deletion
        assert _ed1("table", "tabla")       # substitution
        assert not _ed1("table", "tabel")   # transposition = 2 (plain Lev)
        assert not _ed1("table", "tab")     # distance 2
        assert _ed1("a", "")                # single char vs empty
        assert not _ed1("abc", "xbz")       # two substitutions


def ref_typo_clusters(texts):
    cnt = Counter()
    for t in texts:
        cnt.update((t or "").split(" "))
    words = sorted(cnt)
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    buckets = {}
    for w in words:
        for v in {w} | {w[:i] + w[i + 1:] for i in range(len(w))}:
            buckets.setdefault(v, []).append(w)
    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if _ed1(members[i], members[j]):
                    union(members[i], members[j])
    clusters = {}
    for w in words:
        clusters.setdefault(find(w), []).append(w)
    out = {}
    for members in clusters.values():
        canon = sorted(members, key=lambda w: (-cnt[w], w))[0]
        for w in members:
            out[w] = (canon, cnt[w])
    return out


@pytest.mark.parametrize("blocks", [1, 3])
def test_typo_clusters_match_reference(ray_session, blocks):
    texts = [
        "table table table scan scan merge",
        "tble scan scan scann",      # tble ~ table; scann ~ scan
        "merge merge merg window",
        "window windw value",
        "unrelated tokens here",
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })).repartition(blocks)
    got = typo_clusters(ds, num_partitions=4).to_pandas()
    gmap = {r.word: (r.canon, int(r.cnt)) for r in got.itertuples()}
    want = ref_typo_clusters(texts)
    assert gmap == want
    assert gmap["tble"][0] == "table"
    assert gmap["scann"][0] == "scan"
    assert gmap["windw"][0] == "window"
    assert gmap["unrelated"][0] == "unrelated"  # singleton maps to itself


def test_typo_clusters_chain_merges(ray_session):
    # scan ~ scam ~ sham? no (2 apart) — but scan~scam and scam~sham
    # chain through the shared member
    texts = ["scan scan scam sham shim"]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1], type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))
    got = typo_clusters(ds, num_partitions=2).to_pandas()
    gmap = {r.word: r.canon for r in got.itertuples()}
    want = ref_typo_clusters(texts)
    assert gmap == {w: c for w, (c, _n) in want.items()}
    # transitive closure: all four chain into one cluster via scam/sham
    assert len({gmap[w] for w in ("scan", "scam", "sham", "shim")}) == 1


# ---------------------------------------------------------------------------
# CDC upsert merge
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.joins import upsert_merge


@pytest.mark.parametrize("blocks", [1, 3])
def test_upsert_merge_semantics(ray_session, blocks):
    base = pa.table({
        "k": pa.array([1, 2, 3, 4], type=pa.int64()),
        "ts": pa.array([10, 10, 10, 10], type=pa.int64()),
        "v": pa.array(["a", "b", "c", "d"], type=pa.string()),
    })
    changes = pa.table({
        "k": pa.array([1, 2, 2, 3, 5], type=pa.int64()),
        "ts": pa.array([20, 5, 15, 10, 7], type=pa.int64()),
        "v": pa.array(["a2", "old", "b2", "c-tie", "new5"], type=pa.string()),
        "op": pa.array(["u", "u", "d", "u", "u"], type=pa.string()),
    })
    got = upsert_merge(
        ray.data.from_arrow(base).repartition(blocks),
        ray.data.from_arrow(changes).repartition(blocks),
        key="k", ts_col="ts", op_col="op", num_partitions=4,
    ).to_pandas()
    gmap = {int(r.k): (int(r.ts), r.v) for r in got.itertuples()}
    assert gmap == {
        1: (20, "a2"),      # newer update wins
        3: (10, "c-tie"),   # equal ts: change beats base
        4: (10, "d"),       # untouched base row
        5: (7, "new5"),     # pure insert
        # 2 absent: the ts=15 tombstone wins over base(10) and old(5)
    }


def test_upsert_merge_without_op_col(ray_session):
    base = pa.table({"k": pa.array([1], type=pa.int64()),
                     "ts": pa.array([1], type=pa.int64()),
                     "v": pa.array([1.5], type=pa.float64())})
    ch = pa.table({"k": pa.array([1], type=pa.int64()),
                   "ts": pa.array([2], type=pa.int64()),
                   "v": pa.array([2.5], type=pa.float64())})
    got = upsert_merge(ray.data.from_arrow(base), ray.data.from_arrow(ch),
                       key="k", ts_col="ts", num_partitions=2).to_pandas()
    assert len(got) == 1 and float(got.v[0]) == 2.5


# ---------------------------------------------------------------------------
# interval coalescing
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.windows import merge_intervals


def ref_merge_intervals(rows):
    by_key = {}
    for k, s, e in rows:
        by_key.setdefault(k, []).append((s, e))
    out = []
    for k, ivs in by_key.items():
        ivs.sort()
        cur_s, cur_e, cnt = ivs[0][0], ivs[0][1], 1
        for s, e in ivs[1:]:
            if s <= cur_e:
                cur_e = max(cur_e, e)
                cnt += 1
            else:
                out.append((k, cur_s, cur_e, cnt))
                cur_s, cur_e, cnt = s, e, 1
        out.append((k, cur_s, cur_e, cnt))
    return sorted(out)


@pytest.mark.parametrize("blocks", [1, 3])
def test_merge_intervals_matches_reference(ray_session, blocks):
    rows = [
        (1, 0, 10), (1, 5, 12), (1, 12, 15),   # touch merges
        (1, 20, 25),                            # gap -> new island
        (2, 3, 4), (2, 10, 11), (2, 2, 9),      # containment + overlap
        (3, 7, 7),                              # degenerate point
    ]
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([r[0] for r in rows], type=pa.int64()),
        "s": pa.array([r[1] for r in rows], type=pa.int64()),
        "e": pa.array([r[2] for r in rows], type=pa.int64()),
    })).repartition(blocks)
    got = merge_intervals(ds, key="k", start_col="s", end_col="e",
                          num_partitions=4).to_pandas()
    gl = sorted((int(r.k), int(r.s), int(r.e), int(r.n_merged))
                for r in got.itertuples())
    assert gl == ref_merge_intervals(rows)


def test_merge_intervals_timestamps(ray_session):
    base = np.datetime64("2024-01-01T00:00:00", "us")
    s = [base, base + np.timedelta64(30, "m"), base + np.timedelta64(3, "h")]
    e = [base + np.timedelta64(1, "h"), base + np.timedelta64(2, "h"),
         base + np.timedelta64(4, "h")]
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([7, 7, 7], type=pa.int64()),
        "s": pa.array(s, type=pa.timestamp("us")),
        "e": pa.array(e, type=pa.timestamp("us")),
    }))
    got = merge_intervals(ds, key="k", start_col="s", end_col="e",
                          num_partitions=2).to_pandas().sort_values("s")
    assert len(got) == 2
    assert list(got.n_merged) == [2, 1]
    assert got.s.dtype.kind == "M"  # timestamps preserved


# ---------------------------------------------------------------------------
# prefix-filter exact set-similarity join
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.dedup import (
    MinHasher,
    _hash64,
    prefix_jaccard_pairs,
)


def ref_prefix_pairs(rows, threshold, k=3):
    h = MinHasher(shingle_size=k)
    sets = {d: set(_hash64(h.shingles(t)).tolist()) for d, t in rows}
    out = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            u = sets[a] | sets[b]
            if not u:
                continue
            j = len(sets[a] & sets[b]) / len(u)
            if j >= threshold:
                out[(a, b)] = float(np.round(j, 9))
    return out


@pytest.mark.parametrize("blocks", [1, 3])
def test_prefix_join_exact_complete(ray_session, blocks):
    rows = [
        (1, "the quick brown fox jumps over the lazy dog"),
        (2, "the quick brown fox jumps over the lazy cat"),   # near dup of 1
        (3, "the quick brown fox jumps over the lazy dog"),   # exact dup of 1
        (4, "completely different text with other words here"),
        (5, "completely different text with other words there"),
        (6, "short"),
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in rows], type=pa.int64()),
        "text": pa.array([t for _, t in rows], type=pa.string()),
    })).repartition(blocks)
    got = prefix_jaccard_pairs(ds, threshold=0.5, num_partitions=4).to_pandas()
    gmap = {(int(r.a), int(r.b)): float(r.jaccard) for r in got.itertuples()}
    want = ref_prefix_pairs(rows, 0.5)
    assert gmap == want  # EXACT completeness: no pair missed, none extra
    assert gmap[(1, 3)] == 1.0


def test_prefix_join_high_threshold_prunes(ray_session):
    rows = [(1, "a b c d e f g h"), (2, "a b c d e f g x"),
            (3, "z y x w v u t s")]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in rows], type=pa.int64()),
        "text": pa.array([t for _, t in rows], type=pa.string()),
    }))
    got = prefix_jaccard_pairs(ds, threshold=0.95, num_partitions=2).to_pandas()
    assert len(got) == len(ref_prefix_pairs(rows, 0.95))


# ---------------------------------------------------------------------------
# distributed KNN join (both sides large)
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.similarity import (
    IvfIndex,
    _normalize,
    knn_join,
)


def _knn_ref(lm, lids, rm, rids, index, k, nprobe, exclude_self):
    import pandas as pd

    lmn, rmn = _normalize(lm), _normalize(rm)
    rb = np.argmax(rmn @ index.centroids.T, axis=1)
    probes = np.argsort(-(lmn @ index.centroids.T), axis=1)[:, :nprobe]
    out = {}
    for qi in range(len(lids)):
        mask = np.isin(rb, probes[qi])
        cos = rmn[mask] @ lmn[qi]
        cand = rids[mask]
        df = pd.DataFrame({"n": cand, "c": cos})
        if exclude_self:
            df = df[df["n"] != int(lids[qi])]
        df = df.sort_values(["c", "n"], ascending=[False, True],
                            kind="mergesort").head(k)
        out[int(lids[qi])] = list(df["n"].astype(int))
    return out


@pytest.mark.parametrize("blocks", [1, 3])
def test_knn_join_matches_reference(ray_session, blocks):
    rng = np.random.default_rng(11)
    rm = rng.normal(size=(60, 8))
    lm = rng.normal(size=(25, 8))
    rids = np.arange(60, dtype=np.int64)
    lids = np.arange(100, 125, dtype=np.int64)
    index = IvfIndex(rm, n_clusters=4)

    def mk(ids, m):
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([list(map(float, r)) for r in m]),
        })).repartition(blocks)

    got = knn_join(mk(lids, lm), mk(rids, rm), index=index, k=3, nprobe=2,
                   left_id="vec_id").to_pandas()
    gmap = {int(q): list(g.sort_values("rank")["neighbor_id"].astype(int))
            for q, g in got.groupby("query_id")}
    assert gmap == _knn_ref(lm, lids, rm, rids, index, 3, 2, False)


def test_knn_join_self_exclusion(ray_session):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(30, 6))
    ids = np.arange(30, dtype=np.int64)
    index = IvfIndex(m, n_clusters=3)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([list(map(float, r)) for r in m]),
    }))
    got = knn_join(ds, ds, index=index, k=2, nprobe=2, exclude_self=True,
                   left_id="vec_id").to_pandas()
    assert (got["query_id"] != got["neighbor_id"]).all()
    gmap = {int(q): list(g.sort_values("rank")["neighbor_id"].astype(int))
            for q, g in got.groupby("query_id")}
    assert gmap == _knn_ref(m, ids, m, ids, index, 2, 2, True)


# ---------------------------------------------------------------------------
# Unicode clean: strip + NFC
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.textstats import clean_text_batch


def test_clean_text_nfc_and_strip():
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array(["éclair", "a​b\x07c", None,
                          "plain ascii\tok\n"]),
    })
    got = clean_text_batch(t).column("clean_text").to_pylist()
    assert got[0] == "\u00e9clair"  # combining acute composes
    assert got[1] == "abc"              # ZWSP + BEL stripped
    assert got[2] is None               # null stays null
    assert got[3] == "plain ascii\tok\n"  # \t \n survive


def test_clean_text_matches_duckdb_twin():
    import duckdb

    vals = ["é​\x07x", "ff﻿i", "\x1f\x00ctrl",
            "café", "안녕‍하세요"]
    t = pa.table({"doc_id": pa.array(range(len(vals)), type=pa.int64()),
                  "text": pa.array(vals)})
    got = clean_text_batch(t).column("clean_text").to_pylist()
    want = [duckdb.sql(
        "select nfc_normalize(regexp_replace(?, "
        "'[\\x{200B}\\x{200C}\\x{200D}\\x{FEFF}\\x{00}-\\x{08}"
        "\\x{0B}\\x{0C}\\x{0E}-\\x{1F}\\x{7F}]', '', 'g'))",
        params=[v]).fetchone()[0] for v in vals]
    assert got == want


# ---------------------------------------------------------------------------
# PCA over embeddings (exact integer moments)
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.clustering import (
    pca_fit,
    pca_transform,
)


def _pca_ref(m, p):
    scale = 1 << 20
    q = np.floor(m * float(scale) + 0.5).astype(np.int64)
    n, d = q.shape
    s1 = [int(x) for x in q.sum(axis=0, dtype=np.int64)]
    s2 = q.T @ q
    cov = np.empty((d, d))
    denom = float(n) * float(n) * float(scale) * float(scale)
    for i in range(d):
        for j in range(d):
            cov[i, j] = float(n * int(s2[i, j]) - s1[i] * s1[j]) / denom
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")[:p]
    w = evecs[:, order]
    for c in range(w.shape[1]):
        kmax = int(np.argmax(np.abs(w[:, c])))
        if w[kmax, c] < 0:
            w[:, c] = -w[:, c]
    mean = np.array(s1, dtype=np.float64) / (float(n) * float(scale))
    return mean, w, evals[order]


@pytest.mark.parametrize("blocks", [1, 4])
def test_pca_bit_exact_and_block_invariant(ray_session, blocks):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(200, 6)) * np.array([3.0, 1.0, 0.5, 2.0, 0.1, 1.5])
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(200, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in m]),
    })).repartition(blocks)
    mean, w, ev = pca_fit(ds, n_components=3, num_partitions=4)
    rmean, rw, rev = _pca_ref(m, 3)
    assert np.array_equal(mean, rmean)   # exact sums → identical floats
    assert np.array_equal(w, rw)
    assert np.array_equal(ev, rev)
    assert ev[0] >= ev[1] >= ev[2]
    got = pca_transform(ds, mean, w).to_pandas().sort_values("vec_id")
    want = np.round((m - rmean) @ rw, 9)
    assert np.array_equal(got[["pc1", "pc2", "pc3"]].to_numpy(), want)


def test_pca_empty_raises(ray_session):
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.array([], type=pa.list_(pa.float64())),
    }))
    with pytest.raises(ValueError, match="empty"):
        pca_fit(ds)


# ---------------------------------------------------------------------------
# C4 line filter + Gopher quality rules
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.textstats import (
    c4_line_filter_batch,
    gopher_quality_batch,
)


def test_c4_line_filter_rules():
    docs = [
        # kept: two good lines survive, short/unterminated/js lines drop
        "This is a good line with six words.\nshort line.\n"
        "no terminal punctuation here at all\n"
        "this line mentions JavaScript so it dies.\n"
        "Another proper line with enough words!\n"
        'A quoted line with five words here"',
        # page drops: lorem ipsum
        "Lorem Ipsum dolor sit amet consectetur adipiscing.\n"
        "Second decent line with enough words.\n"
        "Third decent line with enough words.",
        # page drops: brace
        "A fine first line with many words.\n"
        "function() { return 1; } is code.\n"
        "Third decent line with enough words.",
        # page drops: too few kept lines
        "Only one good line with five words.",
        None,
    ]
    t = pa.table({"doc_id": pa.array(range(len(docs)), type=pa.int64()),
                  "text": pa.array(docs, type=pa.string())})
    out = c4_line_filter_batch(t)
    kept = out.column("kept_lines").to_pylist()
    dropped = out.column("dropped").to_pylist()
    reason = out.column("reason").to_pylist()
    clean = out.column("clean_text").to_pylist()
    assert kept[0] == 3 and not dropped[0]
    assert clean[0] == ("This is a good line with six words.\n"
                        "Another proper line with enough words!\n"
                        'A quoted line with five words here"')
    assert dropped[1] and reason[1] == "lorem_ipsum"
    assert dropped[2] and reason[2] == "brace"
    assert dropped[3] and reason[3] == "too_few_lines"
    assert dropped[4] and clean[4] is None


def test_gopher_quality_rules():
    good = " ".join(["the", "be", "to"] + ["word"] * 60) + " end"
    too_short = "the be only five words here"
    symbols = " ".join(["the", "be"] + ["###"] * 30 + ["word"] * 30)
    no_alpha = " ".join(["the", "be"] + ["123"] * 60)
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                  "text": pa.array([good, too_short, symbols, no_alpha])})
    out = gopher_quality_batch(t).to_pandas().set_index("doc_id")
    assert bool(out.loc[1, "pass_gopher"])
    assert not bool(out.loc[2, "ok_word_count"])
    assert not bool(out.loc[3, "ok_symbol_ratio"])
    assert not bool(out.loc[4, "ok_alpha_words"])
    # exact int/int ratios
    assert out.loc[1, "stop_hits"] == 3
