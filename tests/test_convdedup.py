"""Conversation-level dedup (stages/convdedup.py): prefix-branch
grouping and cross-conversation response dedup."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_elastic_integration_ray.stages.convdedup import (
    PREFIX_SEP,
    conversation_prefix_groups,
    response_dedup,
)


def _conv_frame() -> pd.DataFrame:
    # 6 conversations × 6 turns; c1/c4 share the first-3-turn prefix
    # with c0 (regen branches), c2 is a singleton, c3 matches nobody,
    # c5 shares with c2 only on turn 0 (NOT a full-prefix match)
    rows = []
    for c in range(6):
        for i in range(6):
            if c in (1, 4) and i < 3:
                text = f"base {i}"          # clone of c0's prefix
            elif c == 0 and i < 3:
                text = f"base {i}"
            elif c == 5 and i == 0:
                text = "solo 0"             # c2's turn 0 only
            elif c == 2:
                text = f"solo {i}"
            else:
                text = f"conv{c} turn{i}"
            rows.append({"conv_id": f"c{c}", "turn_idx": np.int32(i),
                         "text": text})
    return pd.DataFrame(rows)


def _prefix_reference(df: pd.DataFrame, k: int) -> dict:
    pref = (
        df[df["turn_idx"] < k]
        .sort_values(["conv_id", "turn_idx"])
        .groupby("conv_id")["text"]
        .agg(PREFIX_SEP.join)
    )
    keys = {c: hashlib.md5(p.encode()).hexdigest() for c, p in pref.items()}
    out = {}
    for c, h in keys.items():
        members = [c2 for c2, h2 in keys.items() if h2 == h]
        out[c] = (h, len(members), c == min(members))
    return out


class TestConversationPrefixGroups:
    def test_matches_reference_and_block_split_invariant(self, ray_session):
        import ray.data

        df = _conv_frame()
        want = _prefix_reference(df, k=3)
        for blocks in (1, 5):
            ds = ray.data.from_pandas(list(np.array_split(df, blocks)))
            out = conversation_prefix_groups(
                ds, k=3, num_partitions=4
            ).to_pandas()
            got = {
                r.conv_id: (r.prefix_key, int(r.n_branches), bool(r.keep))
                for r in out.itertuples()
            }
            assert got == want
        # the planted branch family is a real 3-member group
        assert want["c0"][1] == 3 and want["c0"][2]
        assert not want["c1"][2] and not want["c4"][2]
        # partial-prefix overlap (c5 vs c2) must NOT group
        assert want["c2"][1] == 1 and want["c5"][1] == 1

    def test_short_conversations_use_available_turns(self, ray_session):
        import ray.data

        # one conversation with 2 turns, one with the same 2 turns as
        # its k=4 prefix start plus more — prefixes DIFFER (the short
        # conversation's prefix is just its 2 turns)
        df = pd.DataFrame({
            "conv_id": ["a", "a", "b", "b", "b", "b"],
            "turn_idx": np.array([0, 1, 0, 1, 2, 3], dtype=np.int32),
            "text": ["t0", "t1", "t0", "t1", "t2", "t3"],
        })
        out = conversation_prefix_groups(
            ray.data.from_pandas(df), k=4, num_partitions=2
        ).to_pandas()
        assert sorted(out["n_branches"]) == [1, 1]

    def test_null_turn_matches_duckdb_twin(self, ray_session):
        """A NULL text inside the first k turns joins as '' on both
        engines: DuckDB's string_agg would SKIP it (dropping a
        separator), so the SQL twin coalesces first."""
        import duckdb
        import ray.data

        df = pd.DataFrame({
            "conv_id": ["a", "a", "a", "b", "b", "b", "c", "c"],
            "turn_idx": np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int32),
            "text": ["x", None, "y", "x", "", "y", "x", "y"],
        })
        got = conversation_prefix_groups(
            ray.data.from_pandas(df), k=3, num_partitions=2
        ).to_pandas()
        con = duckdb.connect()
        con.register("t", df)
        want = con.sql(
            "WITH p AS (SELECT conv_id, md5(string_agg(coalesce(text, ''), chr(31) "
            "ORDER BY turn_idx)) AS prefix_key FROM t WHERE turn_idx < 3 GROUP BY conv_id) "
            "SELECT conv_id, prefix_key, count(*) OVER w AS n_branches, "
            "conv_id = min(conv_id) OVER w AS keep FROM p WINDOW w AS (PARTITION BY prefix_key)"
        ).df()
        key = ["conv_id", "prefix_key", "n_branches", "keep"]
        got = got[key].sort_values("conv_id").reset_index(drop=True)
        want = want[key].sort_values("conv_id").reset_index(drop=True)
        assert got.astype(str).equals(want.astype(str))
        # the NULL turn and the '' turn share a prefix; c skips a slot
        assert got.set_index("conv_id")["n_branches"].to_dict() == {"a": 2, "b": 2, "c": 1}


class TestResponseDedup:
    def test_counts_and_survivor_across_blocks(self, ray_session):
        import ray.data

        df = pd.DataFrame({
            "turn_key": np.array([7, 3, 11, 5, 9, 1], dtype=np.int64),
            "text": ["dup", "dup", "dup", "x", "x", "y"],
        })
        for blocks in (1, 3):
            ds = ray.data.from_pandas(list(np.array_split(df, blocks)))
            out = response_dedup(
                ds, key_col="turn_key", num_partitions=2
            ).to_pandas()
            got = {
                hashlib.md5(t.encode()).hexdigest(): (k, n)
                for t, k, n in zip(
                    ["dup", "x", "y"], [3, 5, 1], [3, 2, 1]
                )
            }
            have = {
                r.content_hash: (int(r.keep_id), int(r.n_dups))
                for r in out.itertuples()
            }
            assert have == got

    def test_hot_duplicate_ships_one_row_per_batch(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages import convdedup

        n = 5000
        df = pd.DataFrame({
            "turn_key": np.arange(n, dtype=np.int64),
            "text": ["same response"] * n,
        })
        ds = ray.data.from_pandas(df)
        out = response_dedup(ds, key_col="turn_key", num_partitions=2).to_pandas()
        assert len(out) == 1
        assert int(out["n_dups"].iloc[0]) == n and int(out["keep_id"].iloc[0]) == 0


class TestConversationText:
    def test_matches_string_agg_and_block_invariant(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.convdedup import (
            conversation_text,
        )

        df = pd.DataFrame({
            "conv_key": np.array([2, 2, 2, 1, 1, 3], dtype=np.int64),
            "turn_idx": np.array([1, 0, 2, 1, 0, 0], dtype=np.int32),
            "text": ["b", "a", "c", "y", "x", None],
        })
        want = {2: "a b c", 1: "x y", 3: ""}
        for blocks in (1, 3):
            ds = ray.data.from_pandas(list(np.array_split(df, blocks)))
            out = conversation_text(ds, conv_col="conv_key",
                                    num_partitions=2).to_pandas()
            got = dict(zip(out["conv_key"], out["text"]))
            assert got == want


class TestRandomizedCrossCheck:
    def test_random_conversations_match_pandas_reference(self, ray_session):
        """Seeded random conv tables (ragged lengths, duplicate
        prefixes by construction, null texts) vs plain pandas for both
        conversation ops — the formula-space check beside the
        hand-built cases."""
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.convdedup import (
            conversation_prefix_groups,
            response_dedup,
        )

        rng = np.random.default_rng(42)
        rows = []
        for c in range(40):
            n_turns = int(rng.integers(1, 9))
            # 8 distinct texts → heavy cross-conv prefix collisions
            for i in range(n_turns):
                txt = None if rng.random() < 0.05 else f"t{rng.integers(0, 8)}"
                rows.append({"conv_id": f"c{c:02d}",
                             "turn_idx": np.int32(i), "text": txt})
        df = pd.DataFrame(rows)

        want = _prefix_reference(df.assign(text=df["text"].fillna("")), k=3)
        ds = ray.data.from_pandas(list(np.array_split(df, 7)))
        out = conversation_prefix_groups(ds, k=3, num_partitions=4).to_pandas()
        got = {r.conv_id: (r.prefix_key, int(r.n_branches), bool(r.keep))
               for r in out.itertuples()}
        assert got == want
        assert any(v[1] > 1 for v in want.values())  # real collisions

        # response dedup over the same rows with a synthetic row key
        df2 = df.assign(key=np.arange(len(df), dtype=np.int64))
        ref = (
            df2.assign(text=df2["text"].fillna(""))
            .groupby("text")
            .agg(keep_id=("key", "min"), n_dups=("key", "size"))
        )
        import hashlib as _h

        want2 = {
            _h.md5(t.encode()).hexdigest(): (int(r.keep_id), int(r.n_dups))
            for t, r in ref.iterrows()
        }
        out2 = response_dedup(
            ray.data.from_pandas(list(np.array_split(df2, 5))),
            key_col="key", num_partitions=4,
        ).to_pandas()
        got2 = {r.content_hash: (int(r.keep_id), int(r.n_dups))
                for r in out2.itertuples()}
        assert got2 == want2
