"""resolve_entities (stages/er.py): plain union-find reference
equality, rule-by-rule edges (phone / email / name-ed1), transitive
chains across rules, normalization, megablock cap fallback, and
block-split invariance."""

import numpy as np
import pandas as pd
import pytest


def _resolve(ds, parts=4):
    from logstash_filter_elastic_integration_ray.stages.er import resolve_entities

    return (resolve_entities(ds, num_partitions=parts)
            .to_pandas().sort_values("id").reset_index(drop=True))


class TestResolveEntities:
    def test_rules_and_chain(self, ray_session):
        import ray.data

        df = pd.DataFrame([
            # 1↔2 via phone digits (format differs), 2↔3 via name ed1,
            # 3↔4 via email case-insensitive: one entity {1,2,3,4}
            (1, "Ada Lovelace", "+1-555-000-1111", ""),
            (2, "Ada Lovelace X", "1 (555) 000-1111", ""),
            (3, "Ada Lovelace Xy", "", "ada@ex.com"),
            (4, "Completely Other", "", "ADA@EX.COM"),
            # singleton
            (5, "Grace Hopper", "+1-555-222-3333", "grace@ex.com"),
            # name ed1 pair (substitution)
            (6, "Alan Turing", "", ""),
            (7, "Alan Turinh", "", ""),
        ], columns=["id", "name", "phone", "email"])
        out = _resolve(ray.data.from_pandas(df).repartition(3))
        ent = dict(zip(out["id"], out["entity_id"]))
        assert ent[1] == ent[2] == ent[3] == ent[4] == 1
        assert ent[5] == 5
        assert ent[6] == ent[7] == 6

    def test_matches_plain_reference_on_synth(self, ray_session):
        import ray.data

        import pyarrow.parquet as pq
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.er import synth_contacts

        sf = "/root/testdata/sf0.001"
        recs = synth_contacts(pq.read_table(f"{sf}/customer.parquet",
                                            columns=["c_custkey"]))
        out = _resolve(ray.data.from_arrow(recs).repartition(5))
        expect = ref.entity_resolution_reference(sf)
        pd.testing.assert_frame_equal(out, expect)

    def test_block_split_invariance(self, ray_session):
        import ray.data

        rng = np.random.RandomState(5)
        n = 300
        df = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "name": [f"user{i % 97} fam{i % 13}" for i in range(n)],
            "phone": [f"+1-555-{i % 41:04d}" for i in range(n)],
            "email": [f"u{i % 53}@ex.com" if i % 2 else "" for i in range(n)],
        })
        outs = []
        for parts in (1, 8):
            ds = ray.data.from_pandas(df).repartition(parts)
            outs.append(_resolve(ds, parts=3))
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_empty_fields_never_block(self, ray_session):
        import ray.data

        # empty phones/emails/names must not form a giant "" block
        df = pd.DataFrame({
            "id": np.arange(10, dtype=np.int64),
            "name": [""] * 10,
            "phone": [""] * 10,
            "email": [""] * 10,
        })
        out = _resolve(ray.data.from_pandas(df).repartition(2))
        assert out["entity_id"].tolist() == out["id"].tolist()

    def test_megablock_cap_star_fallback(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages import er

        # one shared stop token, names otherwise far apart: past the cap
        # only star-vs-first pairs verify, and none match → singletons
        n = er._BUCKET_CAP + 10
        df = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "name": [f"stoptoken uniq{i}uniq{i}" for i in range(n)],
            "phone": [""] * n,
            "email": [""] * n,
        })
        out = _resolve(ray.data.from_pandas(df).repartition(3))
        assert out["entity_id"].tolist() == out["id"].tolist()
