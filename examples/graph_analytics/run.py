"""Runnable graph-analytics composition: one synthetic link graph →
PageRank (+ personalized), HITS, connected components, triangle
counts — every op from stages/graph.py + the shared CC machinery,
composed the way a link-quality curation pass would run them.

    python examples/graph_analytics/run.py [sf_dir]
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
    from logstash_filter_elastic_integration_ray.stages.dedup import (
        connected_components_min_label,
    )
    from logstash_filter_elastic_integration_ray.stages.graph import (
        hits,
        pagerank,
        triangle_counts,
    )

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = int(docs.count())

    def synth_edges(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        src, dst = [], []
        for d in ids:
            d = int(d)
            if d % 5 == 0:
                continue
            for j in range(1 + d % 3):
                src.append(d)
                dst.append((d * 17 + 1 + 97 * j) % n)
        return pa.table({"src": pa.array(src, type=pa.int64()),
                         "dst": pa.array(dst, type=pa.int64())})

    edges = docs.map_batches(synth_edges, batch_format="pyarrow").materialize()

    pr = pagerank(edges, n_iters=8).to_pandas().nlargest(5, "q")
    print("top-5 PageRank nodes:")
    print(pr.to_string(index=False))

    seeds = [d for d in range(0, n, 50)]
    ppr = pagerank(edges, n_iters=8, seeds=seeds).to_pandas().nlargest(5, "q")
    print(f"\ntop-5 personalized (seeds={seeds[:4]}…):")
    print(ppr.to_string(index=False))

    ht = hits(edges, n_iters=8).to_pandas()
    print("\ntop-3 hubs:", ht.nlargest(3, "hub_q")["node"].tolist(),
          " top-3 authorities:", ht.nlargest(3, "auth_q")["node"].tolist())

    und = edges.map_batches(
        lambda t: pa.table({"a": t.column("src"), "b": t.column("dst")}),
        batch_format="pyarrow")
    cc = connected_components_min_label(und).to_pandas()
    sizes = cc.groupby("label").size()
    print(f"\ncomponents: {len(sizes)} (largest {int(sizes.max())} nodes)")

    tri = triangle_counts(edges).to_pandas()
    print(f"triangles: {int(tri.n_triangles.sum()) // 3} "
          f"({len(tri)} nodes participate)")

    ray.shutdown()


if __name__ == "__main__":
    main()
