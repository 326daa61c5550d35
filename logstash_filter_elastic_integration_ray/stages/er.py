"""Entity resolution (record linkage) over multi-field contact
records — the classic Fellegi–Sunter blocking-and-matching shape
(public method: Fellegi & Sunter 1969; blocking surveys: Christen
2012) built from this repo's dedup machinery.

Distributed shape:

1. each record emits THIN blocking rows — one per blocking key:
   - ``p:<phone-digits>`` exact key (non-empty phones only)
   - ``e:<email-lower>``  exact key (non-empty emails only)
   - ``t:<token>``        one per normalized-name token (fuzzy lane)
2. ONE exchange by block hash; per block:
   - exact keys (p/e): every member matches by construction, so a
     STAR (first-vs-rest) yields the same connected components as the
     complete subgraph with O(m) edges — never quadratic;
   - token blocks: pairwise exact full-name Levenshtein ≤ 1 verify
     (the SymSpell `_ed1` kernel), capped at ``_BUCKET_CAP`` members
     with a documented star-vs-first fallback for megablocks (a stop
     token like a very common first name);
3. verified (min id, max id) edges feed the shared distributed
   min-label connected components (stages/dedup.py);
4. labels attach back to the full record set by id — singletons keep
   themselves — giving (id, entity_id) with entity_id = the
   component's minimum record id.

Node identity is the record id itself (int64): no hashing, no
collision lane.  Driver state: none.  Text never rides an exchange
more than once, and only the thin normalized fields do.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import segments
from .exchange import copartition, exchange, lookup
from .dedup import connected_components_min_label
from .spell import _ed1

_BUCKET_CAP = 256


def normalize_contacts(t: pa.Table, *, id_col: str, name_col: str,
                       phone_col: str, email_col: str) -> pa.Table:
    """(id, name_norm, phone_digits, email_norm): lowercase name with
    non-alphanumerics collapsed to single spaces and trimmed; phone
    reduced to its digits; email lowercased.  Pure Arrow kernels."""
    name = pc.utf8_lower(pc.fill_null(t.column(name_col), ""))
    name = pc.replace_substring_regex(name, pattern=r"[^a-z0-9]+", replacement=" ")
    name = pc.utf8_trim_whitespace(name)
    phone = pc.replace_substring_regex(
        pc.fill_null(t.column(phone_col), ""), pattern=r"[^0-9]+", replacement="")
    email = pc.utf8_lower(pc.fill_null(t.column(email_col), ""))
    out = pa.table({
        "id": t.column(id_col),
        "name_norm": name,
        "phone_digits": phone,
        "email_norm": email,
    })
    return out.combine_chunks()


def _block_rows(t: pa.Table) -> pa.Table:
    """Thin blocking rows (bkey, kind, id, name_norm), fully
    vectorized: exact keys carry no payload beyond the id (equality is
    the block key itself); token rows carry the normalized name for
    the ed≤1 verify.  Repeated tokens within one name emit duplicate
    rows — harmless, the per-block verify dedups by id."""
    t = t.combine_chunks()
    ids = t.column("id")
    J = lambda *parts: pc.binary_join_element_wise(*parts, "")  # noqa: E731
    pieces: list[pa.Table] = []
    for col, prefix in (("phone_digits", "p:"), ("email_norm", "e:")):
        sub = t.filter(pc.not_equal(t.column(col), ""))
        n = sub.num_rows
        pieces.append(pa.table({
            "bkey": J(prefix, sub.column(col)),
            "kind": pa.array(np.zeros(n, dtype=np.int8)),
            "id": sub.column("id"),
            "name_norm": pa.nulls(n, type=pa.string()).fill_null(""),
        }))
    toks = pc.split_pattern(t.column("name_norm"), " ")
    parent = pc.list_parent_indices(toks)
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "")
    flat = flat.filter(keep)
    parent = parent.filter(keep)
    pieces.append(pa.table({
        "bkey": J("t:", flat),
        "kind": pa.array(np.ones(len(flat), dtype=np.int8)),
        "id": ids.take(parent),
        "name_norm": t.column("name_norm").take(parent),
    }))
    return pa.concat_tables(pieces).combine_chunks()


def _block_edges(df: pd.DataFrame) -> pa.Table:
    """Per block: verified (a, b) edges.  Exact blocks emit a star
    (components-equivalent to the clique, O(m) edges) — built with
    PURE index arithmetic, because exact blocks are one-per-record and
    a per-group Python loop over them dominated the whole op; token
    blocks verify pairwise full-name ed ≤ 1, star-vs-first past the
    cap."""
    ea_parts: list[np.ndarray] = []
    eb_parts: list[np.ndarray] = []

    # exact-key lanes (phone/email): vectorized star per block
    ex = df[df["kind"] == 0]
    if len(ex):
        sub = ex[["bkey", "id"]].drop_duplicates()
        ids = sub["id"].to_numpy(dtype=np.int64)
        r = segments.runs(sub["bkey"].to_numpy(), (ids,))
        root = np.repeat(ids[r.order[r.starts]], r.sizes)
        others = ~r.new
        ea_parts.append(root[others])
        eb_parts.append(ids[r.order][others])

    ea: list[int] = []
    eb: list[int] = []
    for _, g in df[df["kind"] == 1].groupby("bkey", sort=False):
        sub = g.drop_duplicates("id").sort_values("id", kind="mergesort")
        m = len(sub)
        if m < 2:
            continue
        rid = sub["id"].to_numpy(dtype=np.int64)
        nm = sub["name_norm"].tolist()
        if m > _BUCKET_CAP:
            # stop-token megablock: star-vs-first fallback (documented
            # approximation — recall comes from the other lanes)
            for j in range(1, m):
                if _ed1(nm[0], nm[j]):
                    ea.append(int(rid[0])); eb.append(int(rid[j]))
            continue
        for i in range(m):
            ni = nm[i]
            for j in range(i + 1, m):
                if _ed1(ni, nm[j]):
                    ea.append(int(rid[i])); eb.append(int(rid[j]))
    ea_parts.append(np.asarray(ea, dtype=np.int64))
    eb_parts.append(np.asarray(eb, dtype=np.int64))
    a_all = np.concatenate(ea_parts) if ea_parts else np.zeros(0, np.int64)
    b_all = np.concatenate(eb_parts) if eb_parts else np.zeros(0, np.int64)
    return pa.table({"a": pa.array(a_all), "b": pa.array(b_all)})


def resolve_entities(ds, *, id_col: str = "id", name_col: str = "name",
                     phone_col: str = "phone", email_col: str = "email",
                     num_partitions: int = 32):
    """(id, entity_id) for every input record: records sharing a phone
    (digits-equal), an email (case-insensitive), or a normalized full
    name within Levenshtein distance 1 (transitively) resolve to one
    entity; entity_id = the component's minimum record id, singletons
    map to themselves.  See the module docstring for the shape."""
    norm = ds.map_batches(
        lambda t: normalize_contacts(t, id_col=id_col, name_col=name_col,
                                     phone_col=phone_col, email_col=email_col),
        batch_format="pyarrow",
    ).materialize()

    edges = exchange(norm.map_batches(_block_rows, batch_format="pyarrow"), "bkey",
                     num_partitions, _block_edges, "pandas")
    labels = connected_components_min_label(
        edges, num_partitions=max(8, num_partitions // 4))

    # attach by record id: label rows and id rows co-partition by id;
    # searchsorted keeps everything int64 (a NaN-bearing merge would
    # float64 the ids)
    def attach(rec: pd.DataFrame, label: pd.DataFrame) -> pa.Table:
        # a record in no match edge is its own entity; the label side is
        # column-less when no pair matched at all
        want = rec["id"].to_numpy(dtype=np.int64)
        lab = want
        if len(label):
            lb = label[["node", "label"]].drop_duplicates().sort_values("node", kind="stable")
            lab = lookup(lb["node"].to_numpy(dtype=np.int64),
                         lb["label"].to_numpy(dtype=np.int64), want, default=want)
        return pa.table({"id": pa.array(want), "entity_id": pa.array(lab.astype(np.int64))})

    return copartition({"rec": (norm.select_columns(["id"]), "id"), "label": (labels, "node")},
                       num_partitions, attach, "pandas")


# ---------------------------------------------------------------------------
# deterministic contact-record synthesis (query-side input rendering)
# ---------------------------------------------------------------------------

_FIRST = ["alice", "bruno", "carla", "dmitri", "elena", "farid", "grace",
          "hiro", "ines", "jonas", "karim", "lena", "marco", "nadia",
          "omar", "priya", "quentin", "rosa", "stefan", "tara", "umar",
          "vera", "wei", "xenia"]
_LAST = ["abbott", "becker", "cohen", "duarte", "eriksen", "fontaine",
         "garcia", "hansen", "ibarra", "jensen", "kovacs", "larsen",
         "moreau", "novak", "okafor", "petrov", "quispe", "rossi",
         "silva", "tanaka", "ueda", "varga", "weber", "xu", "yilmaz",
         "zhang", "adler", "blanco", "costa", "dvorak", "egede",
         "fischer", "gupta", "horvat", "ito", "jansen", "kim", "lopez",
         "meier", "nakamura"]


def synth_contacts(t: pa.Table) -> pa.Table:
    """Deterministic contact records from the customer table — shared
    INPUT synthesis between the Ray query and the plain fixture
    reference (the resolution ALGORITHM is implemented independently
    on each side; only the data rendering is shared, like the syslog
    and CEF line renderers).

    Per customer k: a base record (id 3k) with unique name/phone/email;
    every 3rd customer adds a typo variant (id 3k+1: one char dropped
    from the first name, same phone digits in a different format, no
    email); every 7th adds an email-only alias (id 3k+2: unrelated
    name, no phone, same email)."""
    ks = t.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
    ids: list[int] = []
    names: list[str] = []
    phones: list[str] = []
    emails: list[str] = []
    for k in ks.tolist():
        first = _FIRST[k % 24]
        last = _LAST[(k // 24) % 40] + str(k)
        digits = str(2_000_000_000 + k * 7919)
        email = f"{first}.{last}@example.com"
        ids.append(3 * k)
        names.append(f"{first.capitalize()} {last.capitalize()}")
        phones.append(f"+{digits[0]}-{digits[1:4]}-{digits[4:7]}-{digits[7:]}")
        emails.append(email)
        if k % 3 == 0:
            ids.append(3 * k + 1)
            names.append(f"{first[:-1].capitalize()} {last.capitalize()}")
            phones.append(f"({digits[0:3]}) {digits[3:6]}-{digits[6:]}")
            emails.append("")
        if k % 7 == 0:
            # the alias name repeats str(k) twice so two aliases of
            # DIFFERENT customers are always ≥ 2 edits apart (a single
            # suffix divergence appears in both tokens) — the only
            # planted link is the shared email
            ids.append(3 * k + 2)
            names.append(f"Zz{k}q{k} Alias{k}")
            phones.append("")
            emails.append(email.upper())
    return pa.table({
        "id": pa.array(np.asarray(ids, dtype=np.int64)),
        "name": pa.array(names, type=pa.string()),
        "phone": pa.array(phones, type=pa.string()),
        "email": pa.array(emails, type=pa.string()),
    })
