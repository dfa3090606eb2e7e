"""Property tests for ``IndexReader.term_dict``, the one enumeration of the
committed vocabulary, and the multi-term expansions that filter it.

- The same corpus built doc-range-split, split then merged to one segment
  per tkey, and unsplit gives one and the same (term, df, ttf) table.
- Every row's df/ttf equals a recount from the term's decoded postings.
- ``expand_prefix``, ``expand_wildcard`` and ``expand_fuzzy1`` equal
  pure-Python filters over the ``term_dict`` terms, including multi-byte
  terms and the LIKE metacharacters ``%``/``_`` taken literally.
- On a multi-field schema every key is ``<field>:<term>`` and each field's
  df/ttf equals a recount from that field's source text.
"""

import os
import re
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from apache___solr_ray.analyze import Analyzer
from apache___solr_ray.build import FieldSpec, IndexConfig, build_index
from apache___solr_ray.merge import merge_segments
from apache___solr_ray.pipelines.text import _levenshtein1
from apache___solr_ray.query import IndexReader

#: synthetic words plus multi-byte terms, a lone ``_`` and an underscore
#: join (both LIKE metacharacters as literal term text), and single chars
VOCAB = (
    [f"s{c}t" for c in "aeiou"]
    + [f"st{i}" for i in range(30)]
    + [f"w{i}" for i in range(200)]
    + ["straße", "strasse", "日本", "日本語", "日", "café", "cafe", "cafes", "naïve"]
    + ["_", "s_t", "a_b", "x", "7"]
)
CONFIGS = {
    "split": dict(max_postings_per_segment=4000),
    "unsplit": {},
}
BASE = dict(term_partitions=3, target_docs_per_part=128, text_from_html=False)


def _texts(n: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, len(VOCAB) + 1)  # Zipf-like: head terms span every part
    p /= p.sum()
    return [" ".join(rng.choice(VOCAB, size=rng.integers(10, 60), p=p)) for _ in range(n)]


@pytest.fixture(scope="module")
def layouts(ray_session, tmp_path_factory):
    """Readers over the three layouts of one 640-doc corpus (five parts)."""
    d = str(tmp_path_factory.mktemp("td_pages"))
    n = 640
    pq.write_table(
        pa.table(
            {
                "url": pa.array([f"doc://{i}" for i in range(n)]),
                "lang": pa.array(["en"] * n),
                "text": pa.array(_texts(n, seed=3)),
            }
        ),
        os.path.join(d, "p0.parquet"),
        row_group_size=128,
    )
    out = {}
    for name, extra in CONFIGS.items():
        idx = str(tmp_path_factory.mktemp(f"td_{name}"))
        build_index(d, idx, IndexConfig(**BASE, **extra))
        out[name] = IndexReader(idx)
    merged = str(tmp_path_factory.mktemp("td_merged"))
    shutil.rmtree(merged)
    shutil.copytree(out["split"].dir, merged)
    merge_segments(merged, target_per_tkey=1, merge_factor=4)
    out["merged"] = IndexReader(merged)
    return out


def test_layouts_give_one_term_dict(layouts):
    split, merged, unsplit = layouts["split"], layouts["merged"], layouts["unsplit"]
    # the split build really splits tkeys into salted doc-range segments
    assert len(split.manifest["segments"]) > len(unsplit.manifest["segments"])
    assert len(merged.manifest["segments"]) == len(unsplit.manifest["segments"])
    want = unsplit.term_dict()
    assert want.column_names == ["term", "df", "ttf"]
    assert want["term"].to_pylist() == sorted(want["term"].to_pylist())
    assert split.term_dict().equals(want)
    assert merged.term_dict().equals(want)
    assert split.term_dict() is split.term_dict()  # cached per reader


def test_term_dict_matches_decoded_postings(layouts):
    r = layouts["split"]
    td = r.term_dict()
    n_split = 0
    for term, df, ttf in zip(*(td[c].to_pylist() for c in ("term", "df", "ttf"))):
        tp = r.term_postings(term)
        docs, tfs, _ = tp.decode_all()
        assert (df, ttf) == (len(docs), int(tfs.sum())), term
        n_split += len(tp.views) > 1
    assert n_split, "no term spans several segments"


def _like_python(pattern: str) -> re.Pattern:
    """Lucene wildcard -> regex: ``*`` any run, ``?`` one char, ``\\x`` the
    literal x, every other char literal."""
    out, i = [], 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        out.append(".*" if c == "*" else "." if c == "?" else re.escape(c))
        i += 1
    return re.compile("".join(out), re.S)


@pytest.mark.parametrize("layout", ["split", "merged"])
def test_expansions_equal_python_filters(layouts, layout):
    r = layouts[layout]
    terms = r.term_dict()["term"].to_pylist()
    assert {"日本", "straße", "_", "s_t"} <= set(terms)
    for prefix in ["", "s", "日", "straß", "no_such_prefix"]:
        assert r.expand_prefix(prefix) == [t for t in terms if t.startswith(prefix)], prefix
    for pattern in ["s*t", "?", "\\*", "%", "_", "s_t", "*_*", "s?t", "日?", "caf?", "*"]:
        rx = _like_python(pattern)
        want = [t for t in terms if rx.fullmatch(t)]
        assert r.expand_wildcard(pattern) == want, pattern
    assert r.expand_wildcard("?") == ["7", "_", "x", "日"]
    assert r.expand_wildcard("_") == ["_"]
    assert r.expand_wildcard("%") == []
    for target in ["set", "sxt", "cafe", "日本", "strase", "s", "w1", "zzzz"]:
        want = [t for t in terms if _levenshtein1(t, target)]
        assert r.expand_fuzzy1(target, _levenshtein1) == want, target


def test_multi_field_keys_are_field_term(ray_session, tmp_path_factory):
    rng = np.random.default_rng(13)
    n = 300
    titles = [" ".join(rng.choice(VOCAB[:20], size=rng.integers(1, 5))) for _ in range(n)]
    bodies = _texts(n, seed=14)
    d = str(tmp_path_factory.mktemp("td_mf_pages"))
    pq.write_table(
        pa.table(
            {
                "url": pa.array([f"doc://{i}" for i in range(n)]),
                "lang": pa.array(["en"] * n),
                "title": pa.array(titles),
                "body": pa.array(bodies),
            }
        ),
        os.path.join(d, "p0.parquet"),
        row_group_size=100,
    )
    idx = str(tmp_path_factory.mktemp("td_mf_index"))
    build_index(
        d,
        idx,
        IndexConfig(
            **BASE,
            max_postings_per_segment=4000,
            fields=(
                FieldSpec("title", source="title"),
                FieldSpec("body", source="body"),
                FieldSpec("all", copy_sources=("title", "body")),
            ),
        ),
    )
    a = Analyzer()
    want_df: Counter = Counter()
    want_ttf: Counter = Counter()
    for title, body in zip(titles, bodies):
        for field, text in (("title", title), ("body", body), ("all", f"{title} {body}")):
            toks = Counter(f"{field}:{t}" for t in a.analyze(text))
            want_df.update(toks.keys())
            want_ttf.update(toks)
    r = IndexReader(idx)
    td = r.term_dict()
    keys = td["term"].to_pylist()
    assert keys == sorted(want_df)
    assert td["df"].to_pylist() == [want_df[k] for k in keys]
    assert td["ttf"].to_pylist() == [want_ttf[k] for k in keys]
    assert r.expand_prefix("title:") == [k for k in keys if k.startswith("title:")]
    assert r.expand_wildcard("body:s?t") == [
        k for k in keys if re.fullmatch(r"body:s.t", k, re.S)
    ]
