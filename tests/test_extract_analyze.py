"""Extraction + analysis chain conformance (FIXTURES.md invariants 1-2)."""

import numpy as np
import pyarrow as pa

from apache___solr_ray.analyze import Analyzer, simple_tokenize, tokenize
from apache___solr_ray.corpus import pages_table
from apache___solr_ray.extract import extract_batch, extract_text, render_html


def test_extract_basic():
    h = "<html><body><p>Hello &amp; goodbye</p><!-- no --><script>var x=1<2;</script></body></html>"
    assert extract_text(h) == "Hello & goodbye"


def test_extract_entities_single_pass():
    assert extract_text("&amp;lt;") == "&lt;"
    assert extract_text("a &#x27;quoted&#39; b") == "a 'quoted' b"


def test_extract_literal_lt():
    # '<' not starting a tag is literal (HTML5 rule)
    assert extract_text("1 < 2 but <b>bold</b>") == "1 < 2 but bold"


def test_extract_style_and_doctype():
    h = "<!DOCTYPE html><style>p{color:red}</style><div>x</div>"
    assert extract_text(h) == "x"


def test_render_roundtrip_and_batch_parity():
    texts = [
        "Hello, World! It's 3.14 & <tags> aren't text.",
        "a" * 500 + " end",
        "plain",
        "quote ' and \" and & and < and >",
    ]
    htmls = [render_html(t, seed=i * 17 + 1) for i, t in enumerate(texts)]
    for t, h in zip(texts, htmls):
        assert extract_text(h) == t
    got = extract_batch(pa.array([h.encode() for h in htmls], pa.binary()))
    assert got.to_pylist() == texts


def test_corpus_extraction_invariant():
    t = pages_table(300, seed=42)
    got = extract_batch(t.column("html"))
    want = t.column("text").combine_chunks()
    assert got.to_pylist() == want.to_pylist()  # byte-identical per url
    # scalar spec agrees on a sample
    for i in range(0, 300, 37):
        assert extract_text(t.column("html")[i].as_py()) == t.column("text")[i].as_py()


def test_corpus_determinism_and_chunk_independence():
    a = pages_table(100, seed=42)
    b = pages_table(100, seed=42)
    assert a.equals(b)
    # range generation matches full generation
    full = pages_table(50, seed=42, start=0)
    part = pages_table(20, seed=42, start=30)
    assert full.slice(30, 20).column("url").to_pylist() == part.column("url").to_pylist()
    assert full.slice(30, 20).column("text").to_pylist() == part.column("text").to_pylist()


def test_corpus_has_duplicates_and_langs():
    t = pages_table(2000, seed=42)
    texts = t.column("text").to_pylist()
    assert len(set(texts)) < len(texts)  # ~2% dup subset
    langs = set(t.column("lang").to_pylist())
    assert "en" in langs and len(langs) > 1
    urls = t.column("url").to_pylist()
    assert len(set(urls)) == len(urls)  # uniqueKey


def test_tokenizer_uax29ish():
    assert tokenize("Hello, world!") == ["Hello", "world"]
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("example.com and user@example.com") == [
        "example.com",
        "and",
        "user",
        "example.com",
    ]
    assert tokenize("3.14 1,000 a,b") == ["3.14", "1,000", "a", "b"]
    assert tokenize("state-of-the-art") == ["state", "of", "the", "art"]
    assert tokenize("foo_bar MP3 x86_64") == ["foo_bar", "MP3", "x86_64"]
    assert tokenize("trailing. dot") == ["trailing", "dot"]


def test_tokenizer_max_length():
    t = tokenize("x" * 600)
    assert [len(x) for x in t] == [255, 255, 90]


def test_analyzer_lowercase():
    a = Analyzer()
    assert a.analyze("The QUICK Brown") == ["the", "quick", "brown"]


def test_term_freqs_vectorized_matches_scalar():
    """The batch path equals the scalar chain, with and without positions:
    each pair's position payload decodes to that term's token indices in
    ``tokenize(text)``, and the first four outputs do not depend on
    ``positions``."""
    from apache___solr_ray.codec import decode_position_stream

    a = Analyzer()
    texts = [
        "The cat sat. The cat.", "dog", "", "Cat CAT cat", None,
        "pi is 3.14, don't a-b cat", "y" * 600 + " cat " + "Y" * 300,
    ]
    inputs = [texts, pa.chunked_array([texts[:3], texts[3:]], pa.string())]
    for inp in inputs:
        terms, doc_idx, tf, doc_len = a.term_freqs(inp)
        got = {}
        for t, d, f in zip(terms.to_pylist(), doc_idx, tf):
            got[(int(d), t)] = int(f)
        # scalar oracle
        want, want_pos, lens = {}, {}, []
        for d, txt in enumerate(texts):
            toks = a.analyze(txt or "")
            lens.append(len(toks))
            for i, t in enumerate(toks):
                want[(d, t)] = want.get((d, t), 0) + 1
                want_pos.setdefault((d, t), []).append(i)
        assert got == want
        assert list(doc_len) == lens

        *base, pos = a.term_freqs(inp, positions=True)
        for x, y in zip(base, (terms, doc_idx, tf, doc_len)):
            assert x.equals(y) if isinstance(x, pa.Array) else np.array_equal(x, y)
        for t, d, f, p in zip(terms.to_pylist(), doc_idx, tf, pos.to_pylist()):
            stream = np.frombuffer(p, dtype=np.uint8)
            assert decode_position_stream(stream, np.array([f])).tolist() == want_pos[(int(d), t)]


def test_simple_tokenize_matches_duckdb_semantics():
    import duckdb

    texts = ["Hello, World 42!", "a-b_c", "ümlaut"]
    for t in texts:
        sql = duckdb.sql(
            "select list_filter(regexp_split_to_array(lower($1), '[^a-z0-9]+'), x -> x <> '') ",
            params=[t],
        ).fetchone()[0]
        assert simple_tokenize(t) == sql


def test_token_filter_factories():
    """Optional chain factories: shingles, synonyms, minimal plural stem
    (frozen spec — mirrored by the SQL oracles in pipelines.text)."""
    from apache___solr_ray.analyze import (
        minimal_plural_stem,
        shingle_filter,
        stem_filter,
        synonym_filter,
    )

    assert shingle_filter(["a", "b", "c", "d"], 2) == ["a b", "b c", "c d"]
    assert shingle_filter(["a", "b", "c"], 3) == ["a b c"]
    assert shingle_filter(["a"], 2) == []
    assert synonym_filter(["fast", "dog"], {"fast": "quick"}) == ["quick", "dog"]
    cases = {
        "dogs": "dog",       # plain plural
        "glass": "glass",    # -ss unchanged
        "bus": "bus",        # <4 chars unchanged
        "virus": "virus",    # -us unchanged
        "is": "is",          # short
        "its": "its",        # <4 chars
        "tables": "table",
        "queries": "querie", # minimal stemmer, by spec
        "s": "s",
    }
    for tok, want in cases.items():
        assert minimal_plural_stem(tok) == want, tok
    assert stem_filter(["dogs", "glass"]) == ["dog", "glass"]


def test_soundex_published_vectors():
    """The Soundex encoder must reproduce the classic published test
    vectors, including the h/w-transparency cases (Ashcraft) and the
    adjacent-code collapse across the first letter (Pfister)."""
    from apache___solr_ray.pipelines.text import _soundex

    vectors = {
        "robert": "R163", "rupert": "R163",
        "ashcraft": "A261", "ashcroft": "A261",
        "tymczak": "T522", "pfister": "P236", "honeyman": "H555",
        "white": "W300", "wright": "W623",
        "smith": "S530", "smyth": "S530",
        "a": "A000", "gauss": "G200", "jackson": "J250",
    }
    for term, want in vectors.items():
        assert _soundex(term) == want, term


def test_soundex_vocab_is_ascii_letters():
    """Only ASCII lowercase terms are Soundex-encoded, as in the oracle's
    ``^[a-z]+$`` filter: non-ASCII letters, digits and mixed terms are out."""
    from apache___solr_ray.pipelines.text import _soundex_vocab

    terms = ["smith", "café", "naïve", "straße", "x1", "3.14", "o'neil", "a"]
    assert _soundex_vocab(terms) == ["smith", "a"]
