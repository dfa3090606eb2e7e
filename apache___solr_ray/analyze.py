"""Analysis chain: StandardTokenizer-equivalent → LowerCaseFilter.

Rebuilds the reference's default ``text_general`` chain
(``solr/server/solr/configsets/_default/conf/managed-schema.xml:299-315``):
``StandardTokenizer → StopFilter(stopwords.txt, ignoreCase) → LowerCaseFilter``
— where the shipped ``stopwords.txt`` is empty, so the stop filter is a
no-op and is not built (conformance-relevant: head terms stay in the index).

Tokenizer semantics: a documented approximation of UAX#29 word boundaries as
used by Lucene's StandardTokenizer (reference docs
``solr/solr-ref-guide/modules/indexing-guide/pages/tokenizers.adoc:115-127``):

- a token is a maximal run of word characters (``\\w``: letters, digits,
  underscore — underscore joins like UAX#29 ExtendNumLet),
- ``.`` ``'`` ``’`` join two letters (MidNumLet/MidLetter: ``example.com``,
  ``don't`` are single tokens),
- ``.`` ``,`` join two digits (MidNum: ``3.14``, ``1,000``),
- hyphens, ``@``, and all other punctuation split,
- tokens longer than 255 chars are emitted in 255-char pieces
  (``maxTokenLength`` semantics),
- LowerCaseFilter == ``str.lower()`` applied after tokenization.

``doc_len`` (the BM25 length norm input) counts the chain's tokens,
matching Lucene's norm calculation with discountOverlaps=true (no
overlapping tokens are produced by this chain).

The batch path is vectorized: per-doc C-regex findall, then Arrow
dictionary-encode and one sort of the (doc, term) keys for (term, doc, tf)
aggregation — no Python loops over tokens. Positions leave the chain as
the codec's own payload (``codec.encode_position_gaps``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from apache___solr_ray import codec

MAX_TOKEN_LENGTH = 255

TOKEN_RE = re.compile(
    r"\w+(?:(?:(?<=\d)[.,](?=\d)|(?<=[^\W\d_])['’.](?=[^\W\d_]))\w+)*",
    re.UNICODE,
)


def _split_long(toks: list[str]) -> list[str]:
    """``maxTokenLength``: a token over 255 chars becomes 255-char pieces.
    The split is rare, so one ``max`` scan guards it."""
    if not toks or max(map(len, toks)) <= MAX_TOKEN_LENGTH:
        return toks
    return [t[i : i + MAX_TOKEN_LENGTH] for t in toks for i in range(0, len(t), MAX_TOKEN_LENGTH)]


def tokenize(text: str) -> list[str]:
    """StandardTokenizer-equivalent: raw (pre-filter) tokens, original case."""
    return _split_long(TOKEN_RE.findall(text))


class Analyzer:
    """The full chain. Construct once per actor/task; reuse across batches."""

    def analyze(self, text: str) -> list[str]:
        return [t.lower() for t in tokenize(text)]

    # -- vectorized batch path ------------------------------------------------

    def term_freqs(
        self, texts: list[str] | pa.Array, positions: bool = False
    ) -> tuple:
        """Batch → per-(doc,term) tf tuples.

        Returns ``(terms, doc_idx, tf, doc_len)`` where ``terms`` is a
        pa.StringArray aligned with ``doc_idx``/``tf`` (one row per distinct
        (doc, term) pair, in (doc, first appearance of the term in the
        batch) order), and ``doc_len[d]`` is the analyzed token count of
        doc d.

        With ``positions=True`` a fifth element is returned: a
        ``pa.BinaryArray`` aligned with the pairs, each value the
        ``codec.encode_position_gaps`` payload of that pair's 0-based
        token indices.
        """
        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.to_pylist()
        # single flat token list, C-level extend
        flat: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        findall = TOKEN_RE.findall
        for i, t in enumerate(texts):
            toks = _split_long(findall(t or ""))
            counts[i] = len(toks)
            flat += toks
        dict_arr = pc.dictionary_encode(pc.utf8_lower(pa.array(flat, type=pa.string())))
        vocab = dict_arr.dictionary
        nvocab = max(len(vocab), 1)
        # one (doc, term) key per token: its sorted runs are the pairs; a
        # stable sort keeps each pair's token indices ascending
        key = np.repeat(np.arange(len(counts), dtype=np.int64), counts) * nvocab
        key += dict_arr.indices.to_numpy(zero_copy_only=False)
        if positions:
            order = np.argsort(key, kind="stable")
            key = key[order]
        else:
            key.sort()
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        tf = np.diff(np.append(starts, len(key)))
        doc_idx = key[starts] // nvocab
        terms = pc.take(vocab, pa.array(key[starts] % nvocab))
        if not positions:
            return terms, doc_idx, tf, counts
        doc_start = np.cumsum(counts) - counts
        stream = codec.encode_position_gaps(order - doc_start[key // nvocab], starts)
        offsets = codec.position_offsets(stream, tf).astype(np.int32)
        pos_arr = pa.Array.from_buffers(
            pa.binary(), len(starts), [None, pa.py_buffer(offsets), pa.py_buffer(stream)]
        )
        return terms, doc_idx, tf, counts, pos_arr


#: Simple tokenizer used by the SQL-oracle-checked text operators: lowercase
#: ``[a-z0-9]+`` runs — exactly DuckDB's
#: ``regexp_split_to_array(lower(text), '[^a-z0-9]+')`` minus empty strings.
SIMPLE_TOKEN_RE = re.compile(r"[a-z0-9]+")


def simple_tokenize(text: str) -> list[str]:
    return SIMPLE_TOKEN_RE.findall(text.lower())


# ---------------------------------------------------------------------------
# Optional token-filter factories — the configurable analysis-chain surface
# (reference: hundreds of filter factories enumerated in
# solr/solr-ref-guide/modules/indexing-guide/pages/filters.adoc; chains are
# assembled per field type, FieldTypePluginLoader.java:179-330). These are
# NOT in the default text_general chain (which stays frozen for parity);
# compose them explicitly: Analyzer() output -> filter -> filter.
# ---------------------------------------------------------------------------


def shingle_filter(tokens: list[str], n: int = 2, sep: str = " ") -> list[str]:
    """ShingleFilter analog: token n-grams (word shingles), order-preserving.
    Emits only the n-grams (outputUnigrams=false shape)."""
    if len(tokens) < n:
        return []
    return [sep.join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def synonym_filter(tokens: list[str], mapping: dict[str, str]) -> list[str]:
    """SynonymGraphFilter (replace-mode) analog: single-token synonym map
    applied after lowercasing; unmapped tokens pass through."""
    return [mapping.get(t, t) for t in tokens]


def minimal_plural_stem(token: str) -> str:
    """Documented minimal English plural stemmer (frozen spec, in the
    spirit of Lucene's EnglishMinimalStemFilter — semantics are THIS
    engine's documented rules, mirrored exactly by the SQL oracle):

    - tokens shorter than 4 chars are unchanged,
    - tokens ending in 'ss' or 'us' are unchanged,
    - otherwise a trailing 's' is dropped.
    """
    if len(token) < 4 or not token.endswith("s"):
        return token
    if token.endswith(("ss", "us")):
        return token
    return token[:-1]


def stem_filter(tokens: list[str]) -> list[str]:
    return [minimal_plural_stem(t) for t in tokens]
