"""BM25 top-k query serving over the built index.

Rebuilds the reference query path (SURVEY §3.2: ``SearchHandler`` →
``SolrIndexSearcher`` with ``BM25Similarity``; distributed merge semantics
of ``QueryComponent.mergeIds``):

- global collection stats (docCount, sumTotalTermFreq, exact global df) come
  from the build — ExactStatsCache semantics (reference
  ``solr/core/src/java/org/apache/solr/search/stats/ExactStatsCache.java``),
  so ranking is identical to a single index regardless of partitioning;
- per-term scorers are Lucene-exact (lucene.BM25Scorer); multi-term scores
  sum per Lucene's DisjunctionSumScorer (float64 accumulate → float32);
- top-k ties break by ascending doc_id (Lucene single-index collector
  order, the conformance rule fixed in SURVEY §7.4);
- evaluation is **exhaustive and batched**: ``IndexReader.topk`` is the
  one BM25 top-k entry point (``allowed=`` filters before rank selection,
  ``df_override=`` carries a shard's global df); it, ``cursor_page`` and
  ``grouped_topk`` score through one step, ``IndexReader._score``
  (scorers, live docs and filter mask), over one kernel, ``_score_all``
  (``topk_dismax`` calls it per field): one vectorized decode-and-score
  pass over every query term's postings, summed per doc in a
  candidate-sized accumulator; ``merge_topk`` is the one top-k selection.
  Lucene prunes with block-max WAND instead; on this engine's posting
  lists the bound bookkeeping cost more than the blocks it skipped, so no
  pruning is done. Multi-block terms keep their block headers for the
  block skip of ``TermPostings.positions_for_docs``;
- a reader scoped to parts [lo, hi) (``part_range``, a shard's reader)
  answers only for their docs: ``IndexReader._alive``, the one live-docs
  step of every path, drops other parts' docs with the tombstoned ones;
- positional queries (phrase, span-near, complex-phrase, payload) share
  one evaluator: ``_clause_positions`` decodes each clause once, keeps the
  live docs every clause holds and reads positions only for the blocks
  that hold one; ``_span_freqs`` chains ordered spans (slop 0: a phrase);
- per-doc columns (stored fields, facet, filter, group and sort values)
  are read only through ``IndexReader.doc_column`` / ``doc_values``, over
  the doc parts the committed manifest names — the reader of one commit
  point, like Lucene's stored-fields and docValues readers — never
  whatever the ``docs/`` directory holds.

``TopKQueryActor`` is the stateful stage: construct once per actor (opens
the index, caches term dicts / postings views), score query batches in
``__call__`` — used via ``Dataset.map_batches(TopKQueryActor, concurrency=N,
...)``. ``QueryService`` is the one distributed serving path: shard actors
on scoped readers in replica groups, each returning its own ``topk`` with
the global df the coordinator broadcasts, a deadline and shard tolerance
per call, and a k-way merge with the reference tie-break.
"""

from __future__ import annotations

import os
import time
from collections import Counter, OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from apache___solr_ray.analyze import Analyzer
from apache___solr_ray.codec import BLOCK, decode_postings_concat
from apache___solr_ray.lucene import BM25Scorer
from apache___solr_ray.manifest import docs_stamp, read_json
from apache___solr_ray.segment import TERMS_SCHEMA, SegmentReader, open_segments, term_hash

#: (part, column) doc-sidecar arrays an ``IndexReader`` keeps (LRU)
DOCS_CACHE_PARTS = 64


def _str_list(terms: pa.ChunkedArray) -> list[str]:
    """Arrow strings -> Python list (the numpy path is ~10x ``to_pylist``)."""
    return terms.to_numpy(zero_copy_only=False).tolist()


class TermPostings:
    """All posting parts of one term: one view per segment of its tkey that
    holds it (several when phase B split the tkey into doc-range chunks, or
    appends added segments). Each view holds a disjoint range of the term's
    docs; views are in doc order (the reader's segment order)."""

    __slots__ = ("term", "views", "df", "ttf")

    def __init__(self, term, views, df, ttf):
        self.term = term
        self.views = views  # list[PostingsView], global doc order across list
        self.df = df
        self.ttf = ttf

    def decode_all(self):
        return decode_postings_concat(self.views)

    def positions_for_docs(self, docs_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of this term restricted to the given (sorted, unique)
        doc ids. Returns flat ``(doc_rep, pos)`` — one row per occurrence.
        Only blocks that can contain a candidate doc are decoded; the
        position stream is sliced per selected block (never for skipped
        doc ranges) — the phrase path's skip behavior."""
        out_docs: list[np.ndarray] = []
        out_pos: list[np.ndarray] = []
        for v in self.views:
            bis = np.zeros(1, dtype=np.int64)  # a single block: decode it
            if v.n_blocks > 1:
                lasts = v.headers["last_doc"].astype(np.int64)
                cand = docs_sorted[docs_sorted <= lasts[-1]]
                bis = np.unique(np.searchsorted(lasts, cand, side="left"))
                if len(bis) == 0:
                    continue
            d, t, _ = v.decode_blocks(bis)
            sel = np.isin(d, docs_sorted, assume_unique=True)
            if not sel.any():
                continue
            pos_flat = v.decode_blocks_positions(bis, t)
            rep_sel = np.repeat(sel, t)
            out_docs.append(np.repeat(d[sel], t[sel]))
            out_pos.append(pos_flat[rep_sel])
        if not out_docs:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy()
        return np.concatenate(out_docs), np.concatenate(out_pos)


class IndexReader:
    """Open a committed index: stats, and every segment it reads (both
    files mapped), so the reader answers from its own commit point whatever
    later commits remove; postings decode lazily. A ``part_range`` reader
    reads and answers only for its parts (``_alive``)."""

    def __init__(self, index_dir: str, part_range: tuple[int, int] | None = None):
        self.dir = index_dir
        man = self._open(part_range)
        self.manifest = man
        self.stats = man["stats"]
        self.doc_count = self.stats["doc_count"]
        self.sum_total_tf = self.stats["sum_total_tf"]
        #: per-field CollectionStatistics for multi-field schemas
        #: (ExactStatsCache is per-field in the reference too)
        self.field_stats: dict[str, dict] = self.stats.get("fields") or {}
        self.n_doc_parts = self.stats["n_doc_parts"]
        self.T = self.stats["term_partitions"]
        lo, hi = part_range or (0, self.n_doc_parts)
        #: [lo, hi) doc ids of the part range; None when it covers every part
        self._doc_range = None if lo <= 0 and hi >= self.n_doc_parts else (lo << 32, hi << 32)
        self._term_dict: pa.Table | None = None
        self._term_cache: OrderedDict[str, TermPostings | None] = OrderedDict()
        self._docs_cache: OrderedDict[tuple[int, str], pa.Array] = OrderedDict()
        from apache___solr_ray.deletes import deleted_ids

        self.tombstones = deleted_ids(man)
        self.analyzer = Analyzer()  # same default chain as the build

    def _alive(self, doc_ids: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray | None:
        """Bool mask of the reader's live docs (Lucene liveDocs): in its part
        range and not tombstoned, ANDed with ``mask`` when given; ``mask``
        when every doc is live. ``tombstones`` is sorted and unique
        (``deletes.deleted_ids``): one binary search per doc id."""
        if self._doc_range is not None:
            in_range = (doc_ids >= self._doc_range[0]) & (doc_ids < self._doc_range[1])
            mask = in_range if mask is None else mask & in_range
        t = self.tombstones
        if len(t) == 0:
            return mask
        alive = t[np.minimum(np.searchsorted(t, doc_ids), len(t) - 1)] != doc_ids
        return alive if mask is None else mask & alive

    # -- segment access -----------------------------------------------------

    def _open(self, part_range: tuple[int, int] | None) -> dict:
        """Read the committed manifest and open every segment of it that
        the reader will read (``segment.open_segments``: each pack's two
        files mapped once); returns the manifest. A commit lists each
        tkey's segments in doc order (``segment.doc_order``), which
        ``_term_readers`` keeps. Packs are write-once,
        but a commit that lands between the manifest read and the opens
        removes the previous commit's packs: then the manifest is read
        once more."""
        for attempt in (0, 1):
            man = read_json(os.path.join(self.dir, "index_manifest.json"))
            if man is None:
                raise FileNotFoundError(f"no committed index at {self.dir}")
            # a scoped reader maps only its parts' segments
            entries = [
                s
                for s in man["segments"]
                if part_range is None or (s["part_hi"] > part_range[0] and s["part_lo"] < part_range[1])
            ]
            self._segments_by_tkey: dict[int, list[dict]] = {}
            for s in entries:
                self._segments_by_tkey.setdefault(s["tkey"], []).append(s)
            try:
                self._readers: dict[str, SegmentReader] = open_segments(self.dir, entries)
                return man
            except FileNotFoundError:
                if attempt:
                    raise

    def _term_readers(self, h: np.uint64) -> list[SegmentReader]:
        """Readers of the segments of the tkey of the term whose
        ``term_hash`` is ``h``."""
        tkey = int(h % np.uint64(self.T))
        return [self._readers[seg["name"]] for seg in self._segments_by_tkey.get(tkey, ())]

    def term_dict(self) -> pa.Table:
        """The vocabulary of the open segments as (term, df, ttf), one row
        per term in term order — Lucene's TermsEnum over the committed
        dictionaries. Salted segments of one tkey hold disjoint docs, so
        the per-segment sum is exact. Built on first use and cached for the
        reader's lifetime; BM25 serving never builds it."""
        if self._term_dict is None:
            tables = [r.terms_table() for r in self._readers.values()]
            t = pa.concat_tables(tables) if tables else TERMS_SCHEMA.empty_table()
            self._term_dict = (
                t.group_by("term")
                .aggregate([("df", "sum"), ("ttf", "sum")])
                .select(["term", "df_sum", "ttf_sum"])
                .rename_columns(TERMS_SCHEMA.names)
                .sort_by("term")
                .combine_chunks()
            )
        return self._term_dict

    def term_postings(self, term: str, h: np.uint64 | None = None) -> TermPostings | None:
        """All of a term's postings (``h``: its ``term_hash``, when the
        caller has it), through an LRU term cache."""
        hit = self._term_cache.get(term)
        if term in self._term_cache:
            self._term_cache.move_to_end(term)
            return hit
        if h is None:
            h = term_hash(np.array([term], dtype=object))[0]
        views, df, ttf = [], 0, 0
        for r in self._term_readers(h):
            hit = r.postings(term, h)
            if hit is not None:
                views.append(hit[0])
                df += hit[1]
                ttf += hit[2]
        out = TermPostings(term, views, df, ttf) if views else None
        self._term_cache[term] = out
        if len(self._term_cache) > 4096:
            self._term_cache.popitem(last=False)
        return out

    # -- scoring ------------------------------------------------------------

    def _field_collection_stats(self, field: str | None) -> tuple[int, int]:
        """(docCount, sumTotalTermFreq) for BM25's avgdl — per-field when the
        schema has that field (Lucene CollectionStatistics is per-field),
        else the whole-collection stats of the implicit single field."""
        if field and field in self.field_stats:
            fs = self.field_stats[field]
            return int(fs["doc_count"]), int(fs["sum_total_tf"])
        return self.doc_count, self.sum_total_tf

    def _scorers(
        self,
        query: str,
        df_override: dict[str, int] | None = None,
        field: str | None = None,
    ) -> list[tuple[TermPostings, BM25Scorer]]:
        prefix = f"{field}:" if field else ""
        counts = Counter([prefix + tok for tok in self.analyzer.analyze(query)])
        dc, stf = self._field_collection_stats(field)
        # one term_hash call for every query term the term cache lacks
        miss = [term for term in counts if term not in self._term_cache]
        hashes = dict(zip(miss, term_hash(np.array(miss, dtype=object)))) if miss else {}
        out = []
        for term, n in counts.items():
            tp = self.term_postings(term, hashes.get(term))
            if tp is not None:
                # n duplicate query terms == n identical clauses == boost n;
                # df_override carries GLOBAL df for doc-range-sharded readers
                # (ExactStatsCache semantics — a shard's local df would give
                # the reference's LocalStatsCache ranking divergence)
                df = df_override.get(term, tp.df) if df_override else tp.df
                out.append((tp, BM25Scorer(df, dc, stf, boost=float(n))))
        return out

    def _score(
        self, query: str, allowed=None, field: str | None = None, df_override: dict[str, int] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one scoring step of the BM25 top-k entry points: every live
        doc matching ``query`` (ascending) with its float32 score sum
        (``_score_all``), restricted to the docs ``allowed(doc_ids)``
        passes when given; empty when no query term is indexed."""
        scorers = self._scorers(query, df_override=df_override, field=field)
        if not scorers:
            return np.zeros(0, np.int64), np.zeros(0, np.float32)
        return _score_all(scorers, lambda docs: self._alive(docs, None if allowed is None else allowed(docs)))

    def term_stats_map(self, query: str) -> dict[str, int]:
        """Global (term -> df) for a query — the ExactStatsCache round-trip
        payload a coordinator broadcasts to shards. Reads term dictionaries
        only: no postings file is opened."""
        out = {}
        terms = list(set(self.analyzer.analyze(query)))
        for term, h in zip(terms, term_hash(np.array(terms, dtype=object))):
            df = sum(st[0] for r in self._term_readers(h) if (st := r.term_stats(term, h)))
            if df:
                out[term] = df
        return out

    def topk_exhaustive(
        self, query: str, k: int = 10, field: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode-everything scorer: the correctness baseline. Per-term decode
        and score, and its own ``np.add.at`` sum in scorer order."""
        scorers = self._scorers(query, field=field)
        if not scorers:
            return np.zeros(0, np.int64), np.zeros(0, np.float32)
        docs_list, score_list = [], []
        for tp, sc in scorers:
            d, t, m = tp.decode_all()
            alive = self._alive(d)
            if alive is not None:
                d, t, m = d[alive], t[alive], m[alive]
            docs_list.append(d)
            score_list.append(sc.score(t, m).astype(np.float64))
        uniq, inv = np.unique(np.concatenate(docs_list), return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(acc, inv, np.concatenate(score_list))
        return merge_topk([(uniq, acc.astype(np.float32))], k)

    def match_docs(
        self, query: str, mode: str = "or", min_should_match: int | None = None
    ) -> np.ndarray:
        """Exact matching live doc ids, ascending, of a boolean query — the
        DocSet analog (reference DocSet.java / the `lucene` parser's
        default-OR vs required-AND clauses, edismax ``mm``). No scoring: a
        doc matches when at least ``min_should_match`` distinct analyzed
        terms hold it (default: 1 for "or", all of them for "and")."""
        terms = dict.fromkeys(self.analyzer.analyze(query))
        if min_should_match is None:
            min_should_match = len(terms) if mode == "and" else 1
        sets = [tp.decode_all()[0] for t in terms if (tp := self.term_postings(t)) is not None]
        docs, counts = np.unique(np.concatenate([np.zeros(0, np.int64), *sets]), return_counts=True)
        out = docs[counts >= min_should_match]
        alive = self._alive(out)
        return out if alive is None else out[alive]

    # -- positional queries: one evaluator --------------------------------

    def _token_clauses(self, text: str) -> list[list[TermPostings]]:
        """One single-term clause per analyzed token of ``text``; none when
        a token is not indexed (no doc can match)."""
        tps = [self.term_postings(t) for t in self.analyzer.analyze(text)]
        return [] if any(tp is None for tp in tps) else [[tp] for tp in tps]

    def _clause_positions(self, clauses: list[list[TermPostings]]):
        """Step 1 of the positional evaluator: ``(cand, norms, occ)``, the
        live docs every clause holds (ascending), their norm bytes, and per
        clause ``(rank, pos)``, one row per occurrence in a candidate with
        ``rank`` indexing ``cand``. Each view decodes once, rarest clause
        first (Lucene leads with the lowest-cost scorer); positions decode
        only for the blocks holding a candidate, found from those postings
        (block ``b`` is postings ``[b*BLOCK, (b+1)*BLOCK)``) and their tfs."""
        clause_views = [[v for tp in c for v in tp.views] for c in clauses]
        dec: dict[int, tuple] = {}  # id(view) -> (view, docs, tfs, norms)
        cand = None
        for i in np.argsort([sum(tp.df for tp in c) for c in clauses], kind="stable"):
            for v in clause_views[i]:
                if id(v) not in dec:  # a term in two clauses decodes once
                    dec[id(v)] = (v, *v.decode_all())
            docs = np.concatenate([dec[id(v)][1] for v in clause_views[i]])
            if len(clauses[i]) > 1:  # a wildcard clause: its terms share docs
                docs = np.unique(docs)
            cand = docs if cand is None else cand[np.isin(cand, docs, assume_unique=True)]
            if len(cand) == 0:
                break
        alive = self._alive(cand)
        if alive is not None:
            cand = cand[alive]
        if len(cand) == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, np.zeros(0, dtype=np.uint8), [(z, z)] * len(clauses)
        norms = np.zeros(len(cand), dtype=np.uint8)
        occ: dict[int, tuple] = {}  # id(view) -> (rank, pos) of its candidates
        for key, (v, d, t, m) in dec.items():
            sel = np.isin(d, cand, assume_unique=True)
            if not sel.any():
                continue
            rank = np.searchsorted(cand, d[sel])
            norms[rank] = m[sel]  # a doc's norm is the same in every clause
            blocks = np.zeros(v.n_blocks, dtype=bool)
            blocks[np.flatnonzero(sel) // BLOCK] = True
            read = np.repeat(blocks, BLOCK)[: len(d)]
            pos = v.decode_blocks_positions(np.flatnonzero(blocks), t[read])
            occ[key] = np.repeat(rank, t[sel]), pos[np.repeat(sel[read], t[read])]
        parts = [[occ[id(v)] for v in views if id(v) in occ] for views in clause_views]
        return cand, norms, [tuple(map(np.concatenate, zip(*p))) for p in parts]

    def _span_freqs(
        self, clauses: list[list[TermPostings]], slop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positional evaluator: ``(doc_ids, freq, norms)`` of the live
        docs with an ordered span through ``clauses`` (any term of a clause)
        whose whole-span gap budget ``p_{n-1} - p_0 - (n-1)`` is <= ``slop``;
        ``freq`` counts span starts. Step 2, the chain: from each clause-0
        position take the smallest greater same-doc position of the next
        clause; greedy-smallest minimizes the span's end, so the budget
        check on it is exact. A lone one-term clause answers from its tfs
        and reads no positions."""
        z = np.zeros(0, dtype=np.int64)
        if not clauses:
            return z, z, np.zeros(0, dtype=np.uint8)
        if len(clauses) == 1 and len(clauses[0]) == 1:
            d, t, m = clauses[0][0].decode_all()
            alive = self._alive(d)
            return (d, t, m) if alive is None else (d[alive], t[alive], m[alive])
        cand, norms, occ = self._clause_positions(clauses)
        if len(cand) == 0:
            return cand, z, norms
        M = np.int64(max(int(pos.max()) for _, pos in occ) + 2)
        keys = [np.sort(rank * M + pos) for rank, pos in occ]
        start = cur = keys[0]
        for k in keys[1:]:
            idx = np.searchsorted(k, cur, side="right")
            nxt = k[np.minimum(idx, len(k) - 1)]
            ok = (idx < len(k)) & (nxt // M == cur // M)  # same doc
            start, cur = start[ok], nxt[ok]
        freq = np.bincount(start[cur - start <= slop + len(keys) - 1] // M, minlength=len(cand))
        hit = freq > 0
        return cand[hit], freq[hit], norms[hit]

    def phrase_freqs(self, phrase: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact-phrase evaluation (Lucene PhraseQuery, slop=0) from the
        position streams. Returns ``(doc_ids, phrase_freq, norms)`` for every
        live doc where the analyzed tokens of ``phrase`` occur consecutively;
        phrase_freq counts the start positions (the PhraseQuery tf). The
        ordered-span evaluator at slop 0 (``_span_freqs``).

        Reference semantics: Lucene ExactPhraseMatcher; Solr surface
        ``solr/core/src/test/org/apache/solr/search/TestComplexPhraseQParserPlugin.java``.
        """
        return self._span_freqs(self._token_clauses(phrase), 0)

    def match_docs_phrase(self, phrase: str) -> np.ndarray:
        """DocSet of the exact phrase — the `\"...\"` clause analog."""
        return self.phrase_freqs(phrase)[0]

    def span_near_docs(self, phrase: str, slop: int = 0) -> np.ndarray:
        """Ordered span-near match (reference surround parser /
        SpanNearQuery(inOrder=true), NearSpansOrdered semantics): docs with
        positions p_0 < p_1 < ... < p_{n-1} for the analyzed clause terms
        IN ORDER whose TOTAL gap budget sum(p_i - p_{i-1} - 1) =
        p_{n-1} - p_0 - (n-1) is ≤ slop (slop=0 == exact phrase
        adjacency). The slop is a whole-span budget, not per-gap —
        matching Lucene's SloppyMath accumulation for ordered spans."""
        return self._span_freqs(self._token_clauses(phrase), slop)[0]

    def complex_phrase_docs(self, phrase: str, slop: int = 0) -> np.ndarray:
        """ComplexPhraseQParser analog (reference
        solr/core/src/java/org/apache/solr/search/ComplexPhraseQParserPlugin.java:
        wildcards INSIDE a phrase — each clause rewrites to the terms it
        matches, then the whole phrase evaluates as an ordered span).
        A clause containing ``*``/``?`` expands through the sorted term
        dictionaries; its position stream is the UNION of the matched
        terms' positions. Ordered with a whole-span slop budget, matching
        span_near_docs."""
        clauses = []
        for raw in phrase.split():
            if "*" in raw or "?" in raw:
                terms = self.expand_wildcard(raw.lower())
            else:
                terms = self.analyzer.analyze(raw)
            tps = [tp for t in terms if (tp := self.term_postings(t)) is not None]
            if not tps:
                return np.zeros(0, dtype=np.int64)
            clauses.append(tps)
        return self._span_freqs(clauses, slop)[0]

    def payload_scores(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """PayloadScoreQParser analog (reference
        solr/core/src/java/org/apache/solr/search/PayloadScoreQParserPlugin.java:
        score = func over the payloads at the term's matching positions,
        func ∈ {min,max,sum,first}). The corpus carries no payload channel,
        so the per-position payload IS the position (the codec-v2 stream a
        DelimitedPayload filter would fill) — integer sums/mins, exactly
        mirrorable in SQL. Returns (doc_ids, payload_sum, payload_min) for
        live docs containing the term."""
        z = np.zeros(0, dtype=np.int64)
        tp = self.term_postings(term)
        if tp is None:
            return z, z, z
        cand, _, [(rank, pos)] = self._clause_positions([[tp]])
        if len(cand) == 0:
            return z, z, z
        # every candidate holds the term: its occurrences are one run of rank
        starts = np.flatnonzero(np.diff(rank, prepend=-1))
        return cand, np.add.reduceat(pos, starts), np.minimum.reduceat(pos, starts)

    def topk_phrase(self, phrase: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """BM25-scored phrase top-k: tf = phrase frequency, weight uses the
        SUM of the clause terms' idfs (BM25Similarity.idfExplain over
        multiple termStats — the Lucene PhraseWeight construction)."""
        docs, freq, norms = self.phrase_freqs(phrase)
        if len(docs) == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float32)
        dfs = [c[0].df for c in self._token_clauses(phrase)]
        sc = BM25Scorer(dfs, self.doc_count, self.sum_total_tf)
        return merge_topk([(docs, sc.score(freq, norms))], k)

    def expand_prefix(self, prefix: str) -> list[str]:
        """Indexed terms with the prefix — PrefixQuery term expansion. Every
        tkey bucket can hold matches (tkey is a hash), so the filter runs
        over the whole ``term_dict``."""
        terms = self.term_dict()["term"]
        return _str_list(terms.filter(pc.starts_with(terms, prefix)))

    def expand_wildcard(self, pattern: str) -> list[str]:
        """WildcardQuery expansion: ``*``/``?`` translated to SQL-LIKE and
        matched by the vectorized C kernel over ``term_dict``. Lucene-style
        backslash escapes are honored: ``\\*`` / ``\\?`` match the literal
        character (WildcardQuery.toAutomaton's escape handling), so the
        pattern is parsed char-by-char before mapping to LIKE."""
        out_chars: list[str] = []
        i = 0
        while i < len(pattern):
            c = pattern[i]
            if c == "\\" and i + 1 < len(pattern):
                nxt = pattern[i + 1]
                # escaped char is literal: protect LIKE metachars
                out_chars.append("\\" + nxt if nxt in "%_\\" else nxt)
                i += 2
                continue
            if c == "*":
                out_chars.append("%")
            elif c == "?":
                out_chars.append("_")
            elif c in "%_\\":
                out_chars.append("\\" + c)
            else:
                out_chars.append(c)
            i += 1
        like = "".join(out_chars)
        terms = self.term_dict()["term"]
        return _str_list(terms.filter(pc.match_like(terms, like)))

    def expand_fuzzy1(self, term: str, dist_fn) -> list[str]:
        """FuzzyQuery (edit distance ≤ 1) expansion: a vectorized length
        window over ``term_dict`` (edit distance ≥ |length difference|),
        then ``dist_fn`` only on the survivors."""
        terms = self.term_dict()["term"]
        lens = pc.utf8_length(terms).to_numpy()
        cand = _str_list(terms.filter(pa.array(np.abs(lens - len(term)) <= 1)))
        return [t for t in cand if dist_fn(t, term)]

    def facet_by(self, doc_ids: np.ndarray, column: str) -> dict[str, int]:
        """Facet counts of a doc set over a stored doc-sidecar column —
        search + facet (FacetComponent over a DocSet)."""
        return dict(Counter(self.doc_values(doc_ids, column).to_pylist()))

    def doc_filter_mask(self, column: str, value: str):
        """Vectorized doc-id -> bool filter from a doc-sidecar column (the
        `fq` filter-query analog). Null values never match."""

        def allowed(doc_ids: np.ndarray) -> np.ndarray:
            m = pc.equal(self.doc_values(doc_ids, column), value)
            return pc.fill_null(m, False).to_numpy(zero_copy_only=False)

        return allowed

    def doc_range_mask(self, column: str, lo=None, hi=None):
        """Numeric/date range filter over a doc-sidecar (docValues) column —
        the `frange` / point-field range-query analog (reference
        FunctionRangeQParserPlugin.java, IntPointField.java). Bounds are
        inclusive; None = unbounded; a null value fails a set bound."""

        def allowed(doc_ids: np.ndarray) -> np.ndarray:
            vals = self.doc_values(doc_ids, column)
            m = np.ones(len(vals), dtype=bool)
            for op, bound in ((pc.greater_equal, lo), (pc.less_equal, hi)):
                if bound is not None:
                    m &= pc.fill_null(op(vals, bound), False).to_numpy(zero_copy_only=False)
            return m

        return allowed

    def grouped_topk(
        self, query: str, group_col: str, k_per_group: int = 3
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Result grouping (Grouping.java / group.field analog): top-k docs
        per value of a doc-sidecar column. One full scoring pass; the
        group partition happens on the scored candidates."""
        d_all, s_all = self._score(query)
        d_all, s_all = merge_topk([(d_all, s_all)], len(d_all))
        vals = np.array(self.doc_values(d_all, group_col).to_pylist(), dtype=object)
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for g in sorted(set(vals.tolist())):
            m = vals == g
            out[g] = (d_all[m][:k_per_group], s_all[m][:k_per_group])
        return out

    def topic_poll(
        self, query: str, checkpoint: int = -1, limit: int = 100
    ) -> tuple[np.ndarray, int]:
        """TopicStream analog (reference TopicStream.java: checkpointed
        pub/sub over an index, resume from stored _version_): return
        matching doc ids with doc_id > checkpoint, in doc order, plus the
        new checkpoint. Batch-append + re-poll yields exactly the new docs
        (at-least-once across a crash: the caller persists the checkpoint)."""
        docs = self.match_docs(query, mode="or")
        fresh = docs[docs > checkpoint][:limit]
        new_ckpt = int(fresh[-1]) if len(fresh) else checkpoint
        return fresh, new_ckpt

    def topk(
        self, query: str, k: int = 10, field: str | None = None, *, allowed=None, df_override: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The BM25 top-k, in one batched pass (identical results to
        ``topk_exhaustive``): over the docs ``allowed(doc_ids)`` passes when
        given (the ``fq`` filter, applied before rank selection; a
        conjunctive top-k passes ``match_docs(query, mode="and")``), with
        each term's df from ``df_override`` when it has one (the global df a
        coordinator broadcasts to a shard reader)."""
        return merge_topk([self._score(query, allowed, field, df_override)], k)

    def cursor_page(
        self,
        query: str,
        k: int,
        cursor: tuple[float, int] | None = None,
        field: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray, tuple[float, int] | None]:
        """CursorMark deep paging (reference CursorMark.java /
        Lucene searchAfter): return the next ``k`` results strictly AFTER
        the cursor position in (score desc, doc asc) total order, plus the
        next cursor. Stateless — the cursor is the last row's (float32
        score, doc id), so any shard/replica can resume the walk; pages
        never skip or repeat rows even when scores tie across pages."""
        d_all, s_all = self._score(query, field=field)
        if cursor is not None:
            c_s = np.float32(cursor[0])
            after = (s_all < c_s) | ((s_all == c_s) & (d_all > cursor[1]))
            d_all, s_all = d_all[after], s_all[after]
        d_out, s_out = merge_topk([(d_all, s_all)], k)
        nxt = (float(s_out[-1]), int(d_out[-1])) if 0 < k == len(d_out) else None
        return d_out, s_out, nxt

    def topk_dismax(
        self,
        query: str,
        qf: dict[str, float],
        k: int = 10,
        tie: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """edismax per-field scoring (reference ExtendedDismaxQParser:
        ``qf`` per-field boosts + ``tie`` breaker). Per query term, each
        listed field contributes ``boost_f * BM25_f(term)`` with that
        field's own df/docCount/avgdl; the term's score per doc is Lucene's
        DisjunctionMaxQuery combination ``max + tie * (sum - max)``; terms
        then sum (default-OR). The combination runs in float64 and rounds
        to float32 per term; terms sum in float64 in query order through
        ``_score_all``'s sum step."""
        counts = Counter(self.analyzer.analyze(query))
        docs_list, score_list = [], []
        for tok, n in counts.items():
            # one scorer per call: each field keeps its own norm table
            per_field = []
            for fname, boost in qf.items():
                tp = self.term_postings(f"{fname}:{tok}")
                if tp is None:
                    continue
                dc, stf = self._field_collection_stats(fname)
                sc = BM25Scorer(tp.df, dc, stf, boost=float(n) * float(boost))
                per_field.append(_score_all([(tp, sc)], self._alive))
            if not per_field:
                continue
            uniq, inv = np.unique(np.concatenate([d for d, _ in per_field]), return_inverse=True)
            all_s = np.concatenate([s for _, s in per_field]).astype(np.float64)
            mx = np.full(len(uniq), -np.inf)
            np.maximum.at(mx, inv, all_s)
            sm = np.bincount(inv, weights=all_s, minlength=len(uniq))
            docs_list.append(uniq)
            score_list.append((mx + tie * (sm - mx)).astype(np.float32))
        if not docs_list:
            return np.zeros(0, np.int64), np.zeros(0, np.float32)
        return merge_topk([_sum_by_doc(np.concatenate(docs_list), np.concatenate(score_list))], k)

    # -- doc resolution -----------------------------------------------------

    def sorted_topk(
        self, k: int = 10, after: tuple[float, int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Segment-sorted early termination (Lucene <indexSort> +
        TopFieldCollector: when the query sort matches the index-time sort,
        collection stops once a segment/part can no longer contribute).
        Requires a build with ``IndexConfig.sort_field``. Doc parts are
        visited best-first by their manifest (sort_min, sort_max) range;
        within a part rows are index-sorted, so only the first k alive rows
        are candidates; parts whose bound cannot beat the current k-th best
        are never opened. Returns (doc_ids, values, metrics) with
        ``metrics['parts_visited'] <= parts_total`` — the early-termination
        evidence. Tie-break: value, then doc_id ascending (stable across
        any partitioning because doc ids ascend in row order per part).

        ``after=(value, doc_id)`` is the searchAfter/CursorMark
        continuation (Lucene TopFieldCollector after-FieldDoc): only rows
        strictly after the cursor in (value, doc_id) order are candidates,
        and parts wholly before the cursor's value range still early-out
        via the same bound check."""
        sf = self.stats.get("sort_field")
        if sf is None:
            raise ValueError("index was not built with an index-time sort")
        desc = bool(self.stats.get("sort_desc", True))
        parts = [p for p in self.stats["doc_parts"] if p.get("sort_max") is not None]
        parts = sorted(
            parts,
            key=(lambda p: -p["sort_max"]) if desc else (lambda p: p["sort_min"]),
        )
        metrics = {"parts_total": len(parts), "parts_visited": 0, "rows_scanned": 0}
        cv: list[np.ndarray] = []
        cd: list[np.ndarray] = []
        n_cands = 0
        kth: float | None = None
        for p in parts:
            bound = p["sort_max"] if desc else p["sort_min"]
            if kth is not None and n_cands >= k and (bound < kth if desc else bound > kth):
                break  # no remaining part can reach the top-k
            part = int(p["part_id"])
            v = self.doc_column(part, "sortv").to_numpy(zero_copy_only=False)
            d = (np.int64(part) << np.int64(32)) + np.arange(len(v), dtype=np.int64)
            alive = self._alive(d)
            if alive is not None:
                d, v = d[alive], v[alive]
            if after is not None:
                av, ad = after
                m = (v < av) | ((v == av) & (d > ad)) if desc else (v > av) | ((v == av) & (d > ad))
                d, v = d[m], v[m]
            take = min(k, len(d))
            metrics["parts_visited"] += 1
            metrics["rows_scanned"] += take
            cd.append(d[:take])
            cv.append(v[:take])
            n_cands += take
            if n_cands >= k:
                allv = np.concatenate(cv)
                kth = float(
                    np.sort(allv)[::-1][k - 1] if desc else np.sort(allv)[k - 1]
                )
        if not cd:
            z = np.zeros(0, np.int64)
            return z, np.zeros(0, np.float64), metrics
        d_all, v_all = np.concatenate(cd), np.concatenate(cv)
        order = np.lexsort((d_all, -v_all if desc else v_all))[:k]
        return d_all[order], v_all[order], metrics

    def doc_column(self, part: int, column: str) -> pa.Array:
        """One column of one committed doc part, row-aligned with the part's
        local doc ids (``doc_id = part << 32 | row``). The only reader of
        the ``docs/`` sidecar: a part outside the manifest's
        ``[0, n_doc_parts)`` raises ``IndexError`` whatever the directory
        holds, and a file whose lineage stamp (``manifest.docs_stamp``) is
        not the commit's for the part (a later build rewrote it for another
        layout, sort or schema), or that is gone, raises ``RuntimeError``;
        a stamp a file lacks is not checked. LRU-cached per (part, column)."""
        part = int(part)
        if not 0 <= part < self.n_doc_parts:
            raise IndexError(f"doc part {part} is not in the committed [0, {self.n_doc_parts})")
        key = (part, column)
        col = self._docs_cache.get(key)
        if col is None:
            path = os.path.join(self.dir, "docs", f"part-{part:06d}.parquet")
            try:
                t = pq.read_table(path, columns=[column])
            except FileNotFoundError:
                t = None
            want = docs_stamp(self.manifest["input_fingerprints"][part], self.manifest.get("phase_a_config"))
            stamp = {} if t is None else t.schema.metadata or {}
            if t is None or any(stamp.get(k, v) != v for k, v in want.items()):
                raise RuntimeError(
                    f"doc part {part} of {self.dir} was rebuilt since this reader opened; "
                    "reopen the reader"
                )
            col = t.column(column).combine_chunks()
            self._docs_cache[key] = col
            if len(self._docs_cache) > DOCS_CACHE_PARTS:
                self._docs_cache.popitem(last=False)
        else:
            self._docs_cache.move_to_end(key)
        return col

    def doc_values(self, doc_ids: np.ndarray, column: str) -> pa.Array:
        """A doc-sidecar column's values for ``doc_ids``, in the caller's
        order (docValues lookup): ids group by part with a stable sort, one
        ``take`` per part, and one ``take`` restores the input order."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if len(doc_ids) == 0:
            return self.doc_column(0, column).slice(0, 0)
        parts = doc_ids >> np.int64(32)
        order = np.argsort(parts, kind="stable")
        rows = (doc_ids & np.int64(0xFFFFFFFF))[order]
        bounds = np.flatnonzero(np.diff(parts[order])) + 1
        pieces = [
            self.doc_column(parts[order[a]], column).take(pa.array(rows[a:b]))
            for a, b in zip(np.r_[0, bounds], np.r_[bounds, len(order)])
        ]
        inv = np.empty(len(order), dtype=np.int64)
        inv[order] = np.arange(len(order))
        return pa.concat_arrays(pieces).take(pa.array(inv))

    def fetch_fields(self, doc_ids: np.ndarray, columns: list[str]) -> pa.Table:
        """Stored-field retrieval for winning ids — the STAGE_GET_FIELDS
        leg of the distributed query (reference QueryComponent: fields are
        fetched only for merged top-k ids, never during scoring). Returns
        one row per doc id, in the given order."""
        return pa.table({c: self.doc_values(doc_ids, c) for c in columns})

    def urls_for(self, doc_ids: np.ndarray) -> list[str]:
        return self.doc_values(doc_ids, "url").to_pylist()

    def close(self):
        """Drop the cached views, then unmap every open segment."""
        self._term_cache.clear()
        self._term_dict = None
        for r in self._readers.values():
            r.close()
        self._readers.clear()


def _score_all(scorers, keep) -> tuple[np.ndarray, np.ndarray]:
    """BM25-score a whole query in one pass: every matching doc once, doc
    ids ascending, with its float32 score sum (Lucene's
    DisjunctionSumScorer: float64 accumulate, cast to float32).

    Every posting of every query term decodes at once
    (``codec.decode_postings_concat``) and scores with one float32
    expression in ``BM25Scorer.score``'s op order: each term's ``weight``
    repeated over its postings, and the normInverse table all of a query's
    scorers share (one field, one avgdl). ``keep(docs)`` returns a bool
    mask of the postings to keep, or None for all. Terms stay in
    ``scorers`` order, so each doc adds the same float64 values in the same
    order as ``topk_exhaustive``: scores are bit-identical."""
    docs, tfs, norms = decode_postings_concat([v for tp, _ in scorers for v in tp.views])
    counts = [sum(v.doc_freq for v in tp.views) for tp, _ in scorers]
    weight = np.repeat(np.array([sc.weight for _, sc in scorers], dtype=np.float32), counts)
    norm_inv = scorers[0][1].cache[norms]
    scores = weight - weight / (np.float32(1.0) + tfs.astype(np.float32) * norm_inv)
    mask = keep(docs)
    if mask is not None:
        docs, scores = docs[mask], scores[mask]
    return _sum_by_doc(docs, scores)


def _sum_by_doc(docs: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum float32 ``scores`` per doc id: ``(unique docs ascending, float32
    sums)``. A stable sort keeps each doc's addends in input order and
    ``np.bincount`` adds them sequentially in float64 (``np.add.reduceat``
    would sum runs longer than 8 pairwise and change the low bits)."""
    order = np.argsort(docs, kind="stable")
    docs = docs[order]
    first = np.diff(docs, prepend=-1) != 0
    sums = np.bincount(np.cumsum(first) - 1, weights=scores[order].astype(np.float64))
    return docs[first], sums.astype(np.float32)


def merge_topk(
    results: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one top-k selection, of every scoring entry point and of the
    coordinator's shard merge (QueryComponent.mergeIds, reference
    ``ShardFieldSortedHitQueue.java:82-107``): score desc, then doc_id asc,
    matching the single-index Lucene collector."""
    docs = np.concatenate([r[0] for r in results]) if results else np.zeros(0, np.int64)
    scores = np.concatenate([r[1] for r in results]) if results else np.zeros(0, np.float32)
    if 0 < k < len(scores):
        # exact pre-cut: keep every candidate scoring >= the k-th best
        # (ties at the boundary all survive, so doc-asc tie-break is exact)
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        docs, scores = docs[keep], scores[keep]
    order = np.lexsort((docs, -scores.astype(np.float64)))[:k]
    return docs[order], scores[order]


class TopKQueryActor:
    """Stateful query-serving stage for ``Dataset.map_batches``.

    __init__ runs once per actor (opens the index — term dicts, mmaps);
    __call__ scores a batch of queries. Input columns: ``qid:int64,
    query:string, k:int32``; output: one row per hit with
    ``qid, rank, doc_id, url, score``.
    """

    def __init__(self, index_dir: str):
        self.reader = IndexReader(index_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, doc_ids, scores = [], [], [], []
        urls: list[str] = []
        for i in range(batch.num_rows):
            qid = batch.column("qid")[i].as_py()
            query = batch.column("query")[i].as_py()
            k = int(batch.column("k")[i].as_py()) if "k" in batch.column_names else 10
            d, s = self.reader.topk(query, k)
            qids.extend([qid] * len(d))
            ranks.extend(range(1, len(d) + 1))
            doc_ids.extend(d.tolist())
            scores.extend(s.tolist())
            urls.extend(self.reader.urls_for(d))
        return pa.table(
            {
                "qid": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "score": pa.array(np.array(scores, dtype=np.float32)),
                "url": pa.array(urls, pa.string()),
            }
        )


class _Shard:
    """One doc-range shard replica of ``QueryService``: a reader scoped to
    parts [lo, hi), which answers only for their docs, scoring with the
    df the coordinator broadcasts."""

    def __init__(self, index_dir: str, lo: int, hi: int):
        self.reader = IndexReader(index_dir, part_range=(lo, hi))

    def topk(self, query: str, k: int, stats: dict[str, int]):
        return self.reader.topk(query, k, df_override=stats)

    def topk_many(self, queries: list[str], k: int, stats: list[dict[str, int]]):
        return [self.topk(q, k, st) for q, st in zip(queries, stats)]

    def ping(self) -> bool:
        return True


class QueryService:
    """Long-lived distributed BM25 serving — the SolrCloud shard × replica
    layout (reference: ``SearchHandler`` sends a request through
    ``HttpShardHandler`` to one replica per shard, ``timeAllowed`` and
    ``shards.tolerant`` ride on that request, ``ExactStatsCache`` supplies
    global df and ``QueryComponent.mergeIds`` merges;
    ``solr/core/src/java/org/apache/solr/handler/component/SearchHandler.java:219-420``).

    The index's doc parts split into ``n_shards`` contiguous ranges; each
    shard actor returns the ``topk`` of a reader scoped to its range. The
    cluster's CPUs hold ``max(1, CPUs // shards)`` replica groups of every
    shard, and an actor never reserves more than its share of the CPUs, so
    more shards than CPUs still schedule. The coordinator reads term
    dictionaries only (global df, broadcast with every query when there is
    more than one shard), so per-shard scores plus the ``merge_topk`` merge
    are rank- and score-identical to ``IndexReader.topk``.

    A call that times out may leave its actor busy; later calls still
    return within their own deadline.
    """

    def __init__(self, index_dir: str, n_shards: int = 1):
        import ray

        from apache___solr_ray.build import _cluster_cpus

        self._ray = ray
        self._stats = IndexReader(index_dir)
        n_parts = self._stats.n_doc_parts
        n_shards = max(1, min(n_shards, n_parts))
        bounds = np.linspace(0, n_parts, n_shards + 1).astype(int)
        cpus = _cluster_cpus()
        n_replicas = max(1, cpus // n_shards)
        # Ray keeps resources to 1e-4: round the share down so every actor fits
        share = min(1.0, int(cpus * 10_000 / (n_replicas * n_shards)) / 10_000)
        shard = ray.remote(_Shard).options(num_cpus=share)
        self.groups = [
            [shard.remote(index_dir, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
            for _ in range(n_replicas)
        ]
        self._next = 0

    def warmup(self) -> None:
        """Block until every actor has opened its shard."""
        self._ray.get([a.ping.remote() for g in self.groups for a in g])

    def _global_df(self, query: str) -> dict[str, int]:
        """The df map broadcast with a query: empty with one shard, whose
        local df is already global."""
        return self._stats.term_stats_map(query) if len(self.groups[0]) > 1 else {}

    def topk(
        self,
        query: str,
        k: int = 10,
        deadline_s: float | None = None,
        tolerant: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, bool, int]:
        """One query on the next replica group. Returns ``(doc_ids, scores,
        partial, shards_scored)``.

        ``deadline_s`` bounds the whole call (Lucene's TimeLimitingCollector
        behind ``timeAllowed``): shards still running at the deadline are
        cancelled and the finished ones merged, flagged partial — an empty
        page when none finished. With ``tolerant`` (``shards.tolerant``) a
        shard whose call raised, its actor's death included, is dropped
        and the page flagged partial instead of the call raising."""
        t_end = None if deadline_s is None else time.monotonic() + deadline_s
        group = self.groups[self._next % len(self.groups)]
        self._next += 1
        stats = self._global_df(query)
        refs = [a.topk.remote(query, k, stats) for a in group]
        timeout = None if t_end is None else max(0.0, t_end - time.monotonic())
        ready, pending = self._ray.wait(refs, num_returns=len(refs), timeout=timeout)
        for ref in pending:
            self._ray.cancel(ref)
        results, failed = [], False
        for ref in ready:
            try:
                results.append(self._ray.get(ref))
            except Exception:
                if not tolerant:
                    raise
                failed = True
        d, s = merge_topk(results, k)
        return d, s, bool(pending) or failed, len(results)

    def topk_many(self, queries: list[str], k: int = 10) -> list[tuple[np.ndarray, np.ndarray]]:
        """Throughput path: queries striped across the replica groups, one
        remote call per actor, df maps computed once per distinct query.
        Returns one ``(doc_ids, scores)`` per query, in order."""
        stats = {q: self._global_df(q) for q in set(queries)}
        n_groups = len(self.groups)
        stripes = [queries[g::n_groups] for g in range(n_groups)]
        refs = [
            [a.topk_many.remote(qs, k, [stats[q] for q in qs]) for a in group]
            for group, qs in zip(self.groups, stripes)
        ]
        out: list = [None] * len(queries)
        for g, group_refs in enumerate(refs):
            per_shard = self._ray.get(group_refs)
            out[g::n_groups] = [merge_topk(list(parts), k) for parts in zip(*per_shard)]
        return out

    def shutdown(self) -> None:
        for g in self.groups:
            for a in g:
                self._ray.kill(a)
        self.groups = []


def calculate_min_should_match(optional_clause_count: int, spec: str) -> int:
    """Solr's ``mm`` spec language (reference
    solr/core/src/java/org/apache/solr/util/SolrPluginUtils.java:635
    ``calculateMinShouldMatch`` — ported op-for-op): plain integers,
    negatives ("leave this many unmatched"), percentages (negative
    percentages likewise subtract, truncating toward zero exactly like
    the reference's ``(int) calc`` cast), and conditional
    ``upper<spec`` chains evaluated left to right, where the first
    condition with clause-count <= upperBound short-circuits to the
    running result."""
    import re

    result = optional_clause_count
    spec = spec.strip()

    if "<" in spec:
        spec = re.sub(r"(\s+<\s*)|(\s*<\s+)", "<", spec)
        for s in spec.split(" "):
            parts = s.split("<")
            if len(parts) < 2 or not parts[0]:
                raise ValueError(f"Invalid 'mm' spec: {s!r}")
            upper = int(parts[0])
            if optional_clause_count <= upper:
                return result
            result = calculate_min_should_match(optional_clause_count, parts[1])
        return result

    if "%" in spec:
        percent = int(spec[: spec.index("%")])
        calc = (result * percent) / 100.0
        result = result + int(calc) if calc < 0 else int(calc)
    else:
        calc = int(spec)
        result = result + calc if calc < 0 else calc

    if optional_clause_count < result:
        return optional_clause_count
    return 0 if result < 0 else result
