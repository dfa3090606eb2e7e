"""JSON Query DSL (reference: the JSON Request API's query language —
solr/core/src/java/org/apache/solr/request/json/RequestUtil.java expands
``json.query``/``json.filter``; JsonQueryConverter.java in solrj renders
the nested-object form; documented in json-query-dsl.adoc. The DSL nests
named parsers: ``{"bool": {"must": [...], "should": [...], "must_not":
[...], "filter": [...]}}`` with leaf parsers ``lucene``, ``field``,
``prefix``, ``wildcard``, ``phrase``, ``range``, ``frange``).

Evaluation maps each node onto the engine's existing primitives:

- term-bearing leaves (``lucene``/``field`` on the indexed text /
  ``prefix``/``wildcard``/``phrase``) produce sorted engine doc-id SETS
  from posting lists (`IndexReader.match_docs`, `expand_prefix`, ...);
- doc-sidecar leaves (``field`` on a metadata column, ``range``) produce
  lazy MASK predicates (the filterCache shape, `doc_filter_mask` /
  `doc_range_mask`) that are only evaluated against candidate ids —
  a filter clause never enumerates the corpus when any positive term
  clause bounds the candidates;
- ``bool`` intersects must/filter, unions should (with
  ``minimum_should_match`` — pure-should queries default to mm=1),
  subtracts must_not — all `np.intersect1d`/`union1d`/`setdiff1d` on
  sorted id arrays. A pure-negative bool (only must_not) matches all
  docs minus the negatives at the top level (Solr's rewrite) and nothing
  when nested (Lucene BooleanQuery).

Set algebra runs on the query coordinator over posting-derived id sets
(exactly the reference's per-shard BooleanQuery evaluation); the corpus
is touched only through postings and the committed doc-sidecar columns
``IndexReader.doc_values`` reads (and caches) for candidate ids.
"""

from __future__ import annotations

import numpy as np

__all__ = ["json_query_docs", "JsonQueryError"]


class JsonQueryError(ValueError):
    pass


def _all_docs(reader) -> np.ndarray:
    """Every live engine doc id — the *:* fallback for mask-only queries:
    the rows of the doc parts the committed manifest names
    (``range(reader.n_doc_parts)``), read through ``doc_column``."""
    ids = [
        (np.int64(part) << np.int64(32)) + np.arange(len(reader.doc_column(part, "doc_len")))
        for part in range(reader.n_doc_parts)
    ]
    if not ids:
        return np.zeros(0, np.int64)
    out = np.concatenate(ids)
    alive = reader._alive(out)
    return out if alive is None else out[alive]


def _leaf(reader, name: str, body) -> tuple[str, object]:
    """Evaluate one leaf parser -> ('set', sorted ids) | ('mask', pred)."""
    if name == "lucene":
        if isinstance(body, str):
            q, op = body, "OR"
        else:
            q = body.get("query", "")
            op = str(body.get("q.op", "OR")).upper()
        return "set", np.sort(reader.match_docs(q, mode="and" if op == "AND" else "or"))
    if name == "field":
        f, val = body.get("f", "text"), str(body.get("query", ""))
        if f == "text":
            return "set", np.sort(reader.match_docs(val, mode="or"))
        return "mask", reader.doc_filter_mask(f, val)
    if name == "prefix":
        terms = reader.expand_prefix(str(body.get("query", "")))
        if not terms:
            return "set", np.zeros(0, np.int64)
        return "set", np.sort(reader.match_docs(" ".join(terms), mode="or"))
    if name == "wildcard":
        terms = reader.expand_wildcard(str(body.get("query", "")))
        if not terms:
            return "set", np.zeros(0, np.int64)
        return "set", np.sort(reader.match_docs(" ".join(terms), mode="or"))
    if name == "phrase":
        slop = int(body.get("slop", 0))
        q = str(body.get("query", ""))
        if slop > 0:
            return "set", np.sort(reader.span_near_docs(q, slop=slop))
        return "set", np.sort(reader.match_docs_phrase(q))
    if name in ("range", "frange"):
        f = body.get("f", body.get("field"))
        if not f:
            raise JsonQueryError("range needs f")
        return "mask", reader.doc_range_mask(
            f, body.get("lower", body.get("l")), body.get("upper", body.get("u"))
        )
    raise JsonQueryError(f"unknown query parser {name!r}")


def _eval(reader, node, top: bool = False) -> tuple[str, object]:
    if isinstance(node, str):
        return _leaf(reader, "lucene", node)
    if not isinstance(node, dict) or len(node) != 1:
        raise JsonQueryError(f"query node must be a string or 1-key dict: {node!r}")
    (name, body), = node.items()
    if name != "bool":
        return _leaf(reader, name, body)

    must = [_eval(reader, c) for c in _clauses(body.get("must"))]
    filt = [_eval(reader, c) for c in _clauses(body.get("filter"))]
    should = [_eval(reader, c) for c in _clauses(body.get("should"))]
    must_not = [_eval(reader, c) for c in _clauses(body.get("must_not"))]
    if not (must or filt or should or top):
        # a nested pure-negative BooleanQuery matches nothing; only the
        # top-level query gets Solr's *:* rewrite (the fallback below)
        return "set", np.zeros(0, np.int64)
    mm = int(body.get("minimum_should_match", 0))
    if not must and not filt and should and mm == 0:
        mm = 1  # pure-should bool: at least one clause must match

    pos_sets = [v for k, v in must + filt if k == "set"]
    pos_masks = [v for k, v in must + filt if k == "mask"]

    if pos_sets:
        base = pos_sets[0]
        for s in pos_sets[1:]:
            base = np.intersect1d(base, s, assume_unique=True)
    elif should and all(k == "set" for k, _ in should):
        # pure-should over term sets: the union bounds the candidates —
        # no *:* enumeration needed (BooleanQuery's disjunction shape)
        base = should[0][1]
        for _, s in should[1:]:
            base = np.union1d(base, s)
    else:
        base = _all_docs(reader)
    for pred in pos_masks:
        if len(base):
            base = base[pred(base)]

    if mm > 0 and should:
        # count should-clause hits per base doc (sets via membership,
        # masks via the predicate) — keep docs with >= mm
        hits = np.zeros(len(base), dtype=np.int64)
        for k, v in should:
            if not len(base):
                break
            if k == "set":
                hits += np.isin(base, v, assume_unique=True)
            else:
                hits += v(base)
        base = base[hits >= mm]

    for k, v in must_not:
        if not len(base):
            break
        if k == "set":
            base = np.setdiff1d(base, v, assume_unique=True)
        else:
            base = base[~v(base)]
    return "set", base


def _clauses(x) -> list:
    if x is None:
        return []
    return x if isinstance(x, list) else [x]


def json_query_docs(reader, query) -> np.ndarray:
    """Evaluate a JSON Query DSL object; returns sorted live engine ids."""
    kind, val = _eval(reader, query, top=True)
    if kind == "mask":  # top-level bare filter: apply over all docs
        ids = _all_docs(reader)
        return ids[val(ids)]
    alive = reader._alive(val)
    return val if alive is None else val[alive]
