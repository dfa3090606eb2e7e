"""Learning-to-rank rescoring (reference: solr/modules/ltr).

The reference's LTR module rescores the top-N docs of a first-pass query
with a model over named features (LTRQParserPlugin + LTRScoringQuery):
features are declared in a feature store (SolrFeature = the score of an
arbitrary query, FieldValueFeature = a stored/docValues field,
OriginalScoreFeature = the first-pass score) and the model combines the
extracted vector (LinearModel: explicit weight per feature,
org.apache.solr.ltr.model.LinearModel#score = dot(weights, features)).

This engine mirrors that surface: feature extractors are vectorized
closures over (IndexReader, candidate doc ids, first-pass scores) that
return one float64 column each, for the reranked window only (reference
semantics: LTRScoringQuery wraps the top reRankDocs). ``SolrFeature``
reads its query's scores from ``lucene.bm25_f64_columns``, the f64
rescoring path (quantized norms, DOUBLE math) that the catalog's first
passes use too, so a SQL oracle can mirror it bit-for-bit, and looks the
window up in them with one ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Feature:
    """One named feature; extract() returns a float64 column aligned to
    ``doc_ids`` (engine ids)."""

    name: str

    def extract(self, reader, doc_ids: np.ndarray, first_pass: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class OriginalScoreFeature(Feature):
    """The first-pass relevance score (reference
    org.apache.solr.ltr.feature.OriginalScoreFeature)."""

    name: str = "originalScore"

    def extract(self, reader, doc_ids, first_pass):
        return first_pass.astype(np.float64)


@dataclass
class SolrFeature(Feature):
    """Score of an arbitrary query over the candidates (reference
    org.apache.solr.ltr.feature.SolrFeature with a `q` param) — here the
    f64 BM25 sum over the query's analyzed terms, 0 for non-matching
    candidates."""

    query: str
    name: str = "solrFeature"

    def extract(self, reader, doc_ids, first_pass):
        from apache___solr_ray.lucene import bm25_f64_columns

        ids, cols = bm25_f64_columns(reader, reader.analyzer.analyze(self.query))
        if len(ids) == 0:
            return np.zeros(len(doc_ids), dtype=np.float64)
        s = sum(cols.values(), np.zeros(len(ids), dtype=np.float64))  # term order
        pos = np.minimum(np.searchsorted(ids, doc_ids), len(ids) - 1)
        return np.where(ids[pos] == doc_ids, s[pos], 0.0)


@dataclass
class FieldValueFeature(Feature):
    """A per-doc stored value (reference
    org.apache.solr.ltr.feature.FieldValueFeature reading docValues) —
    fetched from the docs sidecar for the candidate window only."""

    column: str
    name: str = "fieldValue"
    default: float = 0.0

    def extract(self, reader, doc_ids, first_pass):
        t = reader.fetch_fields(doc_ids, [self.column])
        col = t.column(self.column).to_numpy(zero_copy_only=False)
        return np.nan_to_num(col.astype(np.float64), nan=self.default)


@dataclass
class LinearModel:
    """Explicit-weight linear model (reference
    org.apache.solr.ltr.model.LinearModel: score = Σ w_i · f_i)."""

    features: list[Feature] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)

    def rescore(self, reader, doc_ids: np.ndarray, first_pass: np.ndarray) -> np.ndarray:
        assert len(self.features) == len(self.weights)
        s = np.zeros(len(doc_ids), dtype=np.float64)
        for f, w in zip(self.features, self.weights):
            s += w * f.extract(reader, doc_ids, first_pass)
        return s



#: added to every tree threshold, as the reference's
#: MultipleAdditiveTreesModel.setThreshold does, so a feature value within
#: 1e-6 above a split still branches left
NODE_SPLIT_SLACK = 1e-6


@dataclass
class MultipleAdditiveTreesModel:
    """Additive tree ensemble (reference
    org.apache.solr.ltr.model.MultipleAdditiveTreesModel: score = Σ over
    trees of the leaf reached by 'feature <= threshold + NODE_SPLIT_SLACK ?
    left : right' traversal — the LambdaMART/GBDT deployment format).

    A tree node is either ``{"value": v}`` (leaf) or
    ``{"feature": name, "threshold": t, "left": node, "right": node}``.
    Evaluation is vectorized: each node splits the candidate mask with one
    numpy comparison over the pre-extracted feature column, so ensemble
    cost is O(window × nodes), never per-row Python."""

    features: list[Feature] = field(default_factory=list)
    trees: list[dict] = field(default_factory=list)

    def rescore(self, reader, doc_ids: np.ndarray, first_pass: np.ndarray) -> np.ndarray:
        cols = {f.name: f.extract(reader, doc_ids, first_pass) for f in self.features}
        out = np.zeros(len(doc_ids), dtype=np.float64)
        mask = np.ones(len(doc_ids), dtype=bool)
        for t in self.trees:
            self._eval(t, cols, mask, out)
        return out

    def _eval(self, node: dict, cols, mask: np.ndarray, out: np.ndarray) -> None:
        if "value" in node:
            out[mask] += float(node["value"])
            return
        f = cols[node["feature"]]
        go_left = mask & (f <= float(node["threshold"]) + NODE_SPLIT_SLACK)
        self._eval(node["left"], cols, go_left, out)
        self._eval(node["right"], cols, mask & ~go_left, out)


def tree_to_sql(node: dict, col_sql: dict[str, str]) -> str:
    """Render one tree as a nested SQL CASE WHEN — the DuckDB oracle mirror
    of MultipleAdditiveTreesModel traversal. ``col_sql`` maps feature name
    to the SQL expression computing that feature, so the engine and the
    oracle score from ONE tree definition."""
    if "value" in node:
        return repr(float(node["value"]))
    return (
        f"(CASE WHEN {col_sql[node['feature']]} <= "
        f"{float(node['threshold']) + NODE_SPLIT_SLACK!r} "
        f"THEN {tree_to_sql(node['left'], col_sql)} "
        f"ELSE {tree_to_sql(node['right'], col_sql)} END)"
    )
