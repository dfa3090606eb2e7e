"""Catalog entries call the engine's readers, not private copies of them.

Scans the package source: the per-index doc-id dict is gone, the float64
BM25 per-term loop has one home (``lucene.bm25_f64_columns``), and whole
posting lists are decoded outside the engine (``query.py``, ``codec.py``)
only by the named entries below, each of which needs every posting.
Position streams are read only by the one positional evaluator. Delta
and tf streams decode in one function, and the BM25 top-k entry points
score through one step. A segment record's place in its pack is read
only by ``segment.py``.
"""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "apache___solr_ray"

#: (module path under the package, function) -> why it decodes whole postings
DECODE_ALL_ALLOWED = {
    ("lucene.py", "bm25_f64_columns"): "the f64 BM25 columns score every live posting of each term",
    ("pipelines/indexq.py", "index_term_postings"): "its oracle is every (term, doc_id, tf) posting",
    ("pipelines/indexq.py", "func_termfreq_norm_idf"): "termfreq()/norm() read each posting's tf and norm",
}


def _calls(name_of):
    """(module path, innermost enclosing function) of every call whose
    callee ``name_of(func)`` returns truthy, over the package source."""
    out = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()

        def visit(node, fn):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call) and name_of(child.func):
                    out.append((rel, fn))
                visit(child, fn)

        visit(ast.parse(path.read_text()), None)
    return out


def test_doc_id_map_is_gone():
    hits = [p for p in PKG.rglob("*.py") if "_doc_id_map" in p.read_text()]
    assert hits == []


def test_f64_bm25_scores_only_from_the_column_builder():
    calls = _calls(
        lambda f: (isinstance(f, ast.Name) and f.id == "bm25_f64_scores")
        or (isinstance(f, ast.Attribute) and f.attr == "bm25_f64_scores")
    )
    assert calls == [("lucene.py", "bm25_f64_columns")]


def test_decode_all_outside_the_engine_only_in_named_oracles():
    calls = _calls(lambda f: isinstance(f, ast.Attribute) and f.attr == "decode_all")
    outside = {c for c in calls if c[0] not in ("query.py", "codec.py")}
    assert outside == set(DECODE_ALL_ALLOWED)


def test_positions_decode_only_in_the_positional_evaluator():
    """Position streams are read by the one positional evaluator and by
    ``TermPostings.positions_for_docs``; no phrase path keeps its own
    ordered-span chain."""
    calls = _calls(lambda f: isinstance(f, ast.Attribute) and f.attr == "decode_blocks_positions")
    assert set(calls) == {("query.py", "_clause_positions"), ("query.py", "positions_for_docs")}
    hits = [p for p in PKG.rglob("*.py") if "_ordered_chain_docs" in p.read_text()]
    assert hits == []


def _named(name):
    """Callee test for ``name(...)`` and ``x.name(...)``."""
    return lambda f: (isinstance(f, ast.Name) and f.id == name) or (isinstance(f, ast.Attribute) and f.attr == name)


def test_one_block_decoder():
    """Delta and tf streams turn into doc ids in ``codec._decode_runs``
    only: whole views, selected blocks and trailing partial blocks are runs
    of it, and no module but ``codec.py`` calls the VInt decoder."""
    assert set(_calls(_named("_decode_runs"))) == {
        ("codec.py", "decode_postings_concat"),
        ("codec.py", "decode_tails"),
        ("codec.py", "decode_blocks"),
    }
    assert {mod for mod, _ in _calls(_named("varint_decode"))} == {"codec.py"}


#: BM25 top-k entry points folded into ``IndexReader.topk``
GONE_TOPK = ("topk_filtered", "topk_range", "topk_and", "topk_boosted")


def test_one_bm25_scoring_step():
    """``IndexReader.topk`` is the one BM25 top-k entry point cut by
    ``merge_topk(k)``: ``_score`` is called only by it, ``cursor_page`` and
    ``grouped_topk``, and no source of the package, jobs, scripts or
    drivers names a folded entry point. Only ``_score`` and
    ``topk_dismax`` (one kernel call per field) call the ``_score_all``
    kernel."""
    assert set(_calls(_named("_score_all"))) == {("query.py", "_score"), ("query.py", "topk_dismax")}
    assert set(_calls(_named("_score"))) == {
        ("query.py", "topk"),
        ("query.py", "cursor_page"),
        ("query.py", "grouped_topk"),
    }
    root = PKG.parent
    paths = [p for d in (PKG, root / "jobs", root / "scripts") for p in d.rglob("*.py")]
    paths += [root / "bench.py", root / "__ray_entry__.py"]
    hits = {(p.relative_to(root).as_posix(), n) for p in paths for n in GONE_TOPK if n in p.read_text()}
    assert hits == set()


#: the directory of an index's segment files
SEG = "segments"


def _builds_segments_path(call: ast.Call) -> bool:
    """A ``….join(…)`` call with a ``"segments"`` argument, or any call
    with a string argument under ``segments/``."""
    is_join = isinstance(call.func, ast.Attribute) and call.func.attr == "join"
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value.startswith(SEG + "/") or (is_join and arg.value == SEG):
                return True
        if isinstance(arg, ast.JoinedStr) and any(
            isinstance(v, ast.Constant) and SEG + "/" in str(v.value) for v in arg.values
        ):
            return True
    return False


def test_segment_files_only_through_segment_py():
    """No module but ``segment.py`` builds a path under ``segments/``:
    readers, the build, merges, backups, the catalog and the tests open,
    write, list and remove segment files through its helpers."""
    roots = [PKG, PKG.parent / "tests", PKG.parent / "scripts", PKG.parent / "jobs"]
    hits = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and _builds_segments_path(node):
                    hits.add(path.relative_to(PKG.parent).as_posix())
    assert hits == {"apache___solr_ray/segment.py"}


#: the keys of the pack layout: where a segment record's bytes sit
PACK_KEYS = {"packs", "tdict_off", "post_off"}


def _reads_pack_key(node: ast.AST) -> bool:
    """``x["tdict_off"]``-style subscripts (and ``x.get("tdict_off")``)
    of a pack-layout key."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
        key = node.args[0] if node.args else None
    else:
        return False
    return isinstance(key, ast.Constant) and key.value in PACK_KEYS


def test_pack_layout_only_in_segment_py():
    """No package module but ``segment.py`` reads a pack-layout key: the
    build, merges, readers and the catalog hand segment records to
    ``segment.open_segments`` and never look inside their place."""
    hits = set()
    for path in sorted(PKG.rglob("*.py")):
        if any(_reads_pack_key(node) for node in ast.walk(ast.parse(path.read_text()))):
            hits.add(path.relative_to(PKG).as_posix())
    assert hits == {"segment.py"}


#: the codec's VInt internals
VARINT_PRIVATE = {"_varint_fill", "_varint_lengths"}


def _names_varint_private(node: ast.AST) -> bool:
    """A name, attribute or import of one of the codec's VInt internals."""
    name = (
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name if isinstance(node, ast.alias)
        else None
    )
    return name in VARINT_PRIVATE


def test_varint_internals_only_in_codec_py():
    """No package module but ``codec.py`` touches the VInt writer's
    internals: the analyzer hands positions to
    ``codec.encode_position_gaps`` and finds each posting's bytes with
    ``codec.position_offsets``, as merges do."""
    hits = set()
    for path in sorted(PKG.rglob("*.py")):
        if any(_names_varint_private(node) for node in ast.walk(ast.parse(path.read_text()))):
            hits.add(path.relative_to(PKG).as_posix())
    assert hits == {"codec.py"}
