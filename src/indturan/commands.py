"""The subcommand handlers, the input readers and the one JSON writer.

`cli.main` imports this module once the arguments parse, and runs the
handler that `HANDLERS` names for the parsed command path.

All results are printed as JSON with sorted keys so identical invocations are
byte-identical: the bytes of json.dumps(obj, sort_keys=True, indent=2) and a
newline.  Each handler returns its payload and `cli.main` writes it with the
one writer, `_dump`; `export`, which may write to a file, calls `_dump` itself
and returns None.  The writer joins the reprs of a list of integers in one
step, writes a list of integer rows of one length a chunk of rows at a time
through one row format built for that list, and hands the text out in
batches of at most 16 KiB.

`embed tree` takes an optional integer "limit": at most that many copies are
printed, 0 prints none (the tree is still checked) and a negative limit or a
null is a domain error.

The `thresholds` object of `embed keylemma` and `embed asym` accepts exactly
the `embeddings.Thresholds` fields: integers `c_hs` and `m_blow`, rationals
`gamma` and `c3` (a JSON number or a "p/q" string).  Any other key is a
domain error (TypeError).  Every integer field of an `--input` document,
a graph's "n" and every vertex id included, follows `graph.int_field`: a
boolean or a non-integral number is a ValueError, never truncated.  Graph
objects are read by `graph.graph_from_json_dict` alone.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Optional

# The layers (density, embeddings, oracles, realizability, regularity) are
# imported inside the handlers that use them: each run is a fresh process,
# and a job pays only for the layers it runs.
from .families import BipartiteTemplate, RootedGraph, as_graph, as_template, parse_descriptor
from .graph import (Graph, Host, common_neighborhood_mask, cross_subgraph, edge_subgraph,
                    graph_from_json_dict, graph_to_json_dict, int_field, to_dot)


_BATCH = 1 << 14  # characters per write: one syscall each on an unbuffered stdout


def _key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return encode_basestring_ascii(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _leaf(v, pad: str) -> Optional[str]:
    """The text of v at indent pad when v is a scalar, an empty container or a
    list of exact ints; None otherwise."""
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        for x in v:
            if type(x) is not int:  # bools and int subclasses take the slow path
                return None
        inner = pad + "  "
        return "[\n" + inner + (",\n" + inner).join(map(int.__repr__, v)) + "\n" + pad + "]"
    if isinstance(v, dict):
        return None if v else "{}"
    if type(v) is int:
        return int.__repr__(v)
    if type(v) is str:
        return encode_basestring_ascii(v)
    return json.dumps(v)  # the other scalars; TypeError for what JSON cannot hold


def _row_width(v) -> int:
    """k when v is a non-empty list of lists or tuples holding k >= 1 exact
    ints each, else 0."""
    if not v or not set(map(type, v)) <= {list, tuple}:
        return 0
    lengths = set(map(len, v))
    if len(lengths) != 1 or set(map(type, chain.from_iterable(v))) != {int}:
        return 0
    return lengths.pop()


def _dump(obj, out=None) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) + "\n" to out (by
    default stdout), byte for byte.  With an indent, json.dumps runs the
    pure-Python encoder, one generator step per integer, and holds the whole
    text (23 MB for 46,500 tree maps).  This writer joins the reprs of each
    list of integers at once, and formats a list of equal-length integer rows
    with one row format built for the list, a chunk of rows (about half a
    batch of text) at a time; it writes in batches of at most _BATCH
    characters, or one longer piece of text."""
    write = (sys.stdout if out is None else out).write
    batch: list[str] = []
    size = 0

    def put(text: str) -> None:
        nonlocal size
        if size + len(text) > _BATCH and batch:
            write("".join(batch))
            batch.clear()
            size = 0
        batch.append(text)
        size += len(text)

    def emit(v, pad: str, head: str) -> None:
        """Put head, then v's text at indent pad."""
        text = _leaf(v, pad)
        if text is not None:
            put(head + text)
            return
        inner = pad + "  "
        if isinstance(v, dict):
            sep = head + "{\n" + inner
            for k, item in sorted(v.items()):
                emit(item, inner, f"{sep}{_key(k)}: ")
                sep = ",\n" + inner
            put(f"\n{pad}}}")
        elif width := _row_width(v):
            cell = inner + "  "
            row = "[\n" + cell + (",\n" + cell).join(["%d"] * width) + "\n" + inner + "]"
            sep = head + "[\n" + inner
            start, step = 0, 1  # step: the rows of the next chunk, sized from the last
            while start < len(v):
                part = v[start:start + step]
                text = (",\n" + inner).join([row] * len(part)) % tuple(chain.from_iterable(part))
                put(sep + text)
                start += step
                step = max(1, step * _BATCH // (2 * len(text)))
                sep = ",\n" + inner
            put(f"\n{pad}]")
        else:
            sep = head + "[\n" + inner
            for item in v:
                emit(item, inner, sep)
                sep = ",\n" + inner
            put(f"\n{pad}]")

    emit(obj, "", "")
    batch.append("\n")
    write("".join(batch))


class _Fields(dict):
    """A JSON object of an --input document: reading a field it lacks raises
    a ValueError that names the field."""

    def __missing__(self, key):
        raise ValueError(f"missing field {key!r}")


def _load_input(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin, object_hook=_Fields)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=_Fields)


def _edges(rows: list) -> list[tuple[int, int]]:
    """An edge list whose endpoints are integer fields."""
    return [(int_field(u), int_field(v)) for u, v in map(tuple, rows)]


def _ids(values) -> tuple[int, ...]:
    """A list of vertex ids, each an integer field."""
    return tuple(int_field(v) for v in values)


def _graph_from(d: dict) -> Graph:
    return graph_from_json_dict(d)[0]


def _host_from(d: dict) -> Host:
    g, _, part = graph_from_json_dict(d)
    return Host(g, int_field(d["s"]), part)


def _template_from(d: dict) -> BipartiteTemplate:
    g = _graph_from(d)
    if "A" in d and "B" in d:
        return BipartiteTemplate(g, (_ids(d["A"]), _ids(d["B"])))
    return as_template(g)


def _rooted_from(d: dict) -> RootedGraph:
    """A pattern object; its roots are None when it has no "roots" field,
    which d["roots"] then names as missing."""
    g, roots, _ = graph_from_json_dict(d)
    return RootedGraph(g, frozenset(d["roots"] if roots is None else roots))


def _subgraph_from(host: Host, edge_rows: Optional[list]) -> Graph:
    """The listed host edges; by default the cross edges, or all edges when
    the host has no partition."""
    if edge_rows is not None:
        return edge_subgraph(host.graph, _edges(edge_rows))
    return host.graph if host.partition is None else cross_subgraph(host)


def _object(value, name: str) -> dict:
    """value, which the input must give as a JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object")
    return value


def _fraction(value) -> Fraction:
    """An exact rational from a JSON number or a "p/q" string."""
    from fractions import Fraction
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _thresholds_from(d: Optional[dict]) -> embeddings.Thresholds:
    from . import embeddings
    if d is None:
        return embeddings.Thresholds()
    kwargs = {key: int_field(val) if key in ("c_hs", "m_blow") else _fraction(val)
              for key, val in _object(d, "thresholds").items()}
    return embeddings.Thresholds(**kwargs)


def _roots_and_parts(obj) -> tuple:
    """The roots of a rooted descriptor and the parts of a template, else None."""
    return (obj.roots if isinstance(obj, RootedGraph) else None,
            obj.parts if isinstance(obj, BipartiteTemplate) else None)


def _family_payload(desc: str) -> dict:
    from . import density
    obj = parse_descriptor(desc)
    roots, parts = _roots_and_parts(obj)
    out = {"descriptor": desc,
           "graph": graph_to_json_dict(as_graph(obj), roots=roots, partition=parts)}
    if roots is not None:
        out["density"] = density.is_balanced(obj).as_json_dict()
    return out


# --- subcommand handlers ---------------------------------------------------------


def _cmd_family(args) -> dict:
    return _family_payload(args.descriptor)


def _rooted_report(args) -> density.DensityReport:
    from . import density
    obj = parse_descriptor(args.descriptor)
    if not isinstance(obj, RootedGraph):
        raise ValueError(f"{args.command} needs a rooted descriptor")
    return density.is_balanced(obj)


def _cmd_rho(args) -> dict:
    return {"descriptor": args.descriptor, **_rooted_report(args).as_json_dict()}


def _cmd_balanced(args) -> dict:
    report = _rooted_report(args)
    return {"balanced": report.balanced,
            "witness": list(report.witness) if report.witness else None}


def _cmd_realize(args) -> dict:
    from . import realizability
    # derive verifies every certificate it returns, so "verified" is always true.
    cert = realizability.derive(args.a, args.b, l=args.l)
    return {**cert.as_json_dict(), "verified": True}


def _cmd_sweep(args) -> dict:
    from . import realizability
    found = realizability.enumerate_realizable(args.a_max, args.b_max, l=args.l)  # via derive
    rows = [{**cert.as_json_dict(), "verified": True} for _, _, cert in found]
    return {"count": len(rows), "certificates": rows}


def _cmd_extremal(args) -> dict:
    from . import oracles
    budget = {} if args.budget is None else {"budget": args.budget}
    if args.mode == "bip":
        template = as_template(parse_descriptor(args.pattern))
        res = oracles.extremal_bip_star(args.n, template, args.s, **budget)
    elif args.mode == "classical":
        res = oracles.extremal_classical(args.n, as_graph(parse_descriptor(args.pattern)),
                                         **budget)
    else:
        res = oracles.extremal_star(args.n, as_graph(parse_descriptor(args.pattern)),
                                    args.s, **budget)
    return res.as_json_dict()


def _cmd_embed_tree(args) -> dict:
    from . import embeddings
    spec = _load_input(args.input)
    host = _host_from(spec["host"])
    l_sub = _subgraph_from(host, spec.get("l_edges"))
    tree = _graph_from(spec["tree"])
    stream = embeddings.greedy_tree_embed(host, l_sub, tree, int_field(spec["d"]))
    if "star_leaves" in spec:
        stream = embeddings.admissible_tree_copies(
            l_sub, tree, stream, int_field(spec["star_leaves"]),
            int_field(spec["star_threshold"]))
    limit = None
    if "limit" in spec:  # an integer field when present: null is an error, not "no limit"
        limit = int_field(spec["limit"])
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
    copies = list(islice(stream, limit))  # json writes a tuple as a list
    return {"count": len(copies), "copies": copies}


def _cmd_embed_keylemma(args) -> dict:
    from . import embeddings
    spec = _load_input(args.input)
    host = _host_from(spec["host"])
    l_sub = _subgraph_from(host, spec.get("l_edges"))
    template = _template_from(spec["template"])
    th = _thresholds_from(spec.get("thresholds"))
    parts = {int_field(k): _ids(v) for k, v in _object(spec["parts"], "parts").items()}
    if "rich_sets" in spec:
        rich = {frozenset(_ids(s)) for s in spec["rich_sets"]}.__contains__
    else:
        thr = int_field(spec["rich_threshold"])
        rich = (lambda ss: common_neighborhood_mask(l_sub.adj, ss).bit_count() >= thr)
    outcome = embeddings.key_lemma_embed(host, l_sub, template, parts, rich, th,
                                         seed=args.seed)
    return outcome.as_json_dict()


def _cmd_embed_extract(args) -> dict:
    from . import embeddings
    spec = _load_input(args.input)
    g = _graph_from(spec["host"])
    pattern = _rooted_from(spec["pattern"])
    copies = [_ids(vm) for vm in spec["copies"]]
    outcome = embeddings.extract_induced_power(g, copies, pattern,
                                               int_field(spec["l"]), int_field(spec["s"]))
    return outcome.as_json_dict()


def _cmd_embed_asym(args) -> dict:
    from . import embeddings
    spec = _load_input(args.input)
    host = _host_from(spec["host"])
    m_sub = _subgraph_from(host, spec.get("m_edges"))
    template = _template_from(spec["template"])
    th = _thresholds_from(spec.get("thresholds"))
    delta = spec.get("delta_y")
    outcome = embeddings.asymmetric_embed(host, m_sub, template, th,
                                          delta_y=None if delta is None else int_field(delta),
                                          seed=args.seed)
    return outcome.as_json_dict()


def _cmd_check_badset(args) -> dict:
    from . import embeddings
    spec = _load_input(args.input)
    g = _graph_from(spec["graph"])
    s = spec.get("s")
    bad = embeddings.bad_set(g, _ids(spec["w"]), _fraction(spec["c"]),
                             s=None if s is None else int_field(s))
    return {"bad": sorted(bad), "size": len(bad)}


def _cmd_check_rich(args) -> dict:
    from . import embeddings
    spec = _load_input(args.input)
    g = _graph_from(spec["graph"])
    rich = embeddings.rich_s_set(g, _ids(spec["x"]), _ids(spec["y"]),
                                 _fraction(spec["c"]), int_field(spec["s"]))
    return {"rich_set": list(rich)}


def _cmd_check_kst(args) -> dict:
    from . import oracles
    spec = _load_input(args.input)
    host = _host_from(spec["host"] if "host" in spec else spec)
    return {"holds": oracles.kst_check(host)}


def _cmd_check_regularize(args) -> dict:
    from . import regularity
    spec = _load_input(args.input)
    g = _graph_from(spec["graph"])
    sub, idx, k, report = regularity.regularize(
        g, _fraction(spec["alpha"]), _fraction(spec["c"]))
    return {"m": report.m, "e": report.e, "k": str(k),
            "k_log2": str(report.k_log2),
            "edge_guarantee": report.edge_guarantee,
            "size_guarantee": report.size_guarantee,
            "vertices": list(idx)}


def _cmd_export(args) -> None:
    """Writes to --out itself, so it hands `cli.main` no payload."""
    if args.format == "dot":
        obj = parse_descriptor(args.descriptor)
        roots, parts = _roots_and_parts(obj)
        text = to_dot(as_graph(obj), roots=roots, partition=parts)

        def emit(fh) -> None:
            fh.write(text)
    else:
        payload = _family_payload(args.descriptor)

        def emit(fh) -> None:
            _dump(payload, fh)
    # The file is opened only once the descriptor has been built.
    if args.out == "-":
        emit(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit(fh)


# Each leaf command path of `cli.build_parser`, as `cli.main` keys it, and its handler.
HANDLERS = {
    "family": _cmd_family,
    "rho": _cmd_rho,
    "balanced": _cmd_balanced,
    "realize": _cmd_realize,
    "sweep": _cmd_sweep,
    "extremal": _cmd_extremal,
    "embed tree": _cmd_embed_tree,
    "embed keylemma": _cmd_embed_keylemma,
    "embed extract": _cmd_embed_extract,
    "embed asym": _cmd_embed_asym,
    "check badset": _cmd_check_badset,
    "check rich": _cmd_check_rich,
    "check kst": _cmd_check_kst,
    "check regularize": _cmd_check_regularize,
    "export": _cmd_export,
}
