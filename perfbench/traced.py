"""Run one CLI job with spans around the package's public functions.

Usage: python traced.py SPANS_PATH CLI_ARG...

Before `cli.main` runs, each function in TRACED is wrapped in every module
namespace that binds it (`realizability` imports `is_balanced` by name, and
`embeddings` imports `verify_induced_map`).  Each call records a span (name,
start, end, parent) in flat in-memory arrays; they are written to
SPANS_PATH.json and SPANS_PATH.bin when the job exits.  `summarize` turns
them into per-function call counts, inclusive time and self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name); several functions may share one span name.
TRACED = [
    ("cli", "main", "cli.main"),
    ("graph", "Graph.__init__", "graph.init"),
    ("graph", "bipartition", "graph.bipartition"),
    ("families", "parse_descriptor", "families.parse"),
    ("families", "rooted_power", "families.power"),
    ("families", "attach_ktt_rooted", "families.attach"),
    ("density", "is_balanced", "density.balance"),
    ("density", "rho", "density.rho"),
    ("realizability", "derive", "realizability.derive"),
    ("realizability", "verify_certificate", "realizability.verify"),
    ("realizability", "build_witness", "realizability.build_witness"),
    ("oracles", "extremal_star", "oracles.extremal"),
    ("oracles", "extremal_classical", "oracles.extremal"),
    ("oracles", "extremal_bip_star", "oracles.extremal"),
    ("oracles", "is_isomorphic", "oracles.iso"),
    ("oracles", "contains_bip_induced", "oracles.bip_check"),
    ("oracles", "verify_induced_map", "oracles.verify_map"),
    ("embeddings", "greedy_tree_embed", "embeddings.tree"),
    ("embeddings", "asymmetric_embed", "embeddings.asym"),
    ("embeddings", "key_lemma_embed", "embeddings.keylemma"),
    ("embeddings", "bad_set", "embeddings.badset"),
    ("embeddings", "hall_disjoint_sets", "embeddings.hall"),
    ("embeddings", "extract_induced_power", "embeddings.extract"),
]

MODULES = ["cli", "graph", "families", "density", "realizability", "oracles", "embeddings"]


def _note_balance(counts, args, result):
    q = len(args[0].non_roots())
    counts["density.balance_subsets"] += (1 << q) - 1
    counts["density.balance_max_q"] = max(counts["density.balance_max_q"], q)


def _note_iso(counts, args, result):
    counts["oracles.iso_hits"] += bool(result)


def _note_keylemma(counts, args, result):
    counts["embeddings.keylemma_candidates"] += sum(1 for e in result.trace if "phi" in e)
    counts["embeddings.keylemma_found"] += result.found


NOTES = {"density.balance": _note_balance, "oracles.iso": _note_iso,
         "embeddings.keylemma": _note_keylemma}
COUNTS = ["density.balance_subsets", "density.balance_max_q", "oracles.iso_hits",
          "embeddings.keylemma_candidates", "embeddings.keylemma_found"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        fid = self.names.index(name)
        note = NOTES.get(name)
        stack, end, counts, clock = self.stack, self.end, self.counts, time.perf_counter

        def call(*args, **kwargs):
            idx = self._open(fid)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                note(counts, args, result)
            return result

        def stream(*args, **kwargs):
            # A generator is timed across its whole consumption: the span
            # opens at the first next() and closes when it is exhausted or
            # closed; its callees see it as parent only while it runs.
            idx = self._open(fid)
            it = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                    yield item
            finally:
                end[idx] = clock()

        return stream if name == "embeddings.tree" else call

    def install(self, package) -> None:
        import importlib
        mods = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        for mod_name, attr, name in TRACED:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.fid), "counts": self.counts}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)


def summarize(path: str) -> tuple[dict, dict]:
    """Per span name: calls, inclusive seconds (outermost calls only, so
    recursion is not counted twice) and self seconds (duration minus the
    time covered by direct children).  Returns (per_name, counts)."""
    with open(path + ".json", encoding="utf-8") as fh:
        head = json.load(fh)
    n = head["spans"]
    fid, parent, start, end = array("i"), array("i"), array("d"), array("d")
    with open(path + ".bin", "rb") as fh:
        for arr in (fid, parent, start, end):
            arr.fromfile(fh, n)
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in head["names"]}
    for i in range(n):
        agg = out[head["names"][fid[i]]]
        dur = end[i] - start[i]
        agg["calls"] += 1
        agg["self_s"] += dur - covered[i]
        p = parent[i]
        while p >= 0 and fid[p] != fid[i]:
            p = parent[p]
        if p < 0:
            agg["incl_s"] += dur
    return out, head["counts"]


def main(argv: list[str]) -> int:
    import indturan
    tracer = Tracer()
    tracer.install(indturan)
    from indturan import cli
    try:
        return cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
