"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and writes a single
PASS/FAIL line to the real stdout (bypassing capture) so the run log shows a
scoreboard even when pytest swallows per-test output.
"""

import ast
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from importlib import import_module
from itertools import combinations, permutations
from pathlib import Path

from indturan import density, realizability
from indturan.embeddings import (
    Thresholds,
    asymmetric_embed,
    bad_set,
    extract_induced_power,
    extraction_aux,
    greedy_tree_embed,
    key_lemma_embed,
    rich_s_set,
)
from indturan.families import (
    as_template,
    attach_ktt_rooted,
    height_two_tree,
    leaf_rooted_star,
    rooted_path,
    rooted_power,
    theta,
    tree_r11,
)
from indturan.graph import Graph, Host, cross_subgraph, edge_subgraph
from indturan.oracles import (
    contains_kss,
    extremal_bip_star,
    extremal_classical,
    extremal_star,
    is_isomorphic,
    kst_check,
    verify_bip_induced_map,
)

from helpers import random_kss_free, random_kss_free_bipartite, verify_induced_map_reference

# Subprocess runs start in the repository root and import the package from
# its absolute src directory, whatever the caller's working directory.
ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@contextmanager
def scoreboard(name, capsys):
    """Emit one uncaptured PASS/FAIL line per acceptance check."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[acceptance] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n[acceptance] {name}: PASS")


C4 = theta(2, 2)
C6 = theta(3, 2)
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_density_closed_forms(capsys):
    with scoreboard("density closed forms", capsys):
        t0 = time.monotonic()
        for r in range(1, 6):
            for t in range(1, 5):
                rep = density.is_balanced(height_two_tree(r, t))
                assert rep.rho == Fraction(r * t + r, r + 1)
                # the center alone carries r edges against a target of
                # r(t+1)/(r+1), so balance holds exactly when r >= t
                assert rep.balanced == (r >= t)
                if r < t:
                    assert rep.witness == (0,)
        for r in range(1, 6):
            rep = density.is_balanced(tree_r11(r))
            assert rep.rho == Fraction(2 * r + 1, r + 1)
            assert rep.balanced
        for length in range(2, 7):
            rep = density.is_balanced(rooted_path(length))
            assert rep.rho == Fraction(length, length - 1)
            assert rep.balanced
        assert time.monotonic() - t0 < 1.0


def test_attachment_shifts_density_by_one(capsys):
    corpus = (
        [height_two_tree(r, t) for r in range(1, 6) for t in range(1, 5)]
        + [tree_r11(r) for r in range(1, 6)]
        + [rooted_path(length) for length in range(2, 7)]
        + [leaf_rooted_star(r) for r in range(1, 5)]
    )
    balanced_count = 0
    with scoreboard("attachment density shift on %d rooted graphs" % len(corpus),
                    capsys):
        for f in corpus:
            before = density.is_balanced(f)
            shifted = attach_ktt_rooted(f, 1)
            after = density.is_balanced(shifted)
            assert after.rho == before.rho + 1
            # the attachment adds at most one edge per old vertex, so it
            # moves balanced and unbalanced inputs to the same status
            assert after.balanced == before.balanced
            balanced_count += before.balanced
        assert balanced_count >= 20


def glue_along_roots(f, l):
    """l copies of f glued along the roots as edge sets, so that an edge inside
    the root set is shared by every copy (rooted_power rejects such edges)."""
    roots, non = sorted(f.roots), f.non_roots()

    def image(c, v):
        return roots.index(v) if v in f.roots else len(roots) + c * len(non) + non.index(v)

    return Graph(len(roots) + l * len(non),
                 [(image(c, u), image(c, v)) for c in range(l) for u, v in f.graph.edges])


def test_power_and_attachment_commute(capsys):
    with scoreboard("power/attachment commutation", capsys):
        for f in (rooted_path(2), height_two_tree(2, 1)):
            for l in (1, 2):
                attached = attach_ktt_rooted(f, 1)
                lhs = glue_along_roots(attached, l)
                rhs = attach_ktt_rooted(rooted_power(f, l), 1).graph
                assert is_isomorphic(lhs, rhs)


def test_realizable_sweep(capsys):
    with scoreboard("realizable exponent sweep a<=6, b<=50", capsys):
        t0 = time.monotonic()
        found = realizability.enumerate_realizable(6, 50)
        expect = {
            (a, b)
            for a in range(1, 7)
            for b in range(a + 1, 51)
            if math.gcd(a, b) == 1 and b >= max(a, (a - 1) ** 2)
        }
        assert {(a, b) for a, b, _ in found} == expect
        for _, _, cert in found:
            assert realizability.verify_certificate(cert)
        assert time.monotonic() - t0 < 60.0


def test_extremal_oracle_exactness(capsys):
    with scoreboard("extremal oracle exactness and comparisons", capsys):
        assert extremal_star(4, C4, 2).value == 4

        patterns = ((C4, "C4"), (C6, "C6"), (P4, "P4"))
        star = {}
        for h, name in patterns:
            for s in (2, 3):
                star[name, s] = [extremal_star(n, h, s).value for n in range(3, 7)]
        for name, s in star:
            vals = star[name, s]
            assert all(a <= b for a, b in zip(vals, vals[1:]))  # monotone in n
        for h, name in patterns:
            for i in range(4):
                assert star[name, 2][i] <= star[name, 3][i]  # monotone in s

        for h, name in patterns:
            for s in (2, 3):
                for i, n in enumerate(range(3, 7)):
                    bip = extremal_bip_star(n, as_template(h), s).value
                    assert 2 * bip >= star[name, s][i]

        # with s > n/2 the biclique constraint is vacuous, so forbidding only
        # induced copies can never drop below the classical subgraph bound
        for h in (C4, C6):
            for n in range(3, 7):
                s = n // 2 + 1
                assert extremal_star(n, h, s).value >= extremal_classical(n, h).value


def test_counting_lemma_fuzz(capsys):
    with scoreboard("counting lemma fuzz (>=200 biclique-free instances)", capsys):
        t0 = time.monotonic()
        rng = random.Random(11)
        instances = 0

        for s, c, keep, nlo in ((2, Fraction(4, 5), 0.9, 26),
                                (3, Fraction(9, 10), 0.8, 42)):
            wmin = math.ceil(s * (2 / c) ** s)
            for _ in range(40):
                n = rng.randrange(nlo, nlo + 9)
                g = random_kss_free(n, s, rng, keep=keep)
                w = rng.sample(range(n), wmin + 1)
                b = bad_set(g, w, c, s=s)  # raises on any bound violation
                assert Fraction(len(b)) < 2 * s / c
                instances += 1

        for _ in range(70):
            host = random_kss_free_bipartite(20, 6, 2, rng, keep=1.0)
            x, y = host.partition
            c = Fraction(1, 5)
            if Fraction(host.graph.m) < c * 20 * 6:
                continue  # density hypothesis not met; not an instance
            got = rich_s_set(host.graph, x, y, c, 2)
            common = [v for v in y
                      if all(host.graph.has_edge(v, u) for u in got)]
            assert Fraction(len(common)) >= (c / 2) ** 2 * len(y)
            instances += 1

        for i in range(70):
            s = 2 if i % 2 == 0 else 3
            m = rng.randrange(8, 15)
            host = random_kss_free_bipartite(m, m, s, rng, keep=0.7)
            assert kst_check(host)
            instances += 1

        assert instances >= 200
        assert time.monotonic() - t0 < 120.0


def brute_force_good_copies(g, l, t, d):
    """Definition-level enumeration: induced tree copies on L-edges whose
    images avoid each other's saturated-neighborhood sets."""
    thresh = Fraction(d, 4 * t.n)
    lverts = range(l.n)
    bad = {
        x: {y for y in lverts
            if Fraction(sum(1 for w in l.neighbors(x) if g.has_edge(y, w)))
            >= thresh}
        for x in lverts
    }
    out = set()
    for perm in permutations(lverts, t.n):
        ok = True
        for u, v in combinations(range(t.n), 2):
            image_edge = ((perm[u], perm[v]) in l.edges
                          or (perm[v], perm[u]) in l.edges)
            if t.has_edge(u, v):
                ok = image_edge
            else:
                ok = not g.has_edge(perm[u], perm[v])
            if not ok:
                break
        if ok and not any(perm[j] in bad[perm[i]]
                          for i in range(t.n) for j in range(t.n) if i != j):
            out.add(perm)
    return out


def k45_host():
    g = Graph(9, [(i, j) for i in range(4) for j in range(4, 9)])
    return Host(g, 2, (tuple(range(4)), tuple(range(4, 9))))


def test_embedding_soundness(capsys):
    with scoreboard("embedding soundness (all maps re-verified)", capsys):
        p3 = Graph(3, [(0, 1), (1, 2)])

        # tree embedding matches the brute-force reference on three hosts
        fixtures = [
            (theta(3, 2), None, p3, (2, 24)),
            (theta(2, 3), None, p3, (6, 48)),
            (Graph(8, [(i, (i + 1) % 8) for i in range(8)]
                   + [(i, (i + 2) % 8) for i in range(8)]),
             [(i, (i + 1) % 8) for i in range(8)], P4, (16, 64)),
        ]
        for g, l_edges, tree, ds in fixtures:
            host = Host(g, 2)
            l = g if l_edges is None else edge_subgraph(g, l_edges)
            for d in ds:
                got = set(greedy_tree_embed(host, l, tree, d))
                assert got == brute_force_good_copies(g, l, tree, d)
                for vm in got:
                    assert verify_induced_map_reference(g, tree, vm)

        # biclique-blowup embedding on the planted complete-bipartite host
        host = k45_host()
        l = cross_subgraph(host)
        template = as_template(p3)
        th = Thresholds(c_hs=3, m_blow=2)
        out = key_lemma_embed(host, l, template, {0: (0, 1), 2: (2, 3)},
                              lambda ss: len(ss) == 2, th, seed=0)
        assert out.found
        x, y = host.partition
        assert verify_bip_induced_map(host.graph, x, y, template, out.mapping)

        out2 = asymmetric_embed(host, l, template, th, seed=0)
        assert out2.found
        assert verify_bip_induced_map(host.graph, x, y, template, out2.mapping)

        # root-power extraction from overlapping rooted-path copies
        tg = theta(3, 5)
        g2 = Graph(tg.n, list(tg.edge_list()) + [(2, 4), (4, 6), (2, 6)])
        copies = [(0, 2 + 2 * i, 3 + 2 * i, 1) for i in range(5)]
        f = rooted_path(3)
        out3 = extract_induced_power(g2, copies, f, 3, 2)
        assert out3.found
        assert verify_induced_map_reference(g2, rooted_power(f, 3).graph, out3.mapping)


def test_extraction_on_planted_overlap_fixture(capsys):
    with scoreboard("power extraction on planted fixture", capsys):
        # five path copies 0-w-1 sharing both endpoints; three middles form a
        # triangle, the other two stay untouched
        edges = [(0, w) for w in range(2, 7)] + [(1, w) for w in range(2, 7)]
        edges += [(2, 3), (3, 4), (2, 4)]
        g = Graph(7, edges)
        copies = [(0, w, 1) for w in range(2, 7)]
        f = rooted_path(2)
        s = 3

        assert contains_kss(g, s) is None  # host is biclique-free at this s

        out = extract_induced_power(g, copies, f, 2, s)
        assert out.found
        # the embedded square of the path is an induced 4-cycle
        power = rooted_power(f, 2)
        assert verify_induced_map_reference(g, power.graph, out.mapping)
        assert is_isomorphic(power.graph, theta(2, 2))
        middles = [v for v in out.mapping if v >= 2]
        assert len(middles) == 2 and not g.has_edge(*middles)
        # the two untouched copies always offer such an independent pair
        assert not g.has_edge(5, 6)

        # exhaustive scan: no 2s vertices of the auxiliary colored graph form
        # a clique wearing one color, so the biclique branch cannot fire
        aux = extraction_aux(g, copies, f)
        mono = 0
        for group in combinations(range(len(copies)), 2 * s):
            colors = set()
            complete = True
            for pair in combinations(group, 2):
                if pair not in aux:
                    complete = False
                    break
                colors.add(aux[pair])
            if complete and len(colors) == 1:
                mono += 1
        assert mono == 0
        assert out.kss_witness is None


def test_cli_determinism(capsys):
    with scoreboard("deterministic command-line output", capsys):
        base = [sys.executable, "-m", "indturan.cli", "--seed", "9"]
        outs = [subprocess.run(base + ["sweep", "4", "24"], capture_output=True,
                               cwd=ROOT, env=ENV) for _ in range(2)]
        assert all(r.returncode == 0 for r in outs)
        assert len({r.stdout for r in outs}) == 1 and outs[0].stdout
        payload = json.loads(outs[0].stdout)
        assert payload["count"] == len(payload["certificates"]) > 0

        emb = [sys.executable, "-m", "indturan.cli", "--seed", "5",
               "extremal", "--n", "5", "--s", "2",
               "--pattern", "theta:len=2,t=2", "--mode", "star"]
        a = subprocess.run(emb, capture_output=True, cwd=ROOT, env=ENV)
        b = subprocess.run(emb, capture_output=True, cwd=ROOT, env=ENV)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_no_assert_in_source(capsys):
    # Re-checks must be explicit raises: `python -O` strips assert statements.
    with scoreboard("re-checks survive python -O (no assert in src)", capsys):
        found = []
        for path in sorted((ROOT / "src" / "indturan").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
        assert not found, found


def test_self_calls_in_source(capsys):
    # Every function in src that calls itself by name, directly or from a
    # function nested in it, is one of these, each with a bound on its depth;
    # every other search runs on explicit frames or on `graph.placements`.
    bounded = {
        # depth at most the graph's vertex count, which the oracles' budgets
        # bound; a pattern larger than its host never reaches it
        "canonical._search",
        # depth is the payload's nesting, which the handlers fix
        "commands._dump.emit",
        # a RecursionError becomes ValueError("descriptor nested too deeply")
        "families.parse_descriptor",
    }
    with scoreboard("the only self-calling functions in src are the bounded ones", capsys):
        found = set()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, prefix)
                    continue
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(c, ast.Call) and getattr(c.func, "id", None) == child.name
                        for c in ast.walk(child)):
                    found.add(name)
                visit(child, name)

        for path in sorted((ROOT / "src" / "indturan").glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
        assert found == bounded, found


def test_no_dead_names_or_floats_in_source(capsys):
    # Every top-level function and class in src is referenced somewhere in
    # src outside its own definition (package re-exports do not count), and
    # so is every method and property of a top-level class, dunders aside,
    # outside every definition of that name; no float literal appears:
    # arithmetic is exact.  Every top-level function and class in
    # tests/helpers.py is referenced in helpers or a test module outside its
    # own definition; helpers may use floats (probabilities).
    with scoreboard("no unreferenced top-level name or method in src, no unreferenced "
                    "top-level name in tests/helpers.py, no float literal in src", capsys):
        def parse(paths):
            return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                    for path in sorted(paths)}

        def referenced(node):
            if isinstance(node, ast.Name):
                return node.id
            if isinstance(node, ast.Attribute):
                return node.attr
            return node.name if isinstance(node, ast.alias) else None

        def unreferenced(modules, among):
            total = Counter(referenced(node) for tree in among.values() for node in ast.walk(tree))
            return [f"{name}:{d.name}" for name, tree in modules.items() for d in tree.body
                    if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    and total[d.name] == sum(referenced(node) == d.name for node in ast.walk(d))]

        def unreferenced_methods(modules):
            total = Counter(referenced(node) for tree in modules.values() for node in ast.walk(tree))
            own = Counter()  # references inside the definitions of the same name
            for tree in modules.values():
                for d in ast.walk(tree):
                    if isinstance(d, ast.FunctionDef):
                        own[d.name] += sum(referenced(node) == d.name for node in ast.walk(d))
            return [f"{name}:{c.name}.{f.name}" for name, tree in modules.items() for c in tree.body
                    if isinstance(c, ast.ClassDef) for f in c.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__"))
                    and total[f.name] == own[f.name]]

        trees = parse((ROOT / "src" / "indturan").glob("*.py"))
        modules = {name: tree for name, tree in trees.items() if name != "__init__.py"}
        tests = parse((ROOT / "tests").glob("*.py"))
        unused = unreferenced(modules, modules) + unreferenced_methods(modules) + unreferenced(
            {"helpers.py": tests["helpers.py"]}, tests)
        floats = [f"{name}:{node.lineno}" for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)]
        assert not unused and not floats, {"unreferenced": unused, "float literals": floats}


def test_traced_names_resolve(capsys):
    # The benchmark's traced runs wrap each (module, attribute) of
    # perfbench/traced.py's TRACED list by name; a refactor that drops one
    # fails here rather than in the benchmark.
    with scoreboard("every function the benchmark traces exists in indturan", capsys):
        tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8"))
        traced = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
        missing = []
        for module, attribute, _ in traced:
            obj = import_module(f"indturan.{module}")
            for part in attribute.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{attribute}")
        assert traced and not missing, missing


def test_readme_names_resolve(capsys):
    # Every backticked `module.name` in README.md, `module` a module of the
    # package with or without the `indturan.` prefix (also at the head of a
    # call such as `graph.relabel(adj, order)`), is an attribute of it.  A
    # file path such as `src/indturan/graph.py` cites nothing.
    with scoreboard("every module.name the README cites exists in indturan", capsys):
        modules = sorted(p.stem for p in (ROOT / "src" / "indturan").glob("*.py")
                         if p.stem != "__init__")
        cite = re.compile(rf"(?<![\w./])(?:indturan\.)?({'|'.join(modules)})\.(\w+)")
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        cited = {m.groups() for span in re.findall(r"`([^`\n]+)`", text)
                 for m in cite.finditer(span)}
        missing = sorted(f"{module}.{name}" for module, name in cited
                         if not hasattr(import_module(f"indturan.{module}"), name))
        assert cited and not missing, missing


def test_checks_run_under_python_O(capsys, tmp_path):
    # The re-checks are real raises, so `python -O` runs them and prints the
    # same bytes as a plain run.  The extract and asym instances end in
    # success, so their maps reach the re-check.
    path3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
    specs = {
        "tree": {"host": {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)], "s": 2},
                 "tree": path3, "d": 24},
        "extract": {"host": {"n": 7, "edges": [[u, w] for u in (0, 1) for w in range(2, 7)]},
                    "pattern": dict(path3, roots=[0, 2]),
                    "copies": [[0, w, 1] for w in range(2, 7)], "l": 2, "s": 2},
        "asym": {"host": {"n": 9, "edges": [[i, j] for i in range(4) for j in range(4, 9)],
                          "partition": {"X": [0, 1, 2, 3], "Y": [4, 5, 6, 7, 8]}, "s": 2},
                 "template": path3, "thresholds": {"c_hs": 3, "m_blow": 2}},
    }
    jobs = [["sweep", "4", "24"], ["realize", "5", "26", "--l", "3"],
            ["extremal", "--mode", "bip", "--n", "5", "--s", "2",
             "--pattern", "theta:len=2,t=2"]]
    for proc, spec in specs.items():
        path = tmp_path / f"{proc}.json"
        path.write_text(json.dumps(spec))
        jobs.append(["embed", proc, "--input", str(path)])
    with scoreboard("CLI output identical under python -O", capsys):
        for job in jobs:
            plain, optimized = (
                subprocess.run([sys.executable, *flags, "-m", "indturan.cli", *job],
                               capture_output=True, cwd=ROOT, env=ENV)
                for flags in ([], ["-O"]))
            assert plain.returncode == optimized.returncode == 0, job
            assert plain.stdout == optimized.stdout and plain.stdout, job
            if job[1] in ("extract", "asym"):
                assert json.loads(plain.stdout)["found"] is True, job
