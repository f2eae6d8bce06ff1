import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indturan import cli, commands, density, errors, oracles
from indturan.errors import DisprovesLemma
from indturan.families import BipartiteTemplate, RootedGraph, as_graph, parse_descriptor
from indturan.graph import graph_from_json_dict

# Subprocess runs start in the repository root and import the package from
# its absolute src directory, whatever the caller's working directory.
ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_capped(*argv):
    """(exit code, parsed stdout) of a CLI run in a child process whose
    address space is capped at 512 MB, which must end within 10 s."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    r = subprocess.run([sys.executable, "-m", "indturan.cli", *argv], capture_output=True,
                       cwd=ROOT, env=ENV, preexec_fn=cap, timeout=10)
    return r.returncode, json.loads(r.stdout)


class TestFamilyCommands:
    def test_family_reports_density(self, capsys):
        code, d = run_json(capsys, "family", "path:len=3")
        assert code == 0
        assert d["density"]["rho"] == "3/2"
        assert d["density"]["balanced"] is True
        assert d["graph"]["n"] == 4 and d["graph"]["roots"] == [0, 3]

    def test_family_nested_power(self, capsys):
        code, d = run_json(capsys, "family", "power:base=(path:len=2),l=2")
        assert code == 0
        assert d["graph"]["n"] == 4  # cherry squared = C4
        assert len(d["graph"]["edges"]) == 4

    def test_rho_balanced(self, capsys):
        code, d = run_json(capsys, "rho", "Trt:r=2,t=3")
        assert code == 0 and d["rho"] == "8/3"
        code, d = run_json(capsys, "balanced", "Tr11:r=3")
        assert code == 0 and d["balanced"] is True

    def test_unknown_descriptor_is_domain_error(self, capsys):
        code, d = run_json(capsys, "family", "zigzag:n=3")
        assert code == 1 and d["error"] == "ValueError"

    def test_deep_nesting_is_domain_error(self):
        # a child process, so that the nesting depth that runs out of stack
        # is the CLI's own: 450 levels parse, 500 exhaust it
        def nested(depth):
            desc = "path:len=2"
            for _ in range(depth):
                desc = f"power:base=({desc}),l=1"
            return desc

        code, d = run_capped("rho", nested(450))
        assert code == 0 and d["rho"] == "2"
        assert run_capped("rho", nested(500)) == (
            1, {"error": "ValueError", "message": "descriptor nested too deeply"})

    def test_template_descriptor(self, capsys):
        code, d = run_json(capsys, "family", "Kst:s=2,t=3")
        assert code == 0 and d["graph"]["n"] == 5
        assert "density" not in d  # unrooted template has no root density


class TestRealizeSweep:
    def test_balance_budget_before_the_witness(self):
        # 100,000 copies would take gigabytes of rows; the budget is named first
        assert run_capped("realize", "2", "5", "--l", "100000") == (1, {
            "error": "TooLarge", "message": "200000 non-roots exceed the balance budget of 400"})

    def test_realize_success(self, capsys):
        code, d = run_json(capsys, "realize", "3", "7")
        assert code == 0
        assert d["a"] == 3 and d["b"] == 7 and d["verified"] is True
        assert d["exponent"] == "11/7"

    def test_realize_rejects(self, capsys):
        code, d = run_json(capsys, "realize", "5", "9")
        assert code == 1 and d["error"] == "NotQualified"

    def test_sweep_counts(self, capsys):
        code, d = run_json(capsys, "sweep", "3", "10")
        assert code == 0 and d["count"] == 18
        assert all(row["verified"] for row in d["certificates"])
        pairs = {(row["a"], row["b"]) for row in d["certificates"]}
        assert (1, 2) in pairs and (3, 10) in pairs

    @pytest.mark.parametrize("argv, sha256", [
        (["sweep", "7", "50"], "07e48148b066fe5948133eb1a2ac2129ad8009b89f8d7b32c057895a27f5e857"),
        (["realize", "5", "26", "--l", "3"],
         "cab4459cf3b39b8eebb7bc9602847a1ed82037b71d7f77df4e5bf0e999597101"),
        (["sweep", "12", "150", "--l", "3"],
         "3c51065a6f87ae29ac35028e52d6860a273fe88f0d774fab8dcbfb7e422f7ecf"),
    ], ids=["sweep", "realize", "sweep-12-150-l3"])
    def test_pinned_bytes(self, capsys, argv, sha256):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


class TestExtremal:
    def test_star_value(self, capsys):
        code, d = run_json(capsys, "extremal", "--n", "4", "--s", "2",
                           "--pattern", "theta:len=2,t=2", "--mode", "star")
        assert code == 0 and d["value"] == 4
        assert len(d["witness"]["edges"]) == 4

    def test_classical(self, capsys):
        code, d = run_json(capsys, "extremal", "--n", "5", "--s", "2",
                           "--pattern", "theta:len=2,t=2", "--mode", "classical")
        assert code == 0 and d["value"] == 6

    def test_bip(self, capsys):
        code, d = run_json(capsys, "extremal", "--n", "3", "--s", "2",
                           "--pattern", "theta:len=2,t=2", "--mode", "bip")
        assert code == 0 and "partition" in d["witness"]
        assert d["value"] == 2  # cross edges only; the X-Y split (1,2) caps at 2

    def test_each_mode_gets_its_own_budget(self, capsys, monkeypatch):
        # Without --budget, each oracle applies its own default budget.
        seen = {}

        def spy(name):
            real = getattr(oracles, name)
            default = inspect.signature(real).parameters["budget"].default

            def wrapped(*args, budget=default):
                seen[name] = budget
                return real(*args, budget=budget)
            return wrapped

        names = ("extremal_star", "extremal_classical", "extremal_bip_star")
        for name in names:
            monkeypatch.setattr(oracles, name, spy(name))

        def budgets(*extra):
            seen.clear()
            for mode in ("star", "classical", "bip"):
                code, _ = run_json(capsys, "extremal", "--n", "4", "--pattern",
                                   "theta:len=2,t=2", "--mode", mode, *extra)
                assert code == 0
            return dict(seen)

        assert budgets() == {"extremal_star": oracles.STAR_BUDGET,
                             "extremal_classical": oracles.STAR_BUDGET,
                             "extremal_bip_star": oracles.BIP_BUDGET}
        assert budgets("--budget", "5") == dict.fromkeys(names, 5)

    def test_budget_guard(self, capsys):
        code, d = run_json(capsys, "extremal", "--n", str(oracles.STAR_BUDGET + 1), "--s", "2",
                           "--pattern", "theta:len=2,t=2", "--mode", "star")
        assert code == 1 and d["error"] == "TooLarge"

    @pytest.mark.parametrize("mode", ["star", "classical"])
    def test_pattern_larger_than_the_host(self, mode):
        # a 1,502-vertex pattern has no copy in a 4-vertex host, so the answer
        # is the 5-vertex pattern's; its automorphisms are never computed
        small, huge = (run_capped("extremal", "--mode", mode, "--n", "4",
                                  "--pattern", f"theta:len=2,t={t}") for t in (3, 1500))
        assert small[0] == 0 and huge == small


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["realize", "3"])  # missing b
        assert exc.value.code == 2

    def test_internal_fault_exit_code(self, capsys, monkeypatch):
        # a failed internal re-check is a bug, reported apart from bad input
        def fail(*args, **kwargs):
            raise DisprovesLemma("re-check failed")

        monkeypatch.setattr(density, "is_balanced", fail)
        code, d = run_json(capsys, "balanced", "path:len=3")
        assert code == 3
        assert d == {"error": "DisprovesLemma", "message": "re-check failed"}

    # The error classes whose raising means a bug: every other class in
    # indturan.errors is a domain error.  A new class must be placed here or
    # left a domain error on purpose.
    INTERNAL_FAULTS = {"DisprovesLemma", "CertificateInvalid"}

    @pytest.mark.parametrize("name", sorted(
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.IndturanError)))
    def test_exit_code_of_each_error_class(self, capsys, monkeypatch, name):
        def fail(*args, **kwargs):
            raise getattr(errors, name)("raised on purpose")

        monkeypatch.setattr(density, "is_balanced", fail)
        code, d = run_json(capsys, "balanced", "path:len=3")
        assert code == (3 if name in self.INTERNAL_FAULTS else 1)
        assert d == {"error": name, "message": "raised on purpose"}

    def test_failed_certificate_recheck_is_internal(self, capsys, monkeypatch):
        # derive re-checks its own certificate; a failure there is a bug
        from indturan import realizability
        monkeypatch.setattr(realizability, "verify_certificate",
                            lambda cert: realizability.VerificationResult(False, "RhoMismatch"))
        code, d = run_json(capsys, "realize", "5", "26")
        assert code == 3
        assert d["error"] == "CertificateInvalid" and "RhoMismatch" in d["message"]


class TestEmbedCommands:
    @pytest.fixture()
    def kl_path(self, tmp_path):
        spec = {
            "host": {"n": 9,
                     "edges": [[i, j] for i in range(4) for j in range(4, 9)],
                     "partition": {"X": [0, 1, 2, 3], "Y": [4, 5, 6, 7, 8]},
                     "s": 2},
            "template": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "parts": {"0": [0, 1], "2": [2, 3]},
            "rich_threshold": 2,
            "thresholds": {"c_hs": 3, "m_blow": 2},
        }
        p = tmp_path / "kl.json"
        p.write_text(json.dumps(spec))
        return str(p)

    def test_keylemma(self, capsys, kl_path):
        code, d = run_json(capsys, "embed", "keylemma", "--input", kl_path)
        assert code == 0 and d["found"] is True
        assert d["mapping"][1] >= 4  # middle vertex placed on the Y side

    def test_tree(self, capsys, tmp_path):
        spec = {
            "host": {"n": 6,
                     "edges": [[i, (i + 1) % 6] for i in range(6)], "s": 2},
            "tree": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "d": 24,
        }
        p = tmp_path / "tree.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "embed", "tree", "--input", str(p))
        assert code == 0 and d["count"] == 12

    TREE_SPEC = {"host": {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)], "s": 2},
                 "tree": {"n": 3, "edges": [[0, 1], [1, 2]]}, "d": 24}

    @pytest.mark.parametrize("limit", [0, 1, 5, 12, 13])
    def test_tree_limit(self, limit):
        _, everything = run_stdin(["embed", "tree"], self.TREE_SPEC)
        code, out = run_stdin(["embed", "tree"], dict(self.TREE_SPEC, limit=limit))
        copies = json.loads(everything)["copies"][:limit]
        assert code == 0 and json.loads(out) == {"count": len(copies), "copies": copies}

    @pytest.mark.parametrize("limit", [-1, -5])
    def test_tree_negative_limit(self, limit):
        code, out = run_stdin(["embed", "tree"], dict(self.TREE_SPEC, limit=limit))
        assert code == 1
        assert json.loads(out) == {"error": "ValueError",
                                   "message": f"limit must be non-negative, got {limit}"}

    def test_tree_null_limit(self):
        code, out = run_stdin(["embed", "tree"], dict(self.TREE_SPEC, limit=None))
        assert code == 1 and json.loads(out)["error"] == "TypeError"

    @pytest.mark.parametrize("tree, message", [
        ({"n": 3, "edges": []}, "pattern is not a tree"),
        ({"n": 0, "edges": []}, "tree must be nonempty")])
    def test_tree_zero_limit_still_checks_the_tree(self, tree, message):
        code, out = run_stdin(["embed", "tree"], dict(self.TREE_SPEC, tree=tree, limit=0))
        assert code == 1
        assert json.loads(out) == {"error": "ValueError", "message": message}

    def test_extract(self, capsys, tmp_path):
        spec = {
            "host": {"n": 7, "edges": [[0, w] for w in range(2, 7)]
                     + [[1, w] for w in range(2, 7)]},
            "pattern": {"n": 3, "edges": [[0, 1], [1, 2]], "roots": [0, 2]},
            "copies": [[0, w, 1] for w in range(2, 7)],
            "l": 2, "s": 2,
        }
        p = tmp_path / "ext.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "embed", "extract", "--input", str(p))
        assert code == 0 and d["found"] is True

    def test_asym(self, capsys, tmp_path, kl_path):
        spec = json.loads(open(kl_path).read())
        del spec["parts"]
        del spec["rich_threshold"]
        p = tmp_path / "asym.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "embed", "asym", "--input", str(p))
        assert code == 0 and d["found"] is True
        assert d["trace"][0]["c3_guarantee"] is True

    def test_asym_blowup_deeper_than_the_recursion_limit(self, tmp_path):
        # 1,100 A vertices, one B vertex joined to all of them, on the
        # complete cross host: the blowup search holds one frame per A vertex
        k = 1100
        spec = {"host": {"n": k + 3, "edges": [[x, y] for x in range(k) for y in range(k, k + 3)],
                         "partition": {"X": list(range(k)), "Y": list(range(k, k + 3))}, "s": 2},
                "template": {"n": k + 1, "edges": [[a, k] for a in range(k)],
                             "A": list(range(k)), "B": [k]},
                "thresholds": {"c_hs": 1, "m_blow": 1}}
        p = tmp_path / "asym.json"
        p.write_text(json.dumps(spec))
        code, d = run_capped("embed", "asym", "--input", str(p))
        assert code == 0 and d["found"] is True

    @pytest.mark.parametrize("procedure", ["asym", "keylemma"])
    def test_thresholds_must_be_object(self, capsys, tmp_path, kl_path, procedure):
        spec = json.loads(open(kl_path).read())
        spec["thresholds"] = [1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "embed", procedure, "--input", str(p))
        assert code == 1
        assert d == {"error": "TypeError", "message": "thresholds must be a JSON object"}

    @pytest.mark.parametrize("procedure", ["asym", "keylemma"])
    @pytest.mark.parametrize("key", ["k", "lambda"])
    def test_unknown_threshold_key(self, capsys, tmp_path, kl_path, procedure, key):
        spec = json.loads(open(kl_path).read())
        spec["thresholds"] = {key: 4}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "embed", procedure, "--input", str(p))
        assert code == 1 and d["error"] == "TypeError" and repr(key) in d["message"]

    def test_parts_must_be_object(self, capsys, tmp_path, kl_path):
        spec = json.loads(open(kl_path).read())
        spec["parts"] = []
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "embed", "keylemma", "--input", str(p))
        assert code == 1
        assert d == {"error": "TypeError", "message": "parts must be a JSON object"}

    def test_keylemma_l_edge_inside_x(self, capsys, tmp_path):
        # L's edge 0-1 lies inside X: named as M's would be, not reached as a
        # copy that fails its bipartite re-check (exit 3)
        spec = {
            "host": {"n": 4, "edges": [[0, 1], [0, 3]],
                     "partition": {"X": [0, 1, 2], "Y": [3]}, "s": 2},
            "l_edges": [[0, 1], [0, 3]],
            "template": {"n": 2, "edges": [[0, 1]], "A": [0], "B": [1]},
            "parts": {"0": [0]},
            "rich_threshold": 1,
            "thresholds": {"c_hs": 1, "m_blow": 1},
        }
        p = tmp_path / "kl.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "embed", "keylemma", "--input", str(p))
        assert code == 1
        assert d == {"error": "InvalidPartition",
                     "message": "l edge (0, 1) does not cross the partition"}

    def test_missing_file_is_domain_error(self, capsys):
        code, d = run_json(capsys, "embed", "tree", "--input", "/nonexistent.json")
        assert code == 1 and d["error"] == "FileNotFoundError"


class TestCheckCommands:
    def test_badset(self, capsys, tmp_path):
        spec = {"graph": {"n": 6, "edges": [[0, i] for i in range(1, 6)]},
                "w": [1, 2, 3], "c": "2/3"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "check", "badset", "--input", str(p))
        assert code == 0 and d["bad"] == [0]

    def test_s_read_as_int(self, capsys, tmp_path):
        # |W| = 18 reaches s (2/c)^s, so the K_{2,2}-free star runs the lemma check.
        outs = []
        for s in (2, "2"):
            spec = {"graph": {"n": 21, "edges": [[0, i] for i in range(1, 21)]},
                    "w": list(range(1, 19)), "c": "2/3", "s": s}
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(spec))
            outs.append(run_cli(capsys, "check", "badset", "--input", str(p)))
        assert outs[0] == outs[1] == (0, json.dumps({"bad": [0], "size": 1},
                                                    sort_keys=True, indent=2) + "\n")

    def test_huge_s_builds_no_power(self, tmp_path):
        # |B(W)| = 1 is below 2s/c, which settles the lemma check before
        # (2/c)^s would be built for s = 10^12
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                                 "w": [0, 2], "c": "1/2", "s": 10 ** 12}))
        assert run_capped("check", "badset", "--input", str(p)) == (0, {"bad": [1], "size": 1})

    def test_zero_denominator_is_domain_error(self, capsys, tmp_path):
        spec = {"graph": {"n": 6, "edges": [[0, i] for i in range(1, 6)]},
                "w": [1, 2, 3], "c": "1/0"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "check", "badset", "--input", str(p))
        assert code == 1 and d["error"] == "ValueError"

    def test_rich(self, capsys, tmp_path):
        spec = {"graph": {"n": 8,
                          "edges": [[i, j] for i in range(4) for j in range(4, 8)]},
                "x": [0, 1, 2, 3], "y": [4, 5, 6, 7], "c": 1, "s": 2}
        p = tmp_path / "rich.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "check", "rich", "--input", str(p))
        assert code == 0 and d["rich_set"] == [0, 1]

    def test_non_integral_s_is_domain_error(self, capsys, tmp_path):
        # int() alone would truncate s = 2.9 to 2 and answer for s = 2
        spec = {"graph": {"n": 8,
                          "edges": [[i, j] for i in range(4) for j in range(4, 8)]},
                "x": [0, 1, 2, 3], "y": [4, 5, 6, 7], "c": 1, "s": 2.9}
        p = tmp_path / "rich.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "check", "rich", "--input", str(p))
        assert code == 1
        assert d == {"error": "ValueError", "message": "expected an integer, got 2.9"}

    def test_kst(self, capsys, tmp_path):
        spec = {"n": 4, "edges": [[0, 1], [1, 2]],
                "partition": {"X": [0, 2], "Y": [1, 3]}, "s": 2}
        p = tmp_path / "kst.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "check", "kst", "--input", str(p))
        assert code == 0 and d["holds"] is True

    def test_regularize(self, capsys, tmp_path):
        spec = {"graph": {"n": 8,
                          "edges": [[i, (i + 1) % 8] for i in range(8)]
                          + [[i, (i + 2) % 8] for i in range(8)]},
                "alpha": "1/2", "c": "1/4"}
        p = tmp_path / "reg.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "check", "regularize", "--input", str(p))
        assert code == 0 and d["m"] == 8 and d["k"] == "1024"
        assert d["edge_guarantee"] and d["size_guarantee"]


def rooted_descriptors(depth: int, reduce: bool = True):
    """Rooted descriptors nested up to depth; reduce=False leaves out f1, whose
    new roots are adjacent, so that a power of it would repeat a root edge."""
    leaves = st.one_of(
        st.builds("Trt:r={},t={}".format, st.integers(1, 3), st.integers(1, 2)),
        st.builds("Tr11:r={}".format, st.integers(1, 3)),
        st.builds("path:len={}".format, st.integers(2, 4)),
        st.builds("star:r={}".format, st.integers(1, 4)))
    if depth == 0:
        return leaves
    power = st.builds("power:base=({}),l={}".format,
                      rooted_descriptors(depth - 1, reduce=False), st.integers(1, 3))
    if not reduce:
        return leaves | power
    return leaves | power | st.builds("f1:base=({})".format, rooted_descriptors(depth - 1))


DESCRIPTORS = (rooted_descriptors(2)
               | st.just("theta:len=1,t=1")
               | st.builds("theta:len={},t={}".format, st.integers(2, 4), st.integers(1, 3))
               | st.builds("Kst:s={},t={}".format, st.integers(1, 3), st.integers(1, 3)))


class TestExport:
    @settings(max_examples=100, deadline=None)
    @given(DESCRIPTORS)
    def test_json_round_trip(self, desc):
        # export -> JSON -> graph gives back what parse_descriptor built
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["export", desc, "--format", "json"]) == 0
        payload = json.loads(out.getvalue())
        obj = parse_descriptor(desc)
        g, roots, parts = graph_from_json_dict(payload["graph"])
        assert payload["descriptor"] == desc
        assert g == as_graph(obj)
        assert roots == (tuple(sorted(obj.roots)) if isinstance(obj, RootedGraph) else None)
        assert parts == (obj.parts if isinstance(obj, BipartiteTemplate) else None)

    def test_dot_roots_marked(self, capsys):
        code, out = run_cli(capsys, "export", "Trt:r=2,t=1", "--format", "dot")
        assert code == 0
        assert "doublecircle" in out and "graph g {" in out

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "fam.json"
        code, _ = run_cli(capsys, "export", "path:len=2", "--format", "json",
                          "--out", str(target))
        assert code == 0
        d = json.loads(target.read_text())
        assert d["graph"]["n"] == 3

    @pytest.mark.parametrize("desc", ["path:len=2", "power:base=(Trt:r=2,t=3),l=2", "Kst:s=2,t=3"])
    def test_json_bytes(self, tmp_path, capsys, desc):
        # stdout and --out carry the same bytes: json.dumps with sorted keys
        # and an indent of 2, then a newline
        want = json.dumps(commands._family_payload(desc), sort_keys=True, indent=2) + "\n"
        code, out = run_cli(capsys, "export", desc)
        assert code == 0 and out == want
        target = tmp_path / "fam.json"
        assert cli.main(["export", desc, "--out", str(target)]) == 0
        assert target.read_bytes() == want.encode("utf-8")

    def test_dot_needs_no_balance_check(self, capsys):
        # one non-root per copy: l copies exceed the balance budget, and DOT
        # output never needs it.
        l = density.BALANCE_BUDGET + 1
        code, out = run_cli(capsys, "export", f"power:base=(path:len=2),l={l}",
                            "--format", "dot")
        assert code == 0 and out.count(" -- ") == 2 * l


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cmd = [sys.executable, "-m", "indturan.cli", "--seed", "7",
               "sweep", "4", "20"]
        a = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=ENV)
        b = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=ENV)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout

    def test_threads_flag_rejected(self):
        # execution is sequential; a flag that did nothing is gone
        with pytest.raises(SystemExit) as exc:
            cli.main(["--threads", "4", "sweep", "3", "12"])
        assert exc.value.code == 2


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["sweep", "7", "50"], ["family", "Trt:r=3,t=1"],
                                      ["realize", "1", "1"]])
    def test_exits_quietly(self, argv):
        # The reader is gone before the first write.  Large output fails on a
        # write, small output at the final flush, and so does a domain error's
        # JSON; each exits 1 with nothing on stderr.
        proc = subprocess.Popen([sys.executable, "-m", "indturan.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=ENV)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1 and err == b"", err


def parser_paths(parser, path=()):
    """The command path of parser and of every subparser below it, parents
    first: (), ("family",), ..., ("embed",), ("embed", "tree"), ..."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from parser_paths(child, (*path, name))


# Runs the CLI with this process's arguments, then writes its exit code and
# the loaded package modules (and dataclasses, fractions and json, if loaded)
# to stderr as a JSON object on a line of its own; json is imported only
# after the modules are listed.
LOADED_PROBE = """import sys
from indturan import cli
try:
    code = cli.main()
except SystemExit as exc:
    code = exc.code
loaded = [m for m in sys.modules if m.startswith("indturan.")
          or m in ("dataclasses", "fractions", "json")]
import json
sys.stderr.write("\\n" + json.dumps({"exit": code, "loaded": loaded}))
"""

# --help and one job of each benchmark workload, with the instance an embed
# job reads from --input (an entry of VALID_INPUTS).
STARTUP_JOBS = {
    "help": ["--help"],
    "extremal-star": ["extremal", "--n", "5", "--pattern", "theta:len=3,t=2"],
    "extremal-bip": ["extremal", "--mode", "bip", "--n", "5", "--s", "3",
                     "--pattern", "theta:len=2,t=2"],
    "sweep": ["sweep", "3", "10"],
    "balanced": ["balanced", "power:base=(Trt:r=2,t=3),l=2"],
    "embed-tree": ["embed", "tree"],
    "embed-asym": ["embed", "asym"],
    "embed-extract": ["embed", "extract"],
}


class TestLazyLayers:
    def loaded(self, *argv, code=0):
        """The indturan modules a CLI run that exits with code loads (without
        the package prefix), and dataclasses, fractions and json if it loads
        them."""
        r = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv],
                           capture_output=True, cwd=ROOT, env=ENV)
        probe = json.loads(r.stderr.splitlines()[-1])
        assert r.returncode == 0 and probe["exit"] == code, r.stderr
        assert bool(r.stdout) == (code == 0), r.stdout
        return {m.removeprefix("indturan.") for m in probe["loaded"]}

    def test_help_loads_no_layer(self):
        assert self.loaded("--help") == {"cli"}

    @pytest.mark.parametrize("argv, code", [(["embed", "--help"], 0), (["nosuch"], 2)],
                             ids=["embed-help", "usage-error"])
    def test_parse_only_runs_load_only_the_parser(self, argv, code):
        # Neither json nor any indturan module but cli: parsing comes first.
        assert self.loaded(*argv, code=code) == {"cli"}

    def test_handler_table_matches_the_parser_leaves(self):
        paths = set(parser_paths(cli.build_parser()))
        leaves = {" ".join(p) for p in paths
                  if not any(len(q) > len(p) and q[:len(p)] == p for q in paths)}
        assert leaves == set(commands.HANDLERS)

    def test_badset_lemma_check_loads_no_oracle(self, tmp_path):
        # The lemma check runs the K_{s,s} search (K_{2,2}, |W| = 2 and
        # |B(W)| = 2 reach both bounds at c = s = 1), which lives in graph.
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"graph": {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]},
                                    "w": [0, 1], "c": 1, "s": 1}), encoding="utf-8")
        loaded = self.loaded("check", "badset", "--input", str(path))
        assert "embeddings" in loaded and not loaded & {"oracles", "canonical"}

    def test_extremal_loads_neither_embeddings_nor_realizability(self):
        loaded = self.loaded("extremal", "--n", "4", "--pattern", "theta:len=2,t=2")
        assert "oracles" in loaded and not loaded & {"embeddings", "realizability"}

    @pytest.mark.parametrize("job", sorted(STARTUP_JOBS))
    def test_start_up_imports(self, job, tmp_path):
        # No job pays for dataclasses; the embed procedures load neither the
        # oracles nor the canonical form, and the extremal oracles, embed tree
        # and embed extract no Fraction.
        argv = STARTUP_JOBS[job]
        if argv[0] == "embed":
            path = tmp_path / "input.json"
            path.write_text(json.dumps(VALID_INPUTS[tuple(argv)][0]), encoding="utf-8")
            argv = [*argv, "--input", str(path)]
        loaded = self.loaded(*argv)
        assert "dataclasses" not in loaded
        if job.startswith("embed"):
            assert "embeddings" in loaded and not loaded & {"oracles", "canonical"}
        if job.startswith("extremal") or job in ("embed-tree", "embed-extract"):
            assert "fractions" not in loaded  # nothing these jobs read is a rational
        if job.startswith("extremal"):
            assert "oracles" in loaded


EMBED_DIGESTS = json.loads((Path(__file__).parent / "embed_digests.json").read_text(encoding="utf-8"))


class TestPinnedEmbed:
    """sha256 of the CLI stdout of `embed tree`, `asym`, `extract` and
    `keylemma`, and of `check badset` and `check rich`, on small fixed
    instances.  The digests were recorded with the definitional `Fraction` and
    pairwise-scan implementations that `tests/helpers.py` keeps.  The extract
    cases end on each of `success`, `kss` and `exhausted`."""

    @pytest.mark.parametrize("name", sorted(EMBED_DIGESTS))
    def test_stdout_digest(self, name):
        case = EMBED_DIGESTS[name]
        code, out = run_stdin(case["argv"], case["input"])
        assert code == case["exit"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == case["sha256"]


# sha256 of the `--help` text of every command path at 80 columns, as
# CPython 3.11's argparse lays it out.
HELP_DIGESTS = {
    "": "79d2245063e13a875713794c0e813ebd69f7f915201a502d32750bd11a7d25f0",
    "family": "c9d5784eb76cc0f582850356e113928d45bdc568c4aea43f8c78299c268313fb",
    "rho": "a77f0b869cccc187d7f40c778649266c4819ee1774c665d0831bfa037db3161c",
    "balanced": "d710cad8d9d0cfebb62555c492f912b8eb30de9ce963eb8ce7ada353bdab985d",
    "realize": "a3ad8c7f2c327f1aeb1d016a45b6a4259c3d9d6215aa13cc4f67d471d184093c",
    "sweep": "71752d456f497a6a72dfaa5c00191818059612c9c590e09ff51241f67e26cb10",
    "extremal": "34aedb9fe60dcaa7fb1ed6e636dcf775a025973eff8ee033a7a49d60ee4c13e2",
    "embed": "78b4d527d8d75e5542eca92f33a3241d5ec734c0e68d54e2c76a2a23826d1468",
    "embed tree": "8dd2e7d6929c98f285991973da3b4d1920828e36013cbddac647fc3dcf52cb9d",
    "embed keylemma": "cb16e0198862c762ffad993cf12a4a2b15928da79e9cbba5daaff469d67f936e",
    "embed extract": "275c3eae77627f6141b9a703c10944c98e51e08e5eccd40541d24013c7192c4a",
    "embed asym": "e8ee4d2729a97ca96bb9c6ca89ef72d4986bcf82858c7e7041920a3008115b54",
    "check": "584ef27bfced0e2b240ffd8a099a1c85d539e67f63c058a0c443d9ffd01f993a",
    "check badset": "b5f5638ff70a7980ba4a5cbe41632158272489b9721c093e75f8e81dc23d1075",
    "check rich": "e5cc5936ee6710c57e61a728066b8a87038226b157ea2e35a7fb2cff759ca3d3",
    "check kst": "d13a97111dea3d9c10af581c8dda2b431435bfd4eb3bae64457671fb6febbd7d",
    "check regularize": "b425274e9a2db286092e2d9899594f3c04157418d086ab598b3326ab458e16df",
    "export": "1f9060aa1bff753c4c62f2b23d965a4102d2d1beeddd107d00a9db3c3408e454",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other Python versions")
class TestPinnedHelp:
    def test_every_command_path_is_pinned(self):
        assert sorted(" ".join(p) for p in parser_paths(cli.build_parser())) == sorted(HELP_DIGESTS)

    @pytest.mark.parametrize("path", sorted(HELP_DIGESTS))
    def test_help_digest(self, path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main([*path.split(), "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_DIGESTS[path]


# --- malformed --input fuzzing ----------------------------------------------------
#
# One small valid instance per embed/check command, the keys it cannot do
# without, and the paths of the fields read as numbers.  Each fuzz example
# breaks one instance in a way that no reading accepts.

_HOST = {"n": 9, "edges": [[i, j] for i in range(4) for j in range(4, 9)],
         "partition": {"X": [0, 1, 2, 3], "Y": [4, 5, 6, 7, 8]}, "s": 2}
_PATH3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
_THRESHOLDS = {"c_hs": 3, "m_blow": 2}

VALID_INPUTS = {
    ("embed", "tree"): ({"host": {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)], "s": 2},
                        "tree": _PATH3, "d": 24, "limit": 0},
                       ["host", "tree", "d"],
                       [("d",), ("limit",), ("host", "s"), ("host", "n"), ("tree", "n")]),
    ("embed", "keylemma"): ({"host": _HOST, "template": _PATH3,
                            "parts": {"0": [0, 1], "2": [2, 3]},
                            "rich_threshold": 2, "thresholds": _THRESHOLDS},
                           ["host", "template", "parts", "rich_threshold"],
                           [("rich_threshold",), ("host", "s"), ("host", "n"), ("template", "n"),
                            ("thresholds", "c_hs"), ("thresholds", "m_blow")]),
    ("embed", "extract"): ({"host": {"n": 7,
                                     "edges": [[u, w] for u in (0, 1) for w in range(2, 7)]},
                           "pattern": dict(_PATH3, roots=[0, 2]),
                           "copies": [[0, w, 1] for w in range(2, 7)], "l": 2, "s": 2},
                          ["host", "pattern", "copies", "l", "s"],
                          [("l",), ("s",), ("host", "n"), ("pattern", "n")]),
    ("embed", "asym"): ({"host": _HOST, "template": _PATH3, "thresholds": _THRESHOLDS},
                       ["host", "template"],
                       [("host", "s"), ("host", "n"), ("template", "n"),
                        ("thresholds", "c_hs"), ("thresholds", "m_blow")]),
    ("check", "badset"): ({"graph": {"n": 6, "edges": [[0, i] for i in range(1, 6)]},
                          "w": [1, 2, 3], "c": "2/3"},
                         ["graph", "w", "c"], [("c",), ("graph", "n")]),
    ("check", "rich"): ({"graph": {"n": 8,
                                   "edges": [[i, j] for i in range(4) for j in range(4, 8)]},
                        "x": [0, 1, 2, 3], "y": [4, 5, 6, 7], "c": 1, "s": 2},
                       ["graph", "x", "y", "c", "s"], [("c",), ("s",), ("graph", "n")]),
    ("check", "kst"): ({"n": 4, "edges": [[0, 1], [1, 2]],
                        "partition": {"X": [0, 2], "Y": [1, 3]}, "s": 2},
                       ["n", "s"], [("n",), ("s",)]),
    ("check", "regularize"): ({"graph": {"n": 8, "edges": [[i, (i + 1) % 8] for i in range(8)]
                                         + [[i, (i + 2) % 8] for i in range(8)]},
                               "alpha": "1/2", "c": "1/4"},
                              ["graph", "alpha", "c"], [("alpha",), ("c",), ("graph", "n")]),
}

# The graph object whose vertices each instance's vertex-id lists name, and
# the paths of those lists, which lie outside the graph objects;
# ("rich_sets", 0) is read only when the instance carries "rich_sets".
_VERTEX_LISTS = {
    ("check", "badset"): (("graph",), [("w",)]),
    ("check", "rich"): (("graph",), [("x",), ("y",)]),
    ("embed", "keylemma"): (("host",), [("parts", "0"), ("parts", "2"), ("rich_sets", 0)]),
    ("embed", "extract"): (("host",), [("copies", 0), ("copies", 4)]),
}

_SMALL = st.integers(-2, 9)
_NON_OBJECTS = st.one_of(st.lists(_SMALL, max_size=3), _SMALL, st.text(max_size=3), st.booleans())
_NON_NUMBERS = st.sampled_from(["x", "", "1/0", [1], {}, None, 2.5, True])


def run_stdin(argv, doc):
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--input", "-"])
    return code, out.getvalue()


def _nodes(doc, path=()):
    """Paths of every JSON object below the root of doc."""
    for key, val in doc.items():
        if isinstance(val, dict):
            yield path + (key,)
            yield from _nodes(val, path + (key,))


def _set(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _carrying(doc, path):
    """doc, given the optional "rich_sets" list when path is inside it."""
    return dict(doc, rich_sets=[[0, 1], [2, 3]]) if path[0] == "rich_sets" else doc


def _spoil_id(draw, doc, path, bad=(True, 2.5)):
    """doc with one member of the id list at path replaced by a value drawn
    from bad: by default a boolean or a non-integral number."""
    ids = list(_get(doc, path))
    ids[draw(st.integers(0, len(ids) - 1))] = draw(st.sampled_from(bad))
    return _set(doc, path, ids)


def _graph_paths(doc):
    """Paths of every graph object of doc, the document itself included."""
    return [p for p in [(), *_nodes(doc)] if "edges" in _get(doc, p)]


def _label_paths(doc):
    """Paths of the roots and both partition sides of every graph object of doc."""
    graphs = _graph_paths(doc)
    return ([p + ("roots",) for p in graphs if "roots" in _get(doc, p)]
            + [p + ("partition", side) for p in graphs if "partition" in _get(doc, p)
               for side in ("X", "Y")])


@st.composite
def malformed_inputs(draw):
    argv = draw(st.sampled_from(sorted(VALID_INPUTS)))
    doc, required, numeric = VALID_INPUTS[argv]
    how = draw(st.sampled_from(["document", "drop", "object", "number", "edge", "vertex",
                                "label"]))
    if how == "document":
        return argv, draw(st.one_of(_NON_OBJECTS, st.none()))
    if how == "drop":
        key = draw(st.sampled_from(required))
        return argv, {k: v for k, v in doc.items() if k != key}
    if how == "object":
        return argv, _set(doc, draw(st.sampled_from(list(_nodes(doc)))), draw(_NON_OBJECTS))
    if how == "number":
        return argv, _set(doc, draw(st.sampled_from(numeric)), draw(_NON_NUMBERS))
    if how == "label":
        # one root or partition-side vertex id of a graph object becomes a
        # boolean or a non-integral number
        labels = _label_paths(doc)
        assume(labels)
        return argv, _spoil_id(draw, doc, draw(st.sampled_from(labels)))
    if how == "vertex" and argv in _VERTEX_LISTS and draw(st.booleans()):
        # one member of a vertex-id list outside the graph objects, likewise,
        # or an id just past either end of the graph it names
        graph, lists = _VERTEX_LISTS[argv]
        path = draw(st.sampled_from(lists))
        doc = _carrying(doc, path)
        return argv, _spoil_id(draw, doc, path, (True, 2.5, -1, _get(doc, graph)["n"]))
    path = draw(st.sampled_from(_graph_paths(doc)))
    if how == "vertex":
        # a graph's n (its edges dropped, so no range check fires first) or
        # one edge endpoint becomes a boolean or a non-integral number
        value = draw(st.sampled_from([True, 2.5]))
        edges = _get(doc, path)["edges"]
        at = draw(st.integers(-1, len(edges) - 1))
        if at < 0:
            return argv, _set(_set(doc, path + ("edges",), []), path + ("n",), value)
        edge = list(edges[at])
        edge[draw(st.integers(0, 1))] = value
        return argv, _set(doc, path + ("edges",), edges[:at] + [edge] + edges[at + 1:])
    n = _get(doc, path)["n"]
    bad = draw(st.sampled_from([[], [0], [0, 1, 2], 0, "ab", [0, n], [-1, 0], [1, 1]]))
    edges = _get(doc, path)["edges"]
    at = draw(st.integers(0, len(edges)))
    return argv, _set(doc, path + ("edges",), edges[:at] + [bad] + edges[at:])


# Every (command, graph object) pair, and every (command, vertex-id list)
# pair: the roots and partition sides of the graph objects and the lists of
# _VERTEX_LISTS.  The deterministic cases below break each one, whichever
# branches the fuzz draws.
_GRAPHS = [(argv, path) for argv in sorted(VALID_INPUTS)
           for path in _graph_paths(VALID_INPUTS[argv][0])]
_ID_LISTS = [(argv, path) for argv in sorted(VALID_INPUTS)
             for path in _label_paths(VALID_INPUTS[argv][0])]
_ID_LISTS += [(argv, path) for argv, (_, paths) in sorted(_VERTEX_LISTS.items()) for path in paths]


# The path of every required field of every instance: the listed top-level
# fields, each graph object's "n", the "s" of a host and the "roots" of a
# pattern, and both partition sides where the instance gives them.
_REQUIRED = sorted(
    {(argv, (key,)) for argv, (_, required, _) in VALID_INPUTS.items() for key in required}
    | {(argv, p + (key,)) for argv, (doc, _, _) in VALID_INPUTS.items()
       for p in _graph_paths(doc) for key in ("n", "s", "roots") if key in _get(doc, p)}
    | {(argv, p) for argv, (doc, _, _) in VALID_INPUTS.items()
       for p in _label_paths(doc) if "partition" in p})


class TestMalformedInputFuzz:
    @pytest.mark.parametrize("argv", sorted(VALID_INPUTS), ids="-".join)
    def test_valid_inputs_pass(self, argv):
        code, out = run_stdin(argv, VALID_INPUTS[argv][0])
        assert code == 0 and "error" not in json.loads(out)

    @settings(max_examples=200, deadline=None)
    @given(malformed_inputs())
    def test_malformed_input_is_domain_error(self, case):
        argv, doc = case
        code, out = run_stdin(argv, doc)
        assert code == 1
        assert set(json.loads(out)) == {"error", "message"}

    @pytest.mark.parametrize("argv, graph, path",
                             [(argv, graph, path) for argv, (graph, paths) in _VERTEX_LISTS.items()
                              for path in paths],
                             ids=lambda v: "-".join(map(str, v)))
    @pytest.mark.parametrize("end", ["low", "high"])
    def test_vertex_id_past_either_end(self, argv, graph, path, end):
        # the first id of the list becomes -1 or the named graph's n
        doc = _carrying(VALID_INPUTS[argv][0], path)
        ids = list(_get(doc, path))
        ids[0] = -1 if end == "low" else _get(doc, graph)["n"]
        code, out = run_stdin(argv, _set(doc, path, ids))
        assert code == 1
        assert set(json.loads(out)) == {"error", "message"}

    @pytest.mark.parametrize("argv, path", _ID_LISTS, ids=lambda v: "-".join(map(str, v)))
    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_bad_id_in_every_id_list(self, argv, path, bad):
        # the first id of the list becomes a boolean or a non-integral number
        doc = _carrying(VALID_INPUTS[argv][0], path)
        ids = list(_get(doc, path))
        ids[0] = bad
        code, out = run_stdin(argv, _set(doc, path, ids))
        assert code == 1
        assert set(json.loads(out)) == {"error", "message"}

    @pytest.mark.parametrize("argv, graph", _GRAPHS,
                             ids=lambda v: "-".join(map(str, v)) or "document")
    @pytest.mark.parametrize("bad", ["bool", "range"])
    def test_bad_edge_in_every_edge_list(self, argv, graph, bad):
        # an edge with a boolean endpoint, or one past the graph's end, goes first
        doc = VALID_INPUTS[argv][0]
        g = _get(doc, graph)
        edge = [0, True] if bad == "bool" else [0, g["n"]]
        code, out = run_stdin(argv, _set(doc, graph + ("edges",), [edge, *g["edges"]]))
        assert code == 1
        assert set(json.loads(out)) == {"error", "message"}

    @pytest.mark.parametrize("argv, path", _REQUIRED, ids=lambda v: "-".join(v))
    def test_missing_field_is_named(self, argv, path):
        # dropping a field the command reads is a ValueError that names it
        doc = json.loads(json.dumps(VALID_INPUTS[argv][0]))
        del _get(doc, path[:-1])[path[-1]]
        code, out = run_stdin(argv, doc)
        assert (code, json.loads(out)) == (1, {"error": "ValueError",
                                               "message": f"missing field {path[-1]!r}"})

    @pytest.mark.parametrize("sides, code", [(([0, 2], [1]), 0), (([0, 2.0], [1]), 0),
                                             (([0, 2], [True]), 1), (([0, 2.5], [1]), 1)])
    def test_template_sides_are_integer_fields(self, sides, code):
        argv = ("embed", "keylemma")
        doc = VALID_INPUTS[argv][0]
        template = dict(doc["template"], A=sides[0], B=sides[1])
        assert run_stdin(argv, dict(doc, template=template))[0] == code


# --- the JSON writer -----------------------------------------------------------------

def _json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
               | st.floats() | st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "é✓𝄞"]))
    int_lists = st.lists(st.integers() | st.booleans(), max_size=6)

    def containers(children):
        keys = st.text(max_size=4) | st.integers(-3, 3)
        return (st.lists(children, max_size=4)
                | st.lists(children, max_size=4).map(tuple)
                | int_lists | int_lists.map(tuple)
                | st.dictionaries(st.text(max_size=4), children, max_size=4)
                | st.dictionaries(st.integers(-300, 300), children, max_size=4)
                | st.dictionaries(keys, children, max_size=3)
                | st.dictionaries(st.none() | st.booleans() | st.floats(), children, max_size=2))

    return st.recursive(scalars, containers, max_leaves=30)


class _IntSubclass(int):
    """An int whose repr is not its JSON text: json writes int.__repr__."""

    def __repr__(self):
        return "subclass"


@st.composite
def _row_values(draw):
    """Lists of integer rows, the writer's chunked path: k ints per row, or
    ragged or empty rows; each row a list or a tuple; now and then a bool or
    an int subclass; the list alone, under dict keys or in a list."""
    ints = st.integers() | st.integers(-2 ** 80, 2 ** 80)
    if draw(st.booleans()):
        ints = ints | st.booleans() | st.integers(-9, 9).map(_IntSubclass)
    k = draw(st.integers(0, 4))
    size = st.integers(0, 4) if draw(st.booleans()) else st.just(k)
    rows = draw(st.lists(size.flatmap(lambda n: st.lists(ints, min_size=n, max_size=n)),
                         min_size=1, max_size=12))
    rows = [tuple(r) if draw(st.booleans()) else r for r in rows]
    return draw(st.sampled_from([rows, {"n": len(rows), "edges": rows},
                                 {"witness": {"edges": rows}}, [rows, rows[:1]]]))


def _writer_outcome(dump, value):
    try:
        return dump(value)
    except TypeError:  # a dict mixing key types fails to sort, in either writer
        return TypeError


def _written(value) -> str:
    out = io.StringIO()
    commands._dump(value, out)
    return out.getvalue()


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(_json_values())
    def test_bytes_of_json_dumps(self, value):
        want = _writer_outcome(lambda v: json.dumps(v, sort_keys=True, indent=2) + "\n", value)
        assert _writer_outcome(_written, value) == want

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), [1, 2, Fraction(1, 2)], (3, Fraction(1, 2)), {"a": Fraction(1)},
        {Fraction(1, 2): 1}, {(1, 2): 3}, [{1, 2}], {"a": [[0, 1], b"x"]},
    ])
    def test_unserialisable_raises(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _written(value)

    @settings(max_examples=300, deadline=None)
    @given(_row_values())
    def test_rows_bytes_of_json_dumps(self, value):
        assert _written(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_chunked_rows(self):
        # rows that grow from 1 to 60 digits, over many chunks: each chunk is
        # sized from the one before it, so no write passes the batch size
        rows = [[i, -i, 7 ** (i // 40)] if i % 3 else (i, -i, 7 ** (i // 40))
                for i in range(3000)]
        value = {"count": len(rows), "copies": rows}
        writes = []
        commands._dump(value, mock.Mock(write=writes.append))
        assert "".join(writes) == json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert len(writes) > 10 and max(map(len, writes)) <= commands._BATCH

    def test_batched_writes(self):
        # 3,000 integer lists: several writes, each about the batch size
        value = {"count": 3000, "copies": [(i, i + 1, 10 ** 9 + i) for i in range(3000)]}
        writes = []
        commands._dump(value, mock.Mock(write=writes.append))
        assert "".join(writes) == json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert len(writes) > 2 and max(map(len, writes)) < commands._BATCH + 100
