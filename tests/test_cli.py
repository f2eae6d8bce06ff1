import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from indturan import cli, density
from indturan.errors import DisprovesLemma

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

    def test_template_descriptor(self, capsys):
        code, d = run_json(capsys, "family", "Kst:s=2,t=3")
        assert code == 0 and d["graph"]["n"] == 5
        assert "density" not in d  # unrooted template has no root density


class TestRealizeSweep:
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

    def test_budget_guard(self, capsys):
        code, d = run_json(capsys, "extremal", "--n", "12", "--s", "2",
                           "--pattern", "theta:len=2,t=2", "--mode", "star")
        assert code == 1 and d["error"] == "TooLarge"


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

    def test_rich(self, capsys, tmp_path):
        spec = {"graph": {"n": 8,
                          "edges": [[i, j] for i in range(4) for j in range(4, 8)]},
                "x": [0, 1, 2, 3], "y": [4, 5, 6, 7], "c": 1, "s": 2}
        p = tmp_path / "rich.json"
        p.write_text(json.dumps(spec))
        code, d = run_json(capsys, "check", "rich", "--input", str(p))
        assert code == 0 and d["rich_set"] == [0, 1]

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


class TestExport:
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

    def test_threads_flag_accepted_and_identical(self):
        base = [sys.executable, "-m", "indturan.cli", "--seed", "3"]
        seq = subprocess.run(base + ["sweep", "3", "12"],
                             capture_output=True, cwd=ROOT, env=ENV)
        par = subprocess.run(base + ["--threads", "4", "sweep", "3", "12"],
                             capture_output=True, cwd=ROOT, env=ENV)
        assert seq.returncode == par.returncode == 0
        assert seq.stdout == par.stdout
