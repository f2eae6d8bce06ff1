"""Whole-CLI benchmark for indturan.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI jobs (see `jobs.py`).  A job runs as a
fresh `python -m indturan.cli ...` process with the absolute `src` directory
on PYTHONPATH; jobs run one at a time from this process (a closed loop with
one client).  A pass runs every job of the workload once, and passes repeat
until the next one would end after S seconds (at least one pass).  Every job's
stdout is checked independently (`checks.py`) and must be byte-identical to
the job's first run.

With --trace 0 the last stdout line reports the end-to-end metrics: setup_s
(median start-up of `indturan --help`, taken a few times before every pass so
that the samples span the whole run), wall_s (median pass time, process
starts included) and peak_rss_mb (median over passes of the largest
ru_maxrss).  With --trace 1 one untraced pass is followed by traced passes
(`traced.py`), and the last line reports the per-layer metrics.  The line
before it is a run record: interpreter, nproc, commit, seed, src/ line count,
a calibration loop timed at start and end, the failure rate, work counts and
the tracing overhead.  Metric units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs
from checks import CheckFailed
from traced import summarize

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
RUN_LIMIT_S = 170.0       # a run must exit within 180 s
JOB_TIMEOUT_S = 120.0
SETUP_PER_PASS = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


class Run:
    """One benchmark run: its deadline, job environment and tallies."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []

    def spawn(self, argv: list[str], out_path: Path) -> tuple[float, int, int, bytes]:
        """Run one process; returns (wall seconds, ru_maxrss KiB, exit status,
        stdout).  stdout and stderr go to files, so no pipe can fill up."""
        timeout = max(1.0, min(JOB_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - self.t0)))
        with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORK, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, code, out_path.read_bytes()


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "indturan.cli", *args]


def start_cli(run: Run) -> float:
    """Start-up time of `indturan --help`: importing all seven modules and
    building the parser."""
    wall, _, code, out = run.spawn(cli_argv(["--help"]), WORK / "setup.out")
    if code != 0 or not out.startswith(b"usage:"):
        raise SystemExit(f"indturan --help failed with exit status {code}")
    return wall


def run_pass(run: Run, work: list[jobs.Job], first: dict, traced: bool, tag: str) -> dict:
    """Run every job once; check each.  Returns per-pass totals.

    `first` holds each job's first stdout, and for traced passes its first
    call counts: a job whose output bytes or work counts differ from its first
    run fails, so a speedup cannot hide less work."""
    walls = {}
    peak = 0
    results = []
    for job in work:
        out_path = WORK / f"{job.name}.out"
        argv = cli_argv(job.args)
        if traced:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced.py"),
                    str(out_path.with_suffix(".spans")), *job.args]
        walls[job.name], rss, code, stdout = run.spawn(argv, out_path)
        peak = max(peak, rss)
        run.attempted += 1
        results.append((job, code, stdout, out_path))
    counts: dict = {}
    spans = []
    stdout_bytes = 0
    for job, code, stdout, out_path in results:
        stdout_bytes += len(stdout)
        try:
            if code != 0:
                raise CheckFailed(f"exit status {code}: "
                                  f"{out_path.with_suffix('.err').read_text()[-300:]}")
            if first.setdefault(job.name, stdout) != stdout:
                raise CheckFailed("stdout differs from the job's first run")
            for key, value in job.check(json.loads(stdout)).items():
                counts[key] = counts.get(key, 0) + value
            if traced:
                per_name, job_counts = summarize(str(out_path.with_suffix(".spans")))
                work_done = ({n: a["calls"] for n, a in per_name.items()}, job_counts)
                if first.setdefault(("work", job.name), work_done) != work_done:
                    raise CheckFailed("work counts differ from the job's first traced run")
                spans.append((per_name, job_counts))
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            run.failures.append(f"{tag} {job.name}: {type(exc).__name__}: {exc}")
    return {"wall_s": sum(walls.values()), "job_s": walls, "peak_rss_mb": peak / 1024,
            "counts": counts, "stdout_bytes": stdout_bytes, "spans": spans}


def repeat_passes(run: Run, work, first, traced: bool, until: float, prefix: str,
                  setup: bool = False) -> list[dict]:
    """Passes until the next one would end after time `until` (at least one).
    With `setup`, each pass starts with SETUP_PER_PASS timed CLI start-ups."""
    passes = []
    while True:
        t = time.perf_counter()
        if setup:
            run.setup_s += [start_cli(run) for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(run, work, first, traced, f"{prefix}{len(passes)}"))
        now = time.perf_counter()
        if run.failures or now + (now - t) > until:
            return passes


def calibrate() -> float:
    """Time of a fixed pure-Python loop, so machine-speed drift shows in the
    run record."""
    t = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    stats: dict = {}
    counts: dict = {}
    for per_name, job_counts in p["spans"]:
        for name, agg in per_name.items():
            tot = stats.setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                tot[k] += v
        for k, v in job_counts.items():
            counts[k] = max(counts.get(k, 0), v) if k.endswith("max_q") else counts.get(k, 0) + v

    def calls(span):
        return stats.get(span, {}).get("calls", 0)

    def incl(span):
        return stats.get(span, {}).get("incl_s", 0.0)

    def own(span):
        return stats.get(span, {}).get("self_s", 0.0)

    certs = p["counts"].get("certificates", 0)
    return {
        "cli.self_s": own("cli.main"),
        "cli.stdout_bytes": p["stdout_bytes"],
        "graph.init_calls": calls("graph.init"),
        "graph.init_s": incl("graph.init"),
        "graph.bipartition_calls": calls("graph.bipartition"),
        "graph.bipartition_s": incl("graph.bipartition"),
        "families.parse_s": incl("families.parse"),
        "families.power_calls": calls("families.power"),
        "families.power_s": incl("families.power"),
        "families.attach_calls": calls("families.attach"),
        "families.attach_s": incl("families.attach"),
        "density.balance_calls": calls("density.balance"),
        "density.balance_s": incl("density.balance"),
        "density.balance_subsets": counts["density.balance_subsets"],
        "density.balance_max_q": counts["density.balance_max_q"],
        "density.rho_calls": calls("density.rho"),
        "density.rho_s": incl("density.rho"),
        "realizability.derive_calls": calls("realizability.derive"),
        "realizability.derive_self_s": own("realizability.derive"),
        "realizability.verify_calls": calls("realizability.verify"),
        "realizability.verify_self_s": own("realizability.verify"),
        "realizability.build_witness_calls": calls("realizability.build_witness"),
        "realizability.build_witness_s": incl("realizability.build_witness"),
        "realizability.verify_per_cert": ratio(calls("realizability.verify"), certs),
        "realizability.builds_per_cert": ratio(calls("realizability.build_witness"), certs),
        "oracles.explored": p["counts"].get("oracles.explored", 0),
        "oracles.extremal_self_s": own("oracles.extremal"),
        "oracles.iso_calls": calls("oracles.iso"),
        "oracles.iso_s": incl("oracles.iso"),
        "oracles.iso_hit_ratio": ratio(counts["oracles.iso_hits"], calls("oracles.iso")),
        "oracles.bip_check_calls": calls("oracles.bip_check"),
        "oracles.bip_check_s": incl("oracles.bip_check"),
        "oracles.verify_map_calls": calls("oracles.verify_map"),
        "oracles.verify_map_s": incl("oracles.verify_map"),
        "embeddings.tree_s": incl("embeddings.tree"),
        "embeddings.tree_copies": p["counts"].get("embeddings.tree_copies", 0),
        "embeddings.asym_self_s": own("embeddings.asym"),
        "embeddings.keylemma_calls": calls("embeddings.keylemma"),
        "embeddings.keylemma_s": incl("embeddings.keylemma"),
        "embeddings.keylemma_candidates": counts["embeddings.keylemma_candidates"],
        "embeddings.keylemma_success_ratio": ratio(counts["embeddings.keylemma_found"],
                                                   counts["embeddings.keylemma_candidates"]),
        "embeddings.badset_calls": calls("embeddings.badset"),
        "embeddings.badset_s": incl("embeddings.badset"),
        "embeddings.hall_calls": calls("embeddings.hall"),
        "embeddings.hall_s": incl("embeddings.hall"),
        "embeddings.extract_s": incl("embeddings.extract"),
    }


def ratio(num: float, den: float) -> float:
    """num/den, or 0 when the base is 0 (the base is reported beside it)."""
    return num / den if den else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run; returns (result object, run record)."""
    WORK.mkdir(parents=True, exist_ok=True)
    run = Run()
    calib_start = calibrate()
    start_cli(run)            # unmeasured: fills the bytecode cache
    work = jobs.build(workload, seed, tiny, WORK)
    first: dict = {}
    until = time.perf_counter() + seconds
    untraced = repeat_passes(run, work, first, False, 0 if trace else until, "u", not trace)
    traced = []
    if trace and not run.failures:
        traced = repeat_passes(run, work, first, True, until, "t")
    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        metrics = {}
        if traced and not run.failures:
            per_pass = [layer_metrics(p) for p in traced]
            for name in per_pass[0]:
                metrics[name] = {"value": statistics.median(m[name] for m in per_pass),
                                 "unit": UNITS[name]}
    else:
        values = {"setup_s": statistics.median(run.setup_s), "wall_s": wall,
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced)}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    failed = len(run.failures)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit(),
        "src_lines": src_lines(), "setup_s": run.setup_s or None,
        "job_s": [p["job_s"] for p in untraced],
        "calibration_s": {"start": calib_start, "end": calibrate()},
        "passes": {"untraced": [p["wall_s"] for p in untraced],
                   "traced": [p["wall_s"] for p in traced]},
        "fail_rate": failed / run.attempted,
        "failures": run.failures,
        "work": untraced[0]["counts"],
        "trace_overhead_s": statistics.median(p["wall_s"] for p in traced) - wall
        if traced else None,
    }
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "indturan" / "cli.py").is_file():
        print(f"no indturan sources under {SRC}", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
