"""The benchmark's workloads: fixed lists of CLI jobs, each with its check.

Why these workloads (sizes measured on a 2-core machine, CPython 3.11):

* extremal -- the exhaustive oracles (`oracles`, with `graph` rebuilding a
  Graph per extension).  The pattern is C6, not C4: with s = 2, "no K_{2,2}
  and no induced C4" is the same search as classical C4, so C4 would time one
  code path twice.  Star runs at n = 8; classical and bip run at n = 6 (not
  7, which take 3 s and 6 s) so that a run holds several passes: on a shared
  machine single passes vary by 20% or more, and only a median over many
  passes is steady.
* certify -- many small balancedness checks: every certificate is verified
  in `derive` and once more by `sweep`, so `density` and `realizability`
  dominate.
* balance -- the opposite use of `density`: two q = 18 checks of 2^18
  subsets each.  A balancedness algorithm with per-call set-up cost would win
  here and could lose on `certify`.
* embed -- the only workload in which `embeddings` works, on bench-generated
  instances whose answers are known by construction (`instances.py`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import instances

WORKLOADS = ("extremal", "certify", "balance", "embed")


@dataclass(frozen=True)
class Job:
    name: str
    args: list[str]
    check: Callable[[dict], dict]


def _extremal(mode: str, n: int, s: int | None, pattern: str, value: int) -> Job:
    args = ["extremal", "--mode", mode, "--n", str(n), "--pattern", pattern]
    if s is not None:
        args += ["--s", str(s)]
    return Job(f"extremal-{mode}", args,
               partial(checks.check_extremal, mode=mode, n=n, s=s, value=value))


def _family(l: int, density: dict) -> Job:
    return Job("family", ["family", f"power:base=(path:len=4),l={l}"],
               partial(checks.check_family, density=density, n=2 + 3 * l))


def _balanced(l: int) -> Job:
    return Job("balanced", ["balanced", f"power:base=(Trt:r=2,t=3),l={l}"],
               partial(checks.check_balanced, base={"kind": "height_two", "r": 2, "t": 3},
                       l=l, witness=[6]))


def _embed(proc: str, seed: int, work: Path, instance, check, cli_seed: bool = False) -> Job:
    """Write a generated (spec, expected) instance before timing; the job
    reads the spec back, and the check compares against `expected`."""
    spec, expected = instance
    path = work / f"{proc}-{seed}.json"
    path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
    args = (["--seed", str(seed)] if cli_seed else []) + ["embed", proc, "--input", str(path)]
    return Job(f"embed-{proc}", args, partial(check, spec=spec, expected=expected))


BALANCED_PATH_POWER = {"balanced": True, "exponent": "5/4", "rho": "4/3", "witness": None}


def build(workload: str, seed: int, tiny: bool, work: Path) -> list[Job]:
    """The jobs of a workload; `tiny` shrinks every job for the self-test."""
    if workload == "extremal":
        if tiny:
            return [_extremal("star", 6, 2, "theta:len=3,t=2", 7),
                    _extremal("classical", 5, None, "theta:len=3,t=2", 10),
                    _extremal("bip", 5, 3, "theta:len=2,t=2", 6)]
        return [_extremal("star", 8, 2, "theta:len=3,t=2", 11),
                _extremal("classical", 6, None, "theta:len=3,t=2", 11),
                _extremal("bip", 6, 3, "theta:len=2,t=2", 8)]
    if workload == "certify":
        a_max, b_max, (a, b, l) = (3, 10, (2, 5, 2)) if tiny else (7, 50, (5, 26, 3))
        return [Job("sweep", ["sweep", str(a_max), str(b_max)],
                    partial(checks.check_sweep, a_max=a_max, b_max=b_max, l=2)),
                Job("realize", ["realize", str(a), str(b), "--l", str(l)],
                    partial(checks.check_realize, a=a, b=b, l=l))]
    if workload == "balance":
        l = 3 if tiny else 6
        return [_family(l, BALANCED_PATH_POWER), _balanced(l)]
    if workload == "embed":
        rng = random.Random(seed)
        q, (nx, ny, deg), (lam, l, s) = (2, (20, 50, 6), (10, 3, 2)) if tiny \
            else (5, (120, 120, 9), (28, 6, 3))
        return [
            _embed("tree", seed, work, instances.tree_instance(q, rng), checks.check_tree),
            _embed("asym", seed, work, instances.asym_instance(nx, ny, deg, rng),
                   checks.check_asym, cli_seed=True),
            _embed("extract", seed, work, instances.extract_instance(lam, l, s, rng),
                   checks.check_extract),
        ]
    raise ValueError(f"unknown workload {workload!r}")
