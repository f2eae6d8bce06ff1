"""Command-line interface: the parser, dispatch and the exit-code policy.

The arguments are parsed before anything else loads: at module level this
file imports only argparse, os and sys, so `--help`, a subcommand's `--help`
and a usage error load neither json nor any indturan module but the package
and this one.  Once the arguments parse, `main` imports `indturan.commands`
and runs the handler its `HANDLERS` table names for the command path; the
handler's payload is written as JSON by `commands._dump`.

Exit codes: 0 success, 1 domain error (printed as an {"error", "message"}
object), 2 usage error (argparse), 3 internal fault: a re-check failed
(DisprovesLemma, CertificateInvalid among them), which means a bug, printed
like a domain error.  A closed stdout exits 1, the rest of the output
dropped, no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="indturan",
        description="Rooted families, density exponents, exhaustive extremal "
                    "oracles, and executable embedding procedures.")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for any randomized search (default 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="build a descriptor and report its density")
    p.add_argument("descriptor")
    p.set_defaults(job="family")

    p = sub.add_parser("rho", help="incident-edge density of a rooted descriptor")
    p.add_argument("descriptor")
    p.set_defaults(job="rho")

    p = sub.add_parser("balanced", help="balancedness of a rooted descriptor")
    p.add_argument("descriptor")
    p.set_defaults(job="balanced")

    p = sub.add_parser("realize", help="derive and verify a certificate for b/a")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--l", type=int, default=2, help="power multiplicity (default 2)")
    p.set_defaults(job="realize")

    p = sub.add_parser("sweep", help="enumerate realizable pairs up to bounds")
    p.add_argument("a_max", type=int)
    p.add_argument("b_max", type=int)
    p.add_argument("--l", type=int, default=2)
    p.set_defaults(job="sweep")

    p = sub.add_parser("extremal", help="exhaustive extremal value at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--pattern", required=True, help="descriptor of the pattern")
    p.add_argument("--mode", choices=["star", "classical", "bip"], default="star")
    p.add_argument("--budget", type=int,
                   help="largest n searched (default: the mode's own budget)")
    p.set_defaults(job="extremal")

    p = sub.add_parser("embed", help="run an embedding procedure on a JSON instance")
    esub = p.add_subparsers(dest="procedure", required=True)
    for name in ("tree", "keylemma", "extract", "asym"):
        q = esub.add_parser(name)
        q.add_argument("--input", required=True, help="JSON instance file, or - for stdin")
        q.set_defaults(job=f"embed {name}")

    p = sub.add_parser("check", help="run a counting or inequality check")
    csub = p.add_subparsers(dest="check_kind", required=True)
    for name in ("badset", "rich", "kst", "regularize"):
        q = csub.add_parser(name)
        q.add_argument("--input", required=True, help="JSON instance file, or - for stdin")
        q.set_defaults(job=f"check {name}")

    p = sub.add_parser("export", help="write a descriptor as JSON or DOT")
    p.add_argument("descriptor")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", default="-")
    p.set_defaults(job="export")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Only a job gets here: --help and usage errors have exited.
    from . import commands
    from .errors import DisprovesLemma, IndturanError
    try:
        try:
            payload = commands.HANDLERS[args.job](args)
            if payload is not None:
                commands._dump(payload)
            return 0
        except BrokenPipeError:
            raise
        except (IndturanError, ValueError, KeyError, TypeError, OSError) as exc:
            commands._dump({"error": type(exc).__name__, "message": str(exc)})
            return 3 if isinstance(exc, DisprovesLemma) else 1
        finally:
            sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: drop the rest, exit flush included
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
