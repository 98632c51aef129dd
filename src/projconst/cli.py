"""Command-line front end.

Data goes to standard output as JSON (full float precision, bit-exact on
re-parse); human-readable summaries go to standard error so pipelines
stay clean.  Exit codes: 0 success, 1 usage/input error, 2 guard refusal,
3 resource error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import almostmin, blowup, rationalize, relproj, search, seeds
from .errors import (GuardRefusal, PreconditionError, ProjconstError,
                     ResourceExhausted)
from .eigsum import cucc_selection
from .matcore import (_as_square_array, _json_array, matrix_from_json,
                      matrix_to_json, sign_matrix_of, validate_projection)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_RESOURCE = 3

# A search value this close to etf_bound attains it, so it is Pi(n, d).
_ATTAINED_TOL = 1e-12


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj: dict, out: str | None) -> None:
    # the file first, so that a failed write leaves stdout empty
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_projection(spec: str, tol: float):
    if spec in seeds.SEEDS or not os.path.exists(spec):
        mat = seeds.get_seed(spec).entries  # unknown names list the seeds
    else:
        obj = _load_json(spec)
        # A search --out file holds the projection under "P".
        mat = (_json_array(obj["P"], "search result P")
               if isinstance(obj, dict) and "P" in obj
               else matrix_from_json(obj))
    mat = _as_square_array(mat, "projection")
    with np.errstate(over="ignore"):
        trace = float(np.trace(mat))
    if not np.isfinite(trace):
        raise PreconditionError(f"projection trace {trace} is not finite")
    return validate_projection(mat, round(trace), tol)


def _add_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="also write the JSON result to this file")


def _add_validation_tol(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="projection validation tolerance (default 1e-9)")


def _cmd_search(args) -> int:
    if args.exhaustive:
        result = search.exhaustive_pi(args.n, args.d, restarts=args.restarts)
        mode = "exhaustive"
    else:
        result = search.alternating_pi(args.n, args.d, restarts=args.restarts)
        mode = "alternating"
    bound = search.etf_bound(args.n, args.d)
    status = ("attained" if abs(result.value - bound) <= _ATTAINED_TOL
              else "lower bound")
    _note(f"search n={args.n} d={args.d} ({mode}): value {result.value!r} "
          f"({status}), bound {bound!r}, "
          f"converged={result.converged}; {result.runs} ascent runs, "
          f"{result.ascent_iterations} iterations, "
          f"{result.nonconverged} not converged")
    _emit(result.to_json(), args.out)
    return EXIT_OK


def _cmd_almost_min(args) -> int:
    seed = _load_projection(args.seed, args.tol)
    result = almostmin.almost_minimal(args.n, args.eps, seed)
    _note(f"almost-min n={args.n} eps={args.eps}: d={result.d}, "
          f"rho={result.cert.rho!r}, gap_rows={result.cert.gap_rows!r}, "
          f"seed_gap={result.seed_gap!r}, converged={result.converged}, "
          f"witness={result.cert.witness_kind}")
    _emit(result.to_json(include_matrices=args.matrices), args.out)
    return EXIT_OK


def _cmd_relproj(args) -> int:
    basis = relproj.SubspaceBasis.from_json(_load_json(args.basis))
    res = relproj.min_projection_norm(basis, args.space)
    out = {"space": args.space, "d": basis.d, "n": basis.n,
           "value": res.value, "Q": matrix_to_json(res.Q)["rows"]}
    note = (f"relproj {args.space}: value {res.value!r}, dual bound "
            f"{res.witness.value!r}, {res.pivots} pivots, "
            f"{res.refactorizations} refactorizations")
    if args.certify:
        witness = matrix_from_json(_load_json(args.certify))
        cert = relproj.trace_certificate(witness,
                                         basis.orthogonal_projection(),
                                         args.space)
        out["witness_value"] = cert.value
        note += f", witness {cert.value!r}"
    _note(note)
    _emit(out, args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    p = _load_projection(args.seed, args.tol)
    cert = almostmin.certify(p)
    _note(f"certify d={p.d} n={p.n}: rho={cert.rho!r}, "
          f"gap_rows={cert.gap_rows!r}, witness={cert.witness_kind}")
    _emit(cert.to_json(), args.out)
    return EXIT_OK


def _cmd_eigsum(args) -> int:
    mat = matrix_from_json(_load_json(args.matrix))
    sel = cucc_selection(mat, args.n)
    value = -np.inf if sel is None else sel.value
    out = {"n": args.n, "value": value,
           "indices": None if sel is None else list(sel.indices)}
    _note(f"eigsum n={args.n}: value {value!r}")
    _emit(out, args.out)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    base_arr = matrix_from_json(_load_json(args.base))
    base = sign_matrix_of(base_arr, args.tol)
    mult = tuple(int(x) for x in args.multiplicities.split(","))
    spec = blowup.BlowupSpec(base, mult)
    big = blowup.blow_up(spec)
    weighted = blowup.weighted_equivalent(spec)
    out = {"d": spec.d, "multiplicities": list(mult),
           "S": matrix_to_json(big)["rows"],
           "weighted": matrix_to_json(weighted)["rows"]}
    _note(f"blowup m={spec.m} -> d={spec.d}")
    _emit(out, args.out)
    return EXIT_OK


def _cmd_dirichlet(args) -> int:
    weights = [float(x) for x in args.weights.split(",")]
    result = rationalize.dirichlet_approx(weights, args.k, q_cap=args.q_cap)
    out = {"p": list(result.p), "q": result.q, "k": result.k,
           "max_err": result.max_err, "total_err": result.total_err}
    _note(f"dirichlet k={args.k}: q={result.q}, p={list(result.p)}")
    _emit(out, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on the first call and shared after it.

    Sharing is safe: every ``parse_args`` returns a fresh Namespace, and
    no action keeps state (no ``append`` lists).  Help and errors go to
    the ``sys.stdout`` / ``sys.stderr`` current when they are printed.
    """
    parser = _Parser(prog="projconst",
                     description="projection constants of subspaces of "
                                 "l1^d / linf^d: search, certificates, and "
                                 "almost-minimal projections")
    subs = parser.add_subparsers(dest="command", required=True)
    seed_names = ", ".join(seeds.SEEDS)

    p = subs.add_parser("search", help="maximize pi_n(sqrt(D) S sqrt(D))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--alternating", dest="exhaustive",
                      action="store_false")
    p.add_argument("--restarts", type=int, default=5)
    _add_out(p)
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("almost-min",
                        help="build and certify an almost-minimal projection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", required=True,
                   help=f"seed name ({seed_names}) or matrix JSON file")
    p.add_argument("--matrices", action="store_true",
                   help="include the dense P and S in the JSON output "
                        "(d <= 4096; exit 3 above)")
    _add_validation_tol(p)
    _add_out(p)
    p.set_defaults(func=_cmd_almost_min)

    p = subs.add_parser("relproj",
                        help="minimal projection norm onto a subspace (LP)")
    p.add_argument("--space", choices=("l1", "linf"), required=True)
    p.add_argument("--basis", required=True, help="subspace basis JSON file")
    p.add_argument("--certify", help="witness matrix JSON file to verify")
    _add_out(p)
    p.set_defaults(func=_cmd_relproj)

    p = subs.add_parser("certify", help="row-sum/duality certificate")
    p.add_argument("--seed", required=True,
                   help=f"seed name ({seed_names}) or projection matrix "
                        "JSON file")
    _add_validation_tol(p)
    _add_out(p)
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("eigsum",
                        help="best conjugation-closed eigenvalue sum")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_eigsum)

    p = subs.add_parser("blowup", help="blow up a sign matrix")
    p.add_argument("--base", required=True, help="sign matrix JSON file")
    p.add_argument("--multiplicities", required=True,
                   help="comma-separated positive integers "
                        "(d <= 4096; exit 3 above)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="sign zero threshold: base entries within "
                        "[-tol, tol] count as zeros and become +1 "
                        "(default 1e-9)")
    _add_out(p)
    p.set_defaults(func=_cmd_blowup)

    p = subs.add_parser("dirichlet",
                        help="simultaneous rational approximation of weights")
    p.add_argument("--weights", required=True,
                   help="comma-separated positive weights summing to 1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cap", type=int, default=None)
    _add_out(p)
    p.set_defaults(func=_cmd_dirichlet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GuardRefusal as exc:
        _note(f"refused: {exc}")
        return EXIT_GUARD
    except ResourceExhausted as exc:
        _note(f"resource error: {exc}")
        return EXIT_RESOURCE
    except ProjconstError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _note(f"input error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
