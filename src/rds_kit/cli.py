"""Command-line interface; every subcommand emits one JSON report.

Exit codes: 0 success, 1 negative decision (e.g. not graphical), 2 usage or
input error, 3 exhaustive-search guard breach.  Reports echo the full
configuration including seeds, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import counting, oracle, paths
from .chain import default_burn_in, exact_kernel, run_chain, walk_chains
from .construct import greedy_construct
from .core import (
    ProblemInstance,
    Realization,
    instance_to_json,
    make_realization,
    validate_instance,
)
from .errors import NotGraphical, RdsKitError, TooLarge, ValidationError

SCHEMA = "rds-kit/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


class _CliFailure(Exception):
    def __init__(self, code: int, payload: dict):
        self.code = code
        self.payload = payload


class _UsageError(Exception):
    """An argument rejected by the parser; its usage text is already on stderr."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises _UsageError where it would exit, so main can report it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


_STR = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _scalar(value) -> str:
    """JSON text of a scalar as :func:`json.dumps` writes it, else TypeError."""
    if isinstance(value, str):
        return _STR(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode(value, pad: str, out: list[str]) -> None:
    """Append the text of `value` at indent `pad`, a newline and spaces, to `out`."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, v in sorted(value.items()):
            out.append(sep + _scalar(key if isinstance(key, str) else _scalar(key)) + ": ")
            sep = "," + inner
            _encode(v, inner, out)
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
        sep = "[" + inner
        for v in value:
            out.append(sep)
            sep = "," + inner
            # an edge [u, w], the bulk of every report, in one step
            if type(v) is list and len(v) == 2 and type(v[0]) is int is type(v[1]):
                out.append(pair % (v[0], v[1]))
            else:
                _encode(v, inner, out)
        out.append(pad + "]")
    else:
        out.append(_scalar(value))


def _dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    The standard library drops to its pure-Python encoder whenever an indent
    is set; this one skips its generators and writes each edge pair at once.
    """
    out: list[str] = []
    _encode(value, "\n", out)
    return "".join(out)


def _emit(payload: dict) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
            return json.loads(text)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _CliFailure(
            EXIT_USAGE,
            {
                "error": "malformed JSON",
                "path": path,
                "line": exc.lineno,
                "column": exc.colno,
                "message": exc.msg,
            },
        ) from None
    except OSError as exc:
        raise _CliFailure(EXIT_USAGE, {"error": str(exc), "path": path}) from None


def _load_instance(path: str) -> ProblemInstance:
    try:
        return validate_instance(_read_json(path))
    except ValidationError as exc:
        raise _CliFailure(
            EXIT_USAGE, {"error": type(exc).__name__, "message": str(exc)}
        ) from None


def _load_realization(inst: ProblemInstance, arg: str) -> Realization:
    """A realization from an inline JSON edge list or a file holding one."""
    if arg.lstrip().startswith(("[", "{")):
        try:
            data = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise _CliFailure(
                EXIT_USAGE, {"error": "malformed JSON", "message": exc.msg}
            ) from None
    else:
        data = _read_json(arg)
    pairs = data.get("edges") if isinstance(data, dict) else data
    if not isinstance(pairs, list) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
    ):
        raise _CliFailure(
            EXIT_USAGE,
            {"error": "BadRealization", "message": "expected an edge list of pairs"},
        )
    try:
        return make_realization(inst, pairs)
    except RdsKitError as exc:
        raise _CliFailure(
            EXIT_USAGE, {"error": type(exc).__name__, "message": str(exc)}
        ) from None


def _config_echo(args: argparse.Namespace) -> dict:
    keep = ("seed", "steps", "burn_in", "samples", "max_states", "max_delta")
    return {k: getattr(args, k) for k in keep if hasattr(args, k)}


def _cmd_check(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    real = greedy_construct(inst)
    payload = {"graphical": real is not None}
    return (EXIT_OK if real is not None else EXIT_NEGATIVE), payload


def _cmd_construct(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    real = greedy_construct(inst)
    if real is None:
        return EXIT_NEGATIVE, {"graphical": False}
    return EXIT_OK, {"graphical": True, "edges": real.to_pairs()}


def _cmd_sample(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    start = greedy_construct(inst)
    if start is None:
        return EXIT_NEGATIVE, {"graphical": False}
    steps = args.steps if args.steps is not None else default_burn_in(inst)
    ends = run_chain(inst, start, steps, args.seed, chains=args.samples)
    samples = [end.to_pairs() for end in ends]
    return EXIT_OK, {"samples": samples, "steps": steps, "warn_not_half_regular": not inst.half_regular}


def _cmd_enumerate(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    states = oracle.enumerate_all(inst, max_chords=args.max_delta)
    return EXIT_OK, {
        "count": str(len(states)),
        "realizations": [s.to_pairs() for s in states],
    }


def _cmd_count(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    if args.exact:
        report = counting.exact_count_report(inst)
        code = EXIT_OK if report.value else EXIT_NEGATIVE
        return code, report.to_json_dict()
    report = counting.approx_count(
        inst,
        samples_per_level=args.samples,
        burn_in=args.burn_in,
        seed=args.seed,
    )
    code = EXIT_OK if report.graphical else EXIT_NEGATIVE
    return code, report.to_json_dict()


def _cmd_distance(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    G = _load_realization(inst, args.from_real)
    H = _load_realization(inst, args.to_real)
    from .swaps import max_alternating_circuit_count

    delta = len(G.edges ^ H.edges)
    mc = max_alternating_circuit_count(G, H, max_delta=args.max_delta)
    # the formula of swaps.swap_distance, without searching a second time
    return EXIT_OK, {"weight": delta // 2 - mc, "delta": delta, "mc": mc}


def _cmd_kernel(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    try:
        report = exact_kernel(inst, max_states=args.max_states)
    except NotGraphical:
        return EXIT_NEGATIVE, {"graphical": False}
    return EXIT_OK, report.to_json_dict()


def _cmd_audit_paths(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    paths._require_audit_instance(inst)
    states = oracle.enumerate_all(inst, max_states=args.max_states)
    if not states:
        return EXIT_NEGATIVE, {"graphical": False}
    edge_lists = [s.to_pairs() for s in states] if args.verbose else None
    pair_reports = [] if args.verbose else None
    max_h = 0
    for i, j, rep in paths.audit_pairs(states):
        max_h = max(max_h, rep.max_hamming)
        if args.verbose:
            pair_reports.append(
                {
                    "from": edge_lists[i],
                    "to": edge_lists[j],
                    "moves": len(rep.steps),
                    "max_hamming": rep.max_hamming,
                    "theta_ok": rep.theta_ok,
                    "omega_ok": rep.omega_ok,
                }
            )
    return EXIT_OK, {
        "states": len(states),
        "ordered_pairs": len(states) * (len(states) - 1),
        "max_hamming": max_h,
        "hamming_bound": paths.HAMMING_BOUND,
        "pairs": pair_reports,
        "all_ok": True,
    }


def _cmd_convert_directed(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    if inst.kind != "directed":
        raise _CliFailure(
            EXIT_USAGE, {"error": "NotDirectedKind", "message": "instance is not directed"}
        )
    bip = instance_to_json(inst)
    bip["kind"] = "bipartite"
    bip["u_degrees"] = bip.pop("out_degrees")
    bip["w_degrees"] = bip.pop("in_degrees")
    return EXIT_OK, {"instance": bip}


def _cmd_bench(args) -> tuple[int, dict]:
    inst = _load_instance(args.instance)
    start = greedy_construct(inst)
    if start is None:
        return EXIT_NEGATIVE, {"graphical": False}
    t0 = time.perf_counter()
    _, tries = walk_chains(inst, start, args.steps, args.seed)
    chain_secs = time.perf_counter() - t0
    payload = {
        "proposals": args.steps,
        "proposals_per_second": round(args.steps / chain_secs, 1),
        "tries": tries,
        "tries_per_second": round(tries / chain_secs, 1),
    }
    try:
        t0 = time.perf_counter()
        exact_kernel(inst, max_states=args.max_states)
        payload["kernel_seconds"] = round(time.perf_counter() - t0, 4)
    except TooLarge:
        payload["kernel_seconds"] = None
    return EXIT_OK, payload


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rds-kit",
        description="construct, sample, audit and count restricted degree sequence realizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("instance", help="instance JSON path, or - for stdin")
        p.set_defaults(func=func)
        return p

    add("check", _cmd_check, help="greedy graphicality decision")
    add("construct", _cmd_construct, help="emit one deterministic realization")

    p = add("sample", _cmd_sample, help="run the chain and emit realizations")
    p.add_argument("--steps", type=_at_least(0), default=None)
    p.add_argument("--samples", type=_at_least(1), default=1)
    p.add_argument("--seed", type=_at_least(0), default=0)

    p = add("enumerate", _cmd_enumerate, help="exhaustively list realizations")
    p.add_argument("--max-delta", type=_at_least(0), default=40, dest="max_delta")

    p = add("count", _cmd_count, help="count realizations")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--approx", action="store_true")
    p.add_argument("--samples", type=_at_least(1), default=1000)
    p.add_argument("--burn-in", type=_at_least(0), default=None, dest="burn_in")
    p.add_argument("--seed", type=_at_least(0), default=0)

    p = add("distance", _cmd_distance, help="minimum swap weight between realizations")
    p.add_argument("--from", required=True, dest="from_real", metavar="REAL")
    p.add_argument("--to", required=True, dest="to_real", metavar="REAL")
    p.add_argument("--max-delta", type=_at_least(0), default=16, dest="max_delta")

    p = add("kernel", _cmd_kernel, help="exact rational transition matrix")
    p.add_argument("--max-states", type=_at_least(0), default=4096, dest="max_states")

    p = add("audit-paths", _cmd_audit_paths, help="canonical path audits over all pairs")
    p.add_argument("--max-states", type=_at_least(0), default=256, dest="max_states")
    p.add_argument("--verbose", action="store_true")

    add("convert-directed", _cmd_convert_directed, help="directed instance to bipartite form")

    p = add("bench", _cmd_bench, help="machine-dependent throughput numbers")
    p.add_argument("--steps", type=_at_least(0), default=100000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--max-states", type=_at_least(0), default=64, dest="max_states")

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call, then reused


def main(argv: list[str] | None = None) -> int:
    global _parser
    argv = sys.argv[1:] if argv is None else argv
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except _UsageError as exc:
        command = argv[0] if argv and not argv[0].startswith("-") else None
        _emit({"schema": SCHEMA, "command": command, "error": "UsageError", "message": str(exc)})
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code else EXIT_OK
    base = {"schema": SCHEMA, "command": args.command}
    try:
        code, payload = args.func(args)
    except _CliFailure as exc:
        _emit({**base, **exc.payload})
        return exc.code
    except TooLarge as exc:
        _emit({**base, "error": type(exc).__name__, "message": str(exc)})
        return EXIT_GUARD
    except RdsKitError as exc:
        _emit({**base, "error": type(exc).__name__, "message": str(exc)})
        return EXIT_USAGE
    payload = {**base, "config": _config_echo(args), **payload}
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
