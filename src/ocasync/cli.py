"""Command-line front end.

Every subcommand reads an automaton (a file path, or a built-in corpus name),
dispatches to the library, and writes exactly one JSON document to stdout.
Exit codes: 0 completed (including negative verdicts), 1 malformed input
(``InputError`` and argument errors), 2 resource budget exceeded, 3 internal
invariant failure (any other exception, a plain ``ValueError`` included).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import bignum, corpus, errors, lps, mc, oracle, periodicity
from .errors import BudgetExceededError, InputError, OcaSyntaxError, UncoveredOperatorError
from .formula import Formula, parse_formula, pretty
from .oca import (
    Configuration, Oca, loads, oca_to_json, parse_configuration, require_valid, validate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


def _load_oca(spec: str) -> Oca:
    """The automaton named by ``spec``; an invalid one is malformed input."""
    oca = _read_oca(spec)
    require_valid(oca)
    return oca


def _read_oca(spec: str) -> Oca:
    if spec.startswith("corpus:"):
        return corpus.load(spec[len("corpus:"):])
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise OcaSyntaxError(f"cannot read automaton file: {exc}") from None
        return loads(text)
    if spec in corpus.names():
        return corpus.load(spec)
    raise OcaSyntaxError(f"no such file or corpus automaton: {spec}")


def _formula(oca: Oca, text: str) -> Formula:
    """The formula ``text``, which may use only atoms ``oca`` declares."""
    f = parse_formula(text)
    mc.require_atoms(oca, f)
    return f


def _parse_mode(text: str):
    if text in ("paper", "empirical"):
        return text, None
    if text.startswith("supplied:"):
        t_str, _, p_str = text[len("supplied:"):].partition(",")
        try:
            return "supplied", periodicity.TpPair(int(t_str), int(p_str))
        except ValueError:
            raise OcaSyntaxError(f"malformed supplied pair in {text!r}") from None
    raise OcaSyntaxError(f"unknown mode {text!r}; use paper|supplied:t,p|empirical")


def _parse_caps(text: str) -> tuple[int, int]:
    try:
        a, _, b = text.partition(",")
        return int(a), int(b)
    except ValueError:
        raise OcaSyntaxError(f"malformed caps {text!r}; use counterCap,levelCap") from None


def _check_args(args) -> dict:
    """``check_oca`` keyword arguments from the mode flags; the defaults of
    ``--mode`` and ``--caps`` apply here, after any job file has filled them."""
    mode, supplied = _parse_mode("empirical" if args.mode is None else args.mode)
    return {
        "mode": mode, "supplied": supplied,
        "caps": _parse_caps("60,200" if args.caps is None else args.caps),
        "b_override": args.b, "node_budget": args.budget, "mine_v_cap": args.mine_v_cap,
    }


class _Json(str):
    """JSON text already written for the indent at which it is placed;
    ``_dumps`` copies it out as it is."""


def _dumps(o, ind: str = "") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` byte for byte, for a value
    that starts a line indented by ``ind``.

    ``indent`` turns off json's C encoder, and its pure-Python one yields
    every fragment through nested generators, whose closures refer to each
    other: every call leaves cyclic garbage (33 objects for a small
    document).  Here plain dicts with str keys, lists, tuples, str, int,
    bool and None are written directly, one joined string per container,
    and a ``_Json`` fragment (an ``lps`` row, written by ``_row``) is
    copied out unchanged; anything else (floats, other int or str
    subclasses, dicts with other keys) goes through ``json.dumps``.  Joining
    per container keeps only one subtree's fragments alive at a time; one
    fragment list for the whole document is faster but peaks far higher.
    """
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        if all(type(k) is str for k in o):
            if not o:
                return "{}"
            inner = ind + "  "
            return "{\n" + inner + (",\n" + inner).join([
                encode_basestring_ascii(k) + ": " + _dumps(o[k], inner) for k in sorted(o)
            ]) + "\n" + ind + "}"
    elif t is list or t is tuple:
        if not o:
            return "[]"
        inner = ind + "  "
        return "[\n" + inner + (",\n" + inner).join([
            _dumps(v, inner) for v in o
        ]) + "\n" + ind + "]"
    elif o is None:
        return "null"
    elif o is True:
        return "true"
    elif o is False:
        return "false"
    elif t is _Json:
        return o
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + ind)


def _emit(doc: dict) -> None:
    """Print one document.  If the reader has closed stdout, point stdout at
    ``os.devnull``: the run keeps its exit code and prints nothing more."""
    try:
        print(_dumps(doc))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _ok(command: str, data: dict) -> int:
    _emit({"command": command, "ok": True, "data": data})
    return EXIT_OK


def _fail(command: str, kind: str, message: str, extra: dict | None = None) -> int:
    err = {"kind": kind, "message": message}
    if extra:
        err.update(extra)
    _emit({"command": command, "ok": False, "error": err})
    return {"input": EXIT_INPUT, "budget": EXIT_BUDGET}.get(kind, EXIT_INTERNAL)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args) -> int:
    oca = _read_oca(args.oca)
    diags = validate(oca)
    if diags:
        return _fail("validate", "input", "automaton invalid",
                     {"diagnostics": diags})
    return _ok("validate", {"diagnostics": [], "automaton": oca_to_json(oca)})


def _apply_job_file(args) -> None:
    """Fill unset flags from a JSON job description."""
    try:
        text = Path(args.job).read_text()
    except OSError as exc:
        raise OcaSyntaxError(f"cannot read job file: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if not isinstance(doc, dict):
        raise OcaSyntaxError("job file must hold a JSON object")
    unknown = set(doc) - set(_job_keys)
    if unknown:
        raise OcaSyntaxError(f"unknown job keys {sorted(unknown)}")
    for key, value in doc.items():
        attr, kind = _job_keys[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            noun = "a string" if kind is str else "an integer"
            raise OcaSyntaxError(f"job key {key!r} must be {noun}, got {json.dumps(value)}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


_job_keys = {
    "oca": ("oca", str), "formula": ("formula", str), "init": ("init", str),
    "mode": ("mode", str), "caps": ("caps", str), "b": ("b", int),
    "budget": ("budget", int), "mineVCap": ("mine_v_cap", int),
}


def _cmd_check(args) -> int:
    if args.job:
        _apply_job_file(args)
    if not args.oca or not args.formula or not args.init:
        raise OcaSyntaxError("check needs an automaton, a formula, and an init "
                             "(from flags or a job file)")
    oca = _load_oca(args.oca)
    f = _formula(oca, args.formula)
    init = parse_configuration(oca, args.init)
    result = mc.check_oca(oca, f, init, **_check_args(args))
    return _ok("check", result.to_json())


def _cmd_sat_sets(args) -> int:
    oca = _load_oca(args.oca)
    f = _formula(oca, args.formula)
    result = mc.check_oca(oca, f, Configuration(0, 0), **_check_args(args))
    return _ok("sat-sets", {
        "formula": pretty(f),
        "perState": {s: u.to_json() for s, u in sorted(result.per_state.items())},
        "constantsUsed": result.constants_used,
        "caveats": result.caveats,
    })


def _cmd_constants(args) -> int:
    oca = _load_oca(args.oca)
    f = _formula(oca, args.formula)
    try:
        pairs, bundle = mc.paper_pairs(oca, f, args.b)
    except UncoveredOperatorError:
        return _fail("constants", "input", "the constant recursion covers UA but not UE")
    return _ok("constants", {
        "recursion": [
            {"formula": pretty(g), "t": bignum.to_jsonable(t), "p": bignum.to_jsonable(p)}
            for g, (t, p) in pairs.items()
        ],
        "bundle": bundle.to_json() if bundle is not None else None,
        "states": oca.n_states,
    })


def _cmd_oracle(args) -> int:
    oca = _load_oca(args.oca)
    f = _formula(oca, args.formula)
    init = parse_configuration(oca, args.init)
    verdict = oracle.eval_bounded(oca, init, f, args.counter_cap, args.level_cap)
    return _ok("oracle", {
        "formula": pretty(f),
        "init": args.init,
        "verdict": verdict.value,
        "counterCap": args.counter_cap,
        "levelCap": args.level_cap,
    })


def _cmd_mine_period(args) -> int:
    oca = _load_oca(args.oca)
    f = _formula(oca, args.formula)
    state = oca.state_index(args.state)
    pair, row = oracle.mine_period(
        oca, f, state, args.v_cap, (args.counter_cap, args.level_cap)
    )
    return _ok("mine-period", {
        "formula": pretty(f),
        "state": args.state,
        "pair": {"t": pair.t, "p": pair.p} if pair else None,
        "verdicts": [v.value for v in row],
    })


def _cmd_cross_check(args) -> int:
    oca = _load_oca(args.oca)
    f = _formula(oca, args.formula)
    inits = [parse_configuration(oca, s) for s in args.init]
    report = mc.cross_check(oca, f, inits, **_check_args(args))
    return _ok("cross-check", report.to_json(oca))


def _cmd_check_lemma11(args) -> int:
    oca = _load_oca(args.oca)
    bundle = periodicity.ua_constants(
        oca.n_states, prev_t=args.prev_t, prev_p=args.prev_p, b_override=args.b
    )
    report = oracle.check_shift_periodicity(
        oca, bundle,
        counters=args.counter or None,
        level_cap=args.level_cap,
        counter_cap=args.counter_cap,
    )
    return _ok("check-lemma11", report.to_json(oca))


def _items(items: list[str], ind: str, brackets: str = "[]") -> str:
    """Written ``items`` in a container whose opening line is indented by
    ``ind``, as ``_dumps`` writes it."""
    if not items:
        return brackets
    return brackets[0] + "\n  " + ind + (",\n  " + ind).join(items) + "\n" + ind + brackets[1]


def _int_list_writer(ind: str):
    """``_items`` for int lists at one fixed indent, its separators built once."""
    opener, sep, closer = "[\n  " + ind, ",\n  " + ind, "\n" + ind + "]"

    def write(xs) -> str:
        return opener + sep.join(map(int.__repr__, xs)) + closer if xs else "[]"
    return write


# An lps row at its place in the document, 6 spaces in (document, "data",
# "schemes"), with its keys in sort_keys order; "reached" is optional.
_ROW = """{
        "alpha0": %s,
        "flatLength": %d,%s
        "segments": %s,
        "size": %d
      }"""
_REACHED = """
        "reached": %s,"""
_SEGMENT = """{
            "alpha": %s,
            "beta": %s
          }"""
_REACHED_ENTRY = """{
            "config": %s,
            "exponents": %s,
            "slopeRepetitions": %s
          }"""
_ROW_KEY, _ENTRY_KEY = " " * 8, " " * 12
_row_ints, _entry_ints = _int_list_writer(_ROW_KEY), _int_list_writer(_ENTRY_KEY)


def _segment_text(segment) -> str:
    beta, alpha = segment
    return _SEGMENT % (_entry_ints(alpha), _entry_ints(beta))


def _row(alpha0_text: str, flat_length: int, segments_text: str, size: int, reached) -> _Json:
    """One ``lps`` scheme row, written as ``_dumps`` would write its dict,
    with ``alpha0`` (``_row_ints``) and its (beta, alpha) segments
    (``_segment_text`` each, joined by ``_items``) already written;
    ``reached`` is None or a list of (config, exponents or None, {slope key:
    repetitions}) triples."""
    if reached is None:
        reached_text = ""
    else:
        reached_text = _REACHED % _items([
            _REACHED_ENTRY % (
                encode_basestring_ascii(config),
                "null" if exps is None else _entry_ints(exps),
                _items([encode_basestring_ascii(k) + ": " + int.__repr__(slopes[k])
                        for k in sorted(slopes)], _ENTRY_KEY, "{}"),
            )
            for config, exps, slopes in reached
        ], _ROW_KEY)
    return _Json(_ROW % (alpha0_text, flat_length, reached_text, segments_text, size))


def _memo(write):
    """``write`` with each distinct (hashable) argument written once."""
    texts = {}

    def cached(key) -> str:
        text = texts.get(key)
        if text is None:
            text = texts[key] = write(key)
        return text
    return cached


def _cmd_lps(args) -> int:
    if (args.start is None) != (args.target_length is None):
        raise InputError("--start and --target-length must be given together")
    oca = _load_oca(args.oca)
    src = oca.state_index(args.src)
    dst = oca.state_index(args.dst)
    budget = errors.environment_budget()
    rows = []
    entries = 0  # rows, transition indices and reached configurations kept
    start = parse_configuration(oca, args.start) if args.start is not None else None
    if start is not None and args.target_length < 0:
        raise InputError("target length must be non-negative")
    for value, name in ((args.flat, "flat length bound"), (args.size, "size bound"),
                        (args.exp_cap, "exponent cap"), (args.max_schemes, "scheme limit")):
        if value < 0:
            raise InputError(f"{name} must be non-negative")
    reach = None if start is None else (start, args.target_length, args.exp_cap)
    # the schemes of one job share most of their words: each distinct alpha0
    # and segment is written once (a memo of whole segment lists costs more
    # memory than it saves time: a job has about half as many lists as rows)
    alpha0_text = _memo(_row_ints)
    segment_text = _memo(_segment_text)
    for scheme in lps.enumerate_lps(oca, src, dst, args.flat, args.size, reach=reach):
        if len(rows) >= args.max_schemes:
            break
        ends = [] if start is None else sorted(
            lps.shaped_reach(oca, scheme, start, args.target_length, args.exp_cap))
        flat_length = scheme.flat_length
        entries += 1 + flat_length + len(ends)
        errors.check_budget("lps report needs", entries, "entries", budget)
        reached = None
        if start is not None:
            # one slope key per cycle, built once per scheme; str(Fraction) is
            # canonical, so equal slopes of different lengths share a key
            slope_keys = [str(stats.slope) for stats in scheme.cycle_stats(oca)] if ends else []
            reached = []
            for cfg in ends:
                exps = lps.shaped_witness_exponents(
                    oca, scheme, start, cfg, args.target_length, args.exp_cap
                )
                slopes = {}
                if exps is not None:
                    for key, e in zip(slope_keys, exps):
                        slopes[key] = slopes.get(key, 0) + e
                reached.append((f"{oca.state_names[cfg.state]},{cfg.counter}", exps, slopes))
        rows.append(_row(alpha0_text(scheme.alpha0), flat_length,
                         _items([segment_text(s) for s in scheme.segments], _ROW_KEY),
                         scheme.size, reached))
    return _ok("lps", {
        "from": args.src, "to": args.dst,
        "flatLenBound": args.flat, "sizeBound": args.size,
        "schemes": rows,
    })


# ---------------------------------------------------------------------------

class _ArgumentError(Exception):
    """A command line the parser rejects; ``command`` is the subcommand whose
    arguments are wrong, or None when the subcommand itself is missing or
    unknown."""

    def __init__(self, command: str | None, message: str):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Raises ``_ArgumentError`` where argparse would print usage and exit 2."""

    command: str | None = None  # set on each subcommand's parser

    def error(self, message: str):
        raise _ArgumentError(self.command, message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ocasync",
        description="Synchronized branching-time model checking over one-counter automata",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formula=True, init=False, mode=False, required=True):
        p.add_argument("--oca", required=required,
                       help="automaton file (text or JSON) or corpus name")
        if formula:
            p.add_argument("--formula", required=required)
        if init:
            p.add_argument("--init", required=required,
                           help="initial configuration state,counter")
        if mode:
            p.add_argument("--mode", help="paper | supplied:t,p | empirical (default)")
            p.add_argument("--caps", help="counterCap,levelCap (default 60,200)")
            p.add_argument("--b", type=int, default=None,
                           help="override the path-scheme bound for paper constants")
            p.add_argument("--budget", type=int, default=None,
                           help="node budget for the unfolding")
            p.add_argument("--mine-v-cap", type=int, default=None)

    p = sub.add_parser("check", help="decide a formula at an initial configuration")
    common(p, init=True, mode=True, required=False)
    p.add_argument("--job", default=None,
                   help="JSON job file supplying oca/formula/init/mode defaults")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sat-sets", help="per-state satisfaction sets of a formula")
    common(p, mode=True)
    p.set_defaults(fn=_cmd_sat_sets)

    p = sub.add_parser("constants", help="threshold/period recursion and constant bundle")
    common(p)
    p.add_argument("--b", type=int, default=None)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("oracle", help="three-valued brute-force evaluation")
    common(p, init=True)
    p.add_argument("--counter-cap", type=int, default=60)
    p.add_argument("--level-cap", type=int, default=200)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("mine-period", help="empirically mine a threshold/period pair")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--v-cap", type=int, default=30)
    p.add_argument("--counter-cap", type=int, default=60)
    p.add_argument("--level-cap", type=int, default=200)
    p.set_defaults(fn=_cmd_mine_period)

    p = sub.add_parser("cross-check", help="checker vs oracle, per initial configuration")
    common(p, mode=True)
    p.add_argument("--init", action="append", required=True,
                   help="initial configuration state,counter (repeatable)")
    p.set_defaults(fn=_cmd_cross_check)

    p = sub.add_parser("check-lemma11",
                       help="audit level-shift periodicity at a scaled-down bundle")
    common(p, formula=False)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--prev-t", type=int, default=0)
    p.add_argument("--prev-p", type=int, default=1)
    p.add_argument("--counter", action="append", type=int,
                   help="audited counter values (default: derived from the bundle)")
    p.add_argument("--level-cap", type=int, default=None)
    p.add_argument("--counter-cap", type=int, default=None)
    p.set_defaults(fn=_cmd_check_lemma11)

    p = sub.add_parser("lps", help="enumerate path schemes and shaped reachability")
    common(p, formula=False)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--flat", type=int, default=4)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--start", default=None, help="configuration state,counter")
    p.add_argument("--target-length", type=int, default=None)
    p.add_argument("--exp-cap", type=int, default=32)
    p.add_argument("--max-schemes", type=int, default=50)
    p.set_defaults(fn=_cmd_lps)

    p = sub.add_parser("validate", help="check automaton invariants")
    common(p, formula=False)
    p.set_defaults(fn=_cmd_validate)

    for name, p in sub.choices.items():
        p.command = name
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        command = args.command
        if extra:
            raise _ArgumentError(command, f"unrecognized arguments: {' '.join(extra)}")
        return args.fn(args)
    except _ArgumentError as exc:
        if exc.command is None:  # the schema has no command to report
            parser.print_usage(sys.stderr)
            print(f"ocasync: error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        return _fail(exc.command, "input", str(exc))
    except InputError as exc:
        return _fail(command, "input", str(exc))
    except BudgetExceededError as exc:
        return _fail(command, "budget", str(exc), {
            "required": getattr(exc, "required", None),
            "budget": getattr(exc, "budget", None),
        })
    except Exception as exc:  # noqa: BLE001 -- exit code 3 is the contract
        return _fail(command, "internal", f"{type(exc).__name__}: {exc}")


def entry() -> None:
    sys.exit(main())
