"""Command line interface.

Exit codes mirror run outcomes so scripts can branch on them:
0 success, 1 static type error, 2 failed cast, 3 native runtime error,
4 translated-origin runtime error, 5 step budget exhausted, 64 usage or
parse error (input nested too deeply for the parser included), 70
internal error: an unexpected exception, a bug in the package, reported
on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import enum
import sys
from pathlib import Path

from .contexts import ContextError, plug, validate_context
from .harness import TrialConfig, run_trials, shrink_violation, \
    write_reproducer
from .parser import ParseError, parse_anthill, parse_tag, parse_upython
from .printer import print_anthill_type, print_upython
from .runtime import OpenTermError, run
from .translate import StaticTypeError, translate_program
from .verify import verifies


class ExitStatus(enum.IntEnum):
    OK = 0
    STATIC_ERROR = 1
    CAST_ERROR = 2
    NATIVE_ERROR = 3
    TRANSLATED_ERROR = 4
    TIMEOUT = 5
    USAGE = 64
    INTERNAL = 70


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return int(ExitStatus.USAGE)


def _detect_language(path: str, override: str | None) -> str:
    if override:
        return override
    suffix = Path(path).suffix
    if suffix == ".ant":
        return "anthill"
    if suffix == ".upy":
        return "upython"
    raise SystemExit(_usage_error(
        f"cannot infer language from {path!r}; pass --lang"))


# outcome kind -> (exit status, word printed before "after N steps");
# a value prints itself instead
_OUTCOME_EXIT = {
    "value": (ExitStatus.OK, None),
    "casterror": (ExitStatus.CAST_ERROR, "casterror"),
    "native-error": (ExitStatus.NATIVE_ERROR, "pyerror(native)"),
    "translated-error": (ExitStatus.TRANSLATED_ERROR, "pyerror(translated)"),
    "timeout": (ExitStatus.TIMEOUT, "timeout"),
}


def _finish(outcome) -> int:
    status, word = _OUTCOME_EXIT[outcome.kind]
    print(f"{word} after {outcome.steps} steps" if word
          else print_upython(outcome.value))
    return int(status)


def _trace_printer(args):
    if not args.trace:
        return None

    def on_step(steps: int, rule: str, heap_size: int) -> None:
        print(f"step {steps:6d} {rule:8s} heap={heap_size}",
              file=sys.stderr)
    return on_step


def cmd_check(args) -> int:
    _, ty = translate_program(parse_anthill(_read(args.file)))
    print(print_anthill_type(ty))
    return int(ExitStatus.OK)


def cmd_translate(args) -> int:
    target, ty = translate_program(parse_anthill(_read(args.file)))
    print(print_upython(target))
    if args.show_type:
        print(f"type: {print_anthill_type(ty)}", file=sys.stderr)
    return int(ExitStatus.OK)


def cmd_run(args) -> int:
    lang = _detect_language(args.file, args.lang)
    if lang == "anthill":
        program, _ = translate_program(parse_anthill(_read(args.file)))
    else:
        program = parse_upython(_read(args.file))
    return _finish(run(program, budget=args.budget,
                       on_step=_trace_printer(args)))


def cmd_verify(args) -> int:
    program = parse_upython(_read(args.file))
    tag = parse_tag(args.tag)
    if verifies((), {}, program, tag):
        print(f"verified at {args.tag}")
        return int(ExitStatus.OK)
    print(f"does not verify at {args.tag}", file=sys.stderr)
    return int(ExitStatus.STATIC_ERROR)


def cmd_embed(args) -> int:
    term = parse_anthill(_read(args.typed))
    context = parse_upython(_read(args.context), allow_hole=True)
    validate_context(context)
    target, _ = translate_program(term)
    return _finish(run(plug(context, target), budget=args.budget,
                       on_step=_trace_printer(args)))


def cmd_fuzz(args) -> int:
    config = TrialConfig(term_depth=args.term_depth, ctx_depth=args.ctx_depth,
                         budget=args.budget)
    report = run_trials(args.trials, base_seed=args.seed, config=config)
    print(report.to_text(verbose=args.verbose), end="")
    if report.violations:
        if args.reproducer:
            worst = shrink_violation(report.violations[0])
            write_reproducer(args.reproducer, worst)
            print(f"reproducer written to {args.reproducer}",
                  file=sys.stderr)
        return int(ExitStatus.TRANSLATED_ERROR)
    return int(ExitStatus.OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anthill",
        description="gradually typed calculus with an untyped target: "
                    "typechecker, translator, interpreter, tag verifier, "
                    "and an open-world soundness fuzzer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck a typed program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("translate",
                       help="translate a typed program, printing the result")
    p.add_argument("file")
    p.add_argument("--show-type", action="store_true")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("run", help="run a program to an outcome")
    p.add_argument("file")
    p.add_argument("--lang", choices=("anthill", "upython"))
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--trace", action="store_true",
                   help="print each step rule to stderr")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify",
                       help="check an untyped program against a tag")
    p.add_argument("file")
    p.add_argument("--tag", default="pyobj")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("embed",
                       help="translate a typed program into a context's "
                            "hole and run the result")
    p.add_argument("--typed", required=True)
    p.add_argument("--context", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("fuzz", help="run open-world soundness trials")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--term-depth", type=int, default=5)
    p.add_argument("--ctx-depth", type=int, default=5)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--verbose", action="store_true",
                   help="print one line per trial")
    p.add_argument("--reproducer", metavar="PATH",
                   help="on violation, write a shrunk reproducer here")
    p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; normalize
        if exc.code not in (0, None):
            return int(ExitStatus.USAGE)
        return 0
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(ExitStatus.USAGE)
    except (ParseError, OpenTermError) as exc:
        return _usage_error(str(exc))
    except ContextError as exc:
        return _usage_error(f"bad context: {exc}")
    except StaticTypeError as exc:
        print(f"static type error: {exc}", file=sys.stderr)
        return int(ExitStatus.STATIC_ERROR)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return int(ExitStatus.INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
