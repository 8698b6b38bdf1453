"""Every CLI command through main(argv), pinned to its exit code."""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from anthill import cli, harness
from anthill.cli import ExitStatus, main
from anthill.core import INT, Function
from anthill.generate import gen_native_expr, gen_typed_program
from anthill.harness import TrialConfig, run_trials
from anthill.parser import parse_upython
from anthill.printer import print_anthill_term, print_upython
from anthill.runtime import run
from anthill.translate import translate_program
from anthill.upython import UInt
from anthill.parser import parse_anthill


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- check

def test_check_prints_the_type(capsys):
    assert main(["check", "programs/typed_call_lib.ant"]) == 0
    assert capsys.readouterr().out.strip() == "((int) -> int) -> int"


def test_check_rejects_static_error(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ant", "fun(x: int) -> int: x(1)")
    assert main(["check", bad]) == ExitStatus.STATIC_ERROR
    assert "static type error" in capsys.readouterr().err


def test_check_parse_error_is_usage(tmp_path, capsys):
    mangled = _write(tmp_path, "oops.ant", "let = in")
    assert main(["check", mangled]) == ExitStatus.USAGE
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------ translate

def test_translate_output_matches_library(capsys):
    assert main(["translate", "programs/typed_call_lib.ant"]) == 0
    printed = capsys.readouterr().out.strip()
    term = parse_anthill(Path("programs/typed_call_lib.ant").read_text())
    target, _ = translate_program(term)
    assert parse_upython(printed) == target


def test_translate_show_type_goes_to_stderr(capsys):
    assert main(["translate", "programs/typed_call_lib.ant",
                 "--show-type"]) == 0
    captured = capsys.readouterr()
    assert "type: ((int) -> int) -> int" in captured.err
    assert "type:" not in captured.out


# ------------------------------------------------------------------ run

def test_run_typed_program(capsys):
    assert main(["run", "programs/point.ant"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_run_cast_error(capsys):
    assert main(["run", "programs/read_missing_attr.ant"]) == \
        ExitStatus.CAST_ERROR
    assert capsys.readouterr().out.startswith("casterror after ")


def test_run_native_error(capsys):
    assert main(["run", "programs/native_call_error.upy"]) == \
        ExitStatus.NATIVE_ERROR
    assert "pyerror(native)" in capsys.readouterr().out


def test_run_untyped_program_native_error():
    assert main(["run", "programs/untyped_call.upy"]) == \
        ExitStatus.NATIVE_ERROR


def test_run_translated_error(capsys):
    assert main(["run", "programs/translated_call_error.upy"]) == \
        ExitStatus.TRANSLATED_ERROR
    assert "pyerror(translated)" in capsys.readouterr().out


def test_run_timeout(tmp_path, capsys):
    omega = _write(tmp_path, "omega.upy",
                   "(lambda(x): x(x))(lambda(x): x(x))")
    assert main(["run", omega, "--budget", "40"]) == ExitStatus.TIMEOUT
    assert capsys.readouterr().out.strip() == "timeout after 40 steps"


@pytest.mark.parametrize("name, budget, kind, code", [
    ("class_late_init.ant", 10 ** 6, "casterror", 2),
    ("mixed_call.upy", 10 ** 6, "value", 0),
    ("native_call_error.upy", 10 ** 6, "native-error", 3),
    ("point.ant", 10 ** 6, "value", 0),
    ("point2d_early_read.ant", 10 ** 6, "casterror", 2),
    ("read_missing_attr.ant", 10 ** 6, "casterror", 2),
    ("translated_call_error.upy", 10 ** 6, "translated-error", 4),
    ("typed_call_lib.ant", 10 ** 6, "value", 0),
    ("untyped_call.upy", 10 ** 6, "native-error", 3),
    ("point.ant", 1, "timeout", 5),
])
def test_outcome_kind_and_exit_code(name, budget, kind, code, capsys):
    path = f"programs/{name}"
    with open(path) as fh:
        text = fh.read()
    if name.endswith(".ant"):
        program, _ = translate_program(parse_anthill(text))
    else:
        program = parse_upython(text)
    assert run(program, budget=budget).kind == kind
    assert main(["run", path, "--budget", str(budget)]) == code


def test_run_static_error_exit(tmp_path):
    bad = _write(tmp_path, "bad.ant", "zz")
    assert main(["run", bad]) == ExitStatus.STATIC_ERROR


def test_run_lang_override(tmp_path, capsys):
    plain = _write(tmp_path, "prog.txt", "let x = 3 in x")
    assert main(["run", plain]) == ExitStatus.USAGE
    capsys.readouterr()
    assert main(["run", plain, "--lang", "upython"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_run_open_term_is_usage(tmp_path, capsys):
    free = _write(tmp_path, "free.upy", "zz(1)")
    assert main(["run", free]) == ExitStatus.USAGE
    assert "error:" in capsys.readouterr().err


def test_run_trace_prints_steps(tmp_path, capsys):
    prog = _write(tmp_path, "small.upy", "(lambda(x): x)(5)")
    assert main(["run", prog, "--trace"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "5"
    assert "step " in captured.err


# ---------------------------------------------------------------- verify

def test_verify_accepts(capsys):
    assert main(["verify", "programs/mixed_call.upy", "--tag",
                 "pyobj"]) == 0
    assert capsys.readouterr().out.strip() == "verified at pyobj"


def test_verify_default_tag_is_pyobj(capsys):
    assert main(["verify", "programs/mixed_call.upy"]) == 0
    assert "verified at pyobj" in capsys.readouterr().out


def test_verify_rejects_unsound_program(capsys):
    assert main(["verify", "programs/translated_call_error.upy"]) == \
        ExitStatus.STATIC_ERROR
    assert "does not verify" in capsys.readouterr().err


def test_verify_bad_tag_is_usage(capsys):
    assert main(["verify", "programs/mixed_call.upy", "--tag",
                 "gibberish["]) == ExitStatus.USAGE
    capsys.readouterr()


def test_verify_at_specific_tag(tmp_path, capsys):
    prog = _write(tmp_path, "lam.upy", "lambda(x): x")
    assert main(["verify", prog, "--tag", "fun[1]"]) == 0
    capsys.readouterr()
    assert main(["verify", prog, "--tag", "fun[2]"]) == \
        ExitStatus.STATIC_ERROR
    capsys.readouterr()


# ----------------------------------------------------------------- embed

def test_embed_good_client(capsys):
    assert main(["embed", "--typed", "programs/typed_call_lib.ant",
                 "--context", "programs/call_context.upy"]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_embed_bad_client_fails_cast(capsys):
    assert main(["embed", "--typed", "programs/typed_call_lib.ant",
                 "--context", "programs/bad_call_context.upy"]) == \
        ExitStatus.CAST_ERROR
    assert "casterror" in capsys.readouterr().out


def test_embed_rejects_bad_context(tmp_path, capsys):
    two = _write(tmp_path, "two.upy", "HOLE(HOLE)")
    assert main(["embed", "--typed", "programs/typed_call_lib.ant",
                 "--context", two]) == ExitStatus.USAGE
    assert "bad context" in capsys.readouterr().err


def test_embed_static_error(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ant", "fun(x: int) -> int: x(1)")
    assert main(["embed", "--typed", bad,
                 "--context", "programs/call_context.upy"]) == \
        ExitStatus.STATIC_ERROR
    capsys.readouterr()


def test_embed_translates_under_the_binders_at_the_hole(tmp_path, capsys):
    # the typed file may use the names the context binds at its hole
    typed = _write(tmp_path, "open.ant", "y")
    context = _write(tmp_path, "open_ctx.upy", "(lambda(y): HOLE)(41)")
    assert main(["embed", "--typed", typed, "--context", context]) == 0
    assert capsys.readouterr().out == "41\n"


def test_embed_checks_that_the_translation_verifies(monkeypatch, capsys):
    # a translation that does not verify at its type's tag is a bug in
    # the package, so embed reports an internal error and runs nothing
    monkeypatch.setattr(harness, "translate_term",
                        lambda env, term: (UInt(1), Function((), INT)))
    assert main(["embed", "--typed", "programs/typed_call_lib.ant",
                 "--context", "programs/call_context.upy"]) == \
        ExitStatus.INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: HarnessError: translated term failed tag "
        "verification at fun[0]\n")


# ------------------------------------------------------------------ fuzz

def test_fuzz_matches_direct_harness_run(capsys):
    assert main(["fuzz", "--trials", "25", "--seed", "3",
                 "--term-depth", "3", "--ctx-depth", "3",
                 "--budget", "2000"]) == 0
    out = capsys.readouterr().out
    config = TrialConfig(term_depth=3, ctx_depth=3, budget=2_000)
    assert out == run_trials(25, base_seed=3, config=config).to_text()


def test_fuzz_verbose_lists_trials(capsys):
    assert main(["fuzz", "--trials", "8", "--seed", "1",
                 "--term-depth", "3", "--ctx-depth", "3",
                 "--budget", "2000", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines()
                if l.startswith("trial ")]) == 8


def test_fuzz_clean_batch_writes_no_reproducer(tmp_path, capsys):
    path = tmp_path / "repro.txt"
    assert main(["fuzz", "--trials", "5", "--seed", "2",
                 "--term-depth", "3", "--ctx-depth", "3",
                 "--budget", "2000", "--reproducer", str(path)]) == 0
    capsys.readouterr()
    assert not path.exists()


# ----------------------------------------------------------------- usage

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["check"],
    ["embed", "--typed", "programs/typed_call_lib.ant"],
    ["check", "programs/does_not_exist.ant"],
    ["run", "programs/does_not_exist.upy"],
])
def test_usage_errors(argv, capsys):
    assert main(argv) == ExitStatus.USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["fuzz", "--trials", "-3"],
    ["fuzz", "--term-depth", "-1"],
    ["fuzz", "--ctx-depth", "-1"],
    ["fuzz", "--budget", "-1"],
    ["run", "programs/point.ant", "--budget", "-1"],
    ["embed", "--typed", "programs/typed_call_lib.ant",
     "--context", "programs/bad_call_context.upy", "--budget", "-1"],
])
def test_negative_counts_are_usage_errors(argv, capsys):
    assert main(argv) == ExitStatus.USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a non-negative integer, got '-" in captured.err


def test_zero_counts_are_accepted(capsys):
    assert main(["fuzz", "--trials", "0"]) == ExitStatus.OK
    assert "0 trials" in capsys.readouterr().out
    assert main(["run", "programs/point.ant", "--budget", "0"]) \
        == ExitStatus.TIMEOUT
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["run", "{bad}"],
    ["check", "{bad}"],
    ["embed", "--typed", "programs/typed_call_lib.ant", "--context", "{bad}"],
], ids=["run", "check", "embed-context"])
def test_undecodable_file_is_a_usage_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.upy"
    bad.write_bytes(b"\xff")
    assert main([a.format(bad=bad) for a in argv]) == ExitStatus.USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "decode" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "fuzz" in capsys.readouterr().out


# -------------------------------------------------------- failure table

LIB = "programs/typed_call_lib.ant"
CTX = "programs/call_context.upy"
_FAILING = {
    "parse.ant": "let = in",
    "static.ant": "fun(x: int) -> int: x(1)",
    "parse.upy": "lambda(x: x",
    "free.upy": "zz(1)",
    "parse_ctx.upy": "HOLE(",
    "two_holes.upy": "HOLE(HOLE)",
    "free_ctx.upy": "f(HOLE)",
}
PARSE_ANT = "error: 1:5: expected binder, found '='\n"
PARSE_UPY = "error: 1:9: expected ',', found ':'\n"
STATIC = "static type error: app: call of non-function type int\n"


@pytest.mark.parametrize("argv, code, err", [
    (["check", "parse.ant"], 64, PARSE_ANT),
    (["check", "static.ant"], 1, STATIC),
    (["translate", "parse.ant"], 64, PARSE_ANT),
    (["translate", "static.ant"], 1, STATIC),
    (["run", "parse.ant"], 64, PARSE_ANT),
    (["run", "static.ant"], 1, STATIC),
    (["run", "parse.upy"], 64, PARSE_UPY),
    (["run", "free.upy"], 64,
     "error: free variable 'zz' reached evaluation\n"),
    (["verify", "parse.upy"], 64, PARSE_UPY),
    (["verify", "programs/mixed_call.upy", "--tag", "fun["], 64,
     "error: 1:5: expected 'NUM', found 'EOF'\n"),
    (["embed", "--typed", "parse.ant", "--context", CTX], 64, PARSE_ANT),
    (["embed", "--typed", LIB, "--context", "parse_ctx.upy"], 64,
     "error: 1:6: expected an expression\n"),
    # the typed file is parsed first, the context is validated before
    # the typed program is translated
    (["embed", "--typed", "parse.ant", "--context", "parse_ctx.upy"], 64,
     PARSE_ANT),
    (["embed", "--typed", "static.ant", "--context", CTX], 1, STATIC),
    (["embed", "--typed", LIB, "--context", "two_holes.upy"], 64,
     "error: bad context: context must have exactly one hole, found 2\n"),
    (["embed", "--typed", "static.ant", "--context", "two_holes.upy"], 64,
     "error: bad context: context must have exactly one hole, found 2\n"),
    (["embed", "--typed", LIB, "--context", "free_ctx.upy"], 64,
     "error: free variable 'f' reached evaluation\n"),
])
def test_failure_exit_code_and_stderr(tmp_path, capsys, argv, code, err):
    for name, text in _FAILING.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in _FAILING else a for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


# -------------------------------------------------------------- internal

def test_internal_error_is_reported_not_raised(tmp_path, capsys,
                                               monkeypatch):
    # an exception no command expects, here from the interpreter
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run", overflow)
    prog = _write(tmp_path, "one.upy", "1")
    assert main(["run", prog]) == ExitStatus.INTERNAL == 70
    err = capsys.readouterr().err
    assert err.startswith("internal error: RecursionError: ")
    assert "Traceback" not in err


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    deep = _write(tmp_path, "deep.upy", "(" * 400 + "1" + ")" * 400)
    assert main(["run", deep]) == ExitStatus.USAGE == 64
    err = capsys.readouterr().err
    assert err.startswith("error: 1:")
    assert err.rstrip().endswith("input nested too deeply")


def test_non_decimal_digit_is_a_parse_error(tmp_path, capsys):
    squared = _write(tmp_path, "squared.upy",
                     "let x = 2 in f(x\u00b2, \u00b2)")
    assert main(["run", squared]) == ExitStatus.USAGE == 64
    assert capsys.readouterr().err == \
        "error: 1:20: unexpected character '\u00b2'\n"


LONG = "1" * 5000   # more digits than int() converts by default


@pytest.mark.parametrize("argv, name, text", [
    (["run"], "long.upy", LONG),
    (["run"], "long.ant", f"let x = {LONG} in x"),
    (["run"], "check.upy", f"check({LONG}, int)"),
    (["verify", "--tag", f"fun[{LONG}]"], "lam.upy", "lambda(x): x"),
], ids=["upy", "ant", "check", "tag"])
def test_overlong_number_is_a_parse_error(tmp_path, capsys, argv, name,
                                          text):
    path = _write(tmp_path, name, text)
    assert main([argv[0], path, *argv[1:]]) == ExitStatus.USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: 1:")
    assert err.endswith(": number of 5000 digits is too long\n")


def test_translate_prints_deeply_nested_calls(tmp_path, capsys):
    for n in (300, 400):
        calls = _write(tmp_path, "calls.ant",
                       "(fun(x: int) -> int: x)(" * n + "0" + ")" * n)
        assert main(["translate", calls]) == 0
        assert capsys.readouterr().out == (
            "check((lambda(x): let x = check(x, int) in x)(" * n + "0"
            + ")!, int)" * n + "\n")


@pytest.mark.parametrize("postfix", [".a", "(1)"], ids=["get", "call"])
def test_run_prints_a_lambda_over_a_deep_postfix_chain(tmp_path, capsys,
                                                       postfix):
    text = "lambda(x): x" + postfix * 600
    chain = _write(tmp_path, "chain.upy", text)
    assert main(["run", chain]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_check_prints_a_deeply_nested_function_type(tmp_path, capsys):
    ty = "int"
    for _ in range(400):
        ty = f"({ty}) -> int"
    fun = _write(tmp_path, "deep_type.ant", f"fun(f: {ty}) -> int: 0")
    assert main(["check", fun]) == 0
    assert capsys.readouterr().out == f"({ty}) -> int\n"


# -------------------------------------------------------------- exit codes

DOCUMENTED = {0, 1, 2, 3, 4, 5, 64}
_PIECES = st.sampled_from([
    "let", "in", "fun", "class", "obj", "lambda", "check", "int", "dyn",
    "pyobj", "HOLE", "->", *"(){}[],:.=!@", " ", "\n", "#", "x", "y",
    "_", "$", "0", "7", LONG,
])


@st.composite
def _sources(draw):
    """A suffix and a text: a printed typed program (.ant), its
    translation or native code (.upy) with a span replaced, or pieces."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    suffix = draw(st.sampled_from([".ant", ".upy"]))
    if draw(st.booleans()):
        return suffix, "".join(draw(st.lists(_PIECES, max_size=30)))
    if suffix == ".upy" and rng.random() < 0.5:
        text = print_upython(gen_native_expr(rng, (), 4))
    else:
        term = gen_typed_program(rng, 3)[0]
        text = (print_anthill_term(term) if suffix == ".ant"
                else print_upython(translate_program(term)[0]))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return suffix, text[:i] + "".join(draw(st.lists(_PIECES, max_size=2))) \
        + text[j:]


@settings(max_examples=300, deadline=None)
@example((".upy", LONG))
@example((".ant", LONG))
@given(_sources())
def test_run_exit_code_is_documented(tmp_path_factory, source):
    suffix, text = source
    path = tmp_path_factory.getbasetemp() / f"prog{suffix}"
    path.write_text(text)
    assert main(["run", str(path), "--budget", "200"]) in DOCUMENTED
