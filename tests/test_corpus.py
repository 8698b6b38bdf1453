"""The printed outputs, pinned in one corpus.

`tests/golden/corpus.txt` holds the stdout, stderr and exit code of
every command in `COMMANDS`, run in process through `cli.main`, and two
SHA-256 lines: over the term, type and context texts of base seed 1's
first 300 trials, and over 20 generated programs, each printed,
translated and run. The corpus may not change with the hash seed or the
CPython minor version (3.11-3.13): the generators draw only through
`getrandbits` and `random()`, and the printers, the interpreter's rules
and the verifier's verdicts must agree across versions.

A change that alters an output on purpose regenerates the corpus with
`PYTHONPATH=src python tests/test_corpus.py` and states the diff in its
CHANGES.md line.
"""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

from anthill.cli import main
from anthill.generate import gen_typed_program
from anthill.harness import soundness_trial, trial_seed
from anthill.printer import print_anthill_term, print_upython
from anthill.runtime import run
from anthill.translate import translate_program

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.txt"
PROGRAMS = sorted(f"programs/{p.name}" for p in (ROOT / "programs").iterdir())
TYPED = [f for f in PROGRAMS if f.endswith(".ant")]

COMMANDS = [
    ["fuzz", "--trials", "300", "--seed", "1", "--verbose"],
    *(["run", "--trace", f] for f in PROGRAMS),
    *(["translate", "--show-type", f] for f in TYPED),
    *(["check", f] for f in TYPED),
    *(["verify", f] for f in PROGRAMS if f.endswith(".upy")),
    *(["embed", "--typed", "programs/typed_call_lib.ant",
       "--context", f"programs/{c}.upy"]
      for c in ("call_context", "bad_call_context")),
]


def run_cli(argv: list[str]) -> tuple[str, str, int]:
    """The stdout, stderr and exit code of `anthill argv`, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def trial_texts():
    for i in range(300):
        r = soundness_trial(trial_seed(1, i))
        yield f"{r.term_text}\x01{r.type_text}\x01{r.context_text}\x00"


def program_texts():
    # the programs test_parsing_stays_within_its_python_call_budget parses
    rng = random.Random(1)
    for i in range(20):
        term, _ = gen_typed_program(rng, 5 + i % 7)
        target, _ = translate_program(term)
        o = run(target)
        value = print_upython(o.value) if o.kind == "value" else "-"
        yield (f"{print_anthill_term(term)}\x01{print_upython(target)}\x01"
               f"{o.kind} {getattr(o, 'rule', '-')} {o.steps} {value}\x00")


def build_corpus() -> str:
    blocks = []
    for argv in COMMANDS:
        out, err, code = run_cli(argv)
        blocks.append(f"$ anthill {' '.join(argv)}\n"
                      + (f"[stdout]\n{out}" if out else "")
                      + (f"[stderr]\n{err}" if err else "")
                      + f"[exit {code}]\n")
    for what, texts in (("base seed 1's trials 0-299, term, type and context "
                         "texts", trial_texts()),
                        ("20 generated programs, printed, translated and "
                         "run", program_texts())):
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        blocks.append(f"sha256 of {what}: {digest}\n")
    return "\n".join(blocks)


def test_outputs_match_the_corpus():
    assert build_corpus() == CORPUS.read_text()


def test_python_m_anthill_matches_main():
    argv = ["run", "--trace", "programs/native_call_error.upy"]
    done = subprocess.run([sys.executable, "-m", "anthill", *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (done.stdout, done.stderr, done.returncode) == run_cli(argv)
    assert done.returncode == 3


if __name__ == "__main__":
    CORPUS.write_text(build_corpus())
