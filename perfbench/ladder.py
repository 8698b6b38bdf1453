"""Depth ladder: the longest `let`-chain each layer handles.

Each layer is given chains from a fixed doubling ladder and reports the
last rung it handled: without an exception and, for `verifies`, with
the chain verifying at its tag. The counts are untimed; they
make the layers' recursion on program depth visible in the benchmark.
"""

from __future__ import annotations

RUNGS = tuple(250 * 2 ** i for i in range(7))   # 250 ... 16000
RUNTIME_BUDGET = 3


def let_chain(U, n: int):
    """let x0 = 7 in let x1 = x0 in ... in xn, built without recursion."""
    e = U.UVar(f"x{n}")
    for i in range(n, 0, -1):
        e = U.ULet(f"x{i}", U.UVar(f"x{i - 1}"), e)
    return U.ULet("x0", U.UInt(7), e)


def chain_text(n: int) -> str:
    parts = ["let x0 = 7 in "]
    parts.extend(f"let x{i} = x{i - 1} in " for i in range(1, n + 1))
    parts.append(f"x{n}")
    return "".join(parts)


def depth_ladder(A) -> dict[str, int]:
    U = A.upython
    layers = {
        "parser": lambda n: A.parse_upython(chain_text(n)),
        "printer": lambda n: A.print_upython(let_chain(U, n)),
        "verify": lambda n: A.verifies((), {}, let_chain(U, n), A.INT_TAG),
        "runtime": lambda n: A.run(let_chain(U, n), None, RUNTIME_BUDGET),
    }
    out = {}
    for layer, attempt in layers.items():
        best = 0
        for n in RUNGS:
            try:
                if attempt(n) is False:
                    break
            except Exception:
                break
            best = n
        out[f"{layer}.max_depth_ok"] = best
    return out
