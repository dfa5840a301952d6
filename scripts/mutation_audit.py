#!/usr/bin/env python3
"""Mutation audit: which one-operator changes to a module do its tests miss?

    python3 scripts/mutation_audit.py polyring placecount
    python3 scripts/mutation_audit.py gfield --sample 40 --seed 1

Each mutant swaps one binary, augmented-assignment, boolean or comparison
operator of src/hermquot/<module>.py (+ and -, == and !=, < and <=, and
and or, ...).  The swap is made on the source text at the operator's own
tokens, so every other line keeps its text and its number.  The mutants
run in a temporary copy of the repository's src and tests, never in the
tree itself, one pytest child at a time on the module's own test file,
tests/test_<module>.py, with -x.  A mutant whose
tests fail is killed.  One that outlives its wall bound, five times the
unmutated run plus 10 s, is killed by timeout and listed.  One whose
tests pass survives, and is printed with its file, line and operators.

--sample N takes N sites per module, drawn with random.Random(--seed), in
place of every site.  The exit status is 0 whatever survives: the audit
is a report, not a gate.
"""

import argparse
import ast
import io
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

_ROOT = pathlib.Path(__file__).resolve().parent.parent

# operator class -> (its text, the class it becomes)
_SWAPS = {
    ast.Add: ("+", ast.Sub), ast.Sub: ("-", ast.Add),
    ast.Mult: ("*", ast.FloorDiv), ast.FloorDiv: ("//", ast.Mult),
    ast.Div: ("/", ast.Mult), ast.Mod: ("%", ast.FloorDiv), ast.Pow: ("**", ast.Mult),
    ast.LShift: ("<<", ast.RShift), ast.RShift: (">>", ast.LShift),
    ast.BitOr: ("|", ast.BitAnd), ast.BitAnd: ("&", ast.BitOr), ast.BitXor: ("^", ast.BitOr),
    ast.Eq: ("==", ast.NotEq), ast.NotEq: ("!=", ast.Eq),
    ast.Lt: ("<", ast.LtE), ast.LtE: ("<=", ast.Lt),
    ast.Gt: (">", ast.GtE), ast.GtE: (">=", ast.Gt),
    ast.Is: ("is", ast.IsNot), ast.IsNot: ("is not", ast.Is),
    ast.In: ("in", ast.NotIn), ast.NotIn: ("not in", ast.In),
    ast.And: ("and", ast.Or), ast.Or: ("or", ast.And),
}
_BRACKETS = set("()[]{},")


def _gaps(tree):
    """(op, aug, start, end) for every operator site: the operator, whether
    it is an augmented assignment's, and the source positions, as (line,
    col), between which its tokens lie."""
    # an f-string is one token, so the operators inside it have none
    in_fstrings = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                   for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mod) and isinstance(node.left, (ast.Constant, ast.JoinedStr)):
                continue  # string formatting, not arithmetic
            pairs = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            yield node.op, True, _end(node.target), _start(node.value)
            continue
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(op, a, b) for op, a, b in zip(node.ops, operands, operands[1:])]
        elif isinstance(node, ast.BoolOp):
            pairs = [(node.op, a, b) for a, b in zip(node.values, node.values[1:])]
        else:
            continue
        for op, a, b in pairs:
            yield op, False, _end(a), _start(b)


def _start(node):
    return node.lineno, node.col_offset


def _end(node):
    return node.end_lineno, node.end_col_offset


def sites(source: str):
    """(line, start, end, old, new) for every operator the audit swaps,
    in source order: start and end are offsets into source, and old is
    the text there."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    # tokenize counts columns in characters, ast in UTF-8 bytes: char_col
    # converts ast's
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME) and t.string not in _BRACKETS]

    def char_col(line, byte_col):
        return len(lines[line - 1].encode()[:byte_col].decode())

    out = []
    for op, aug, (l0, c0), (l1, c1) in _gaps(ast.parse(source)):
        if type(op) not in _SWAPS:
            continue
        lo, hi = (l0, char_col(l0, c0)), (l1, char_col(l1, c1))
        toks = [t for t in tokens if lo <= t.start and t.end <= hi]
        old, new_cls = _SWAPS[type(op)]
        suffix = "=" if aug else ""
        if " ".join(t.string for t in toks) != old + suffix:
            raise ValueError(f"line {l0}: expected {old + suffix!r} between the operands")
        a = starts[toks[0].start[0] - 1] + toks[0].start[1]
        b = starts[toks[-1].end[0] - 1] + toks[-1].end[1]
        out.append((toks[0].start[0], a, b, source[a:b], _SWAPS[new_cls][0] + suffix))
    return sorted(out, key=lambda s: s[1])


def _run_tests(tree: pathlib.Path, tests, timeout):
    """(passed, seconds); passed is None on timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0
    return proc.returncode == 0, time.perf_counter() - t0


def audit(tree: pathlib.Path, module: str, sample, seed):
    """Run every mutant of one module; return (survivors, timeouts, count)."""
    path = tree / "src" / "hermquot" / f"{module}.py"
    tests = [f"tests/test_{module}.py"]
    if not (tree / tests[0]).exists():
        raise SystemExit(f"{module}: no {tests[0]} to run")
    source = path.read_text()
    found = sites(source)
    if sample is not None and sample < len(found):
        found = sorted(random.Random(seed).sample(found, sample), key=lambda s: s[1])
    ok, base = _run_tests(tree, tests, None)
    if not ok:
        raise SystemExit(f"{module}: the unmutated tests fail; nothing to audit")
    timeout = 5 * base + 10
    print(f"{module}: {len(found)} mutants, tests take {base:.1f} s, bound {timeout:.0f} s",
          flush=True)
    survivors, timeouts = [], []
    try:
        for line, a, b, old, new in found:
            path.write_text(source[:a] + new + source[b:])
            passed, _ = _run_tests(tree, tests, timeout)
            site = (f"src/hermquot/{module}.py", line, old, new)
            if passed is None:
                timeouts.append(site)
            elif passed:
                survivors.append(site)
    finally:
        path.write_text(source)
    return survivors, timeouts, len(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", help="package modules, e.g. polyring placecount")
    ap.add_argument("--sample", type=int, help="mutants per module, drawn at random")
    ap.add_argument("--seed", type=int, default=0, help="seed of the sample")
    ns = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutation_audit_") as tmp:
        tree = pathlib.Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(_ROOT / name, tree / name, ignore=ignore)
        for module in ns.modules:
            survivors, timeouts, n = audit(tree, module, ns.sample, ns.seed)
            print(f"{module}: {n - len(survivors)} of {n} killed, "
                  f"{len(timeouts)} of them by timeout; {len(survivors)} survive")
            for kind, rows in (("survives", survivors), ("timeout", timeouts)):
                for file, line, old, new in rows:
                    print(f"  {kind}  {file}:{line}  {old} -> {new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
