"""Line audit: list every statement line in src/surro that tier-1 never executes.

Run from the repository root:

    PYTHONPATH=src python tests/line_audit.py [pytest args...]

The script installs a line tracer with `sys.settrace` and
`threading.settrace`, runs the tier-1 suite in this process through
`pytest.main` (extra arguments are passed on; the default is `tests`), then
prints each unexecuted statement as `path:line: source` and a summary count.
It exits 1 when an unexecuted statement is not in KNOWN, matched by path and
stripped source (not by line number), or when a KNOWN count is left over
because tier-1 now executes (or the source no longer has) that statement, and
otherwise with pytest's status.
A statement line is one that starts an `ast.stmt` node and carries bytecode,
so docstrings, blank lines, comments and continuation lines are not counted.
Tests that run `surro` in a subprocess are not traced: lines that only those
tests reach are reported as unexecuted.

The file does not match pytest's `test_*.py` pattern, so tier-1 never
collects it.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "surro"

# The statements tier-1 does not reach, each kept for a reason: the interface stubs a
# custom domain, map or objective implements; the `__main__` exit, reached only by the
# untraced subprocess tests; the pulled-back problem's eval_q, which FD curvature never
# reads but a whole SurrogateProblem needs; sweep.worker_count, which the benchmark reads.
KNOWN = Counter({
    ("src/surro/cli.py", "sys.exit(main())"): 1,
    ("src/surro/domains.py", "raise NotImplementedError"): 5,
    ("src/surro/mirror_maps.py", "raise NotImplementedError"): 4,
    ("src/surro/objectives.py", "raise NotImplementedError"): 3,
    ("src/surro/rates.py",
     "return problem.eval_q(np.atleast_1d(psi(theta)), np.atleast_1d(psi(u)))"): 1,
    ("src/surro/sweep.py", "return 1"): 1,
})


def statement_lines(path: Path) -> set[int]:
    """Lines of `path` that start a statement and carry bytecode."""
    source = path.read_text()
    tree = ast.parse(source)
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {node.body[0].lineno for node in ast.walk(tree)
                  if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None}
    starts = {n.lineno for n in ast.walk(tree) if isinstance(n, ast.stmt)} - docstrings

    with_code = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & with_code


def main(argv: list[str]) -> int:
    files = {str(p): statement_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of src/surro get the line tracer
        return local if frame.f_code.co_filename in hits else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, total, known = 0, 0, KNOWN.copy()
    new = []
    for name, lines in files.items():
        total += len(lines)
        source = Path(name).read_text().splitlines()
        rel = Path(name).relative_to(ROOT)
        for line in sorted(lines - hits[name]):
            missed += 1
            key = (rel.as_posix(), source[line - 1].strip())
            entry = f"{rel}:{line}: {key[1]}"
            print(entry)
            if known[key] > 0:
                known[key] -= 1
            else:
                new.append(entry)
    print(f"{missed} of {total} statement lines in src/surro never executed "
          f"(pytest exit {int(status)})")
    for entry in new:
        print(f"not in KNOWN: {entry}")
    stale = [f"KNOWN but executed: {path}: {text}" for path, text in known.elements()]
    for entry in stale:
        print(entry)
    return 1 if new or stale else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
