"""List the executable lines of ``src/`` that a pytest run never reaches.

    python tools/reach.py              # the tier-1 suite under tests/
    python tools/reach.py -k flat      # extra arguments go to pytest

hypothesis draws with ``--hypothesis-seed=0`` unless the arguments give a
seed, so two runs on the same tree report the same lines.

pytest runs in this process under a ``sys.settrace`` line tracer that
records only frames of files under ``src/``; a module's executable lines
are the line numbers of its compiled code objects.  Prints each module's
unreached lines, then the totals.  About five times slower than pytest.
"""
import os
import sys
import types
from collections import defaultdict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
hits = defaultdict(set)


def _line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(SRC) else None


def executable(path):
    with open(path, encoding="utf-8") as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines |= {line for _, _, line in code.co_lines() if line}  # 0: a module's entry
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(args):
    import pytest

    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if not any(a.startswith("--hypothesis-seed") for a in args):
        args = ["--hypothesis-seed=0", *args]
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(os.path.dirname(SRC), "tests"), *args])
    finally:
        sys.settrace(None)
    total = unreached = 0
    for folder, _, files in sorted(os.walk(SRC)):
        for path in sorted(os.path.join(folder, f) for f in files if f.endswith(".py")):
            lines = executable(path)
            missed = sorted(lines - hits[path])
            total, unreached = total + len(lines), unreached + len(missed)
            if missed:
                print(f"{os.path.relpath(path, SRC)}: {len(missed)} unreached: {' '.join(map(str, missed))}")
    print(f"unreached {unreached} of {total} executable lines (pytest exit {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
