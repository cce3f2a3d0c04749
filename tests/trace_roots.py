"""List the functions under ``src/repro`` that no run root ever calls.

Usage, from the repository root (stdlib only; about 12 minutes on a
2-core machine)::

    python tests/trace_roots.py
    python tests/trace_roots.py --lines src/repro/controlplane repro.core.viprip

It copies ``src``, ``bench``, ``benchmarks``, ``examples`` and
``pyproject.toml`` into a temporary directory, so the results the roots
write never touch the checkout, and runs every root in ``ROOTS`` there.
A generated ``sitecustomize`` on ``PYTHONPATH`` installs a
``sys.settrace`` hook in every Python process the roots start.  The hook records each code object
under ``src/repro`` by its file, first line and name, and returns ``None``
so no line is traced.  Each process writes what it saw at exit and in
``os._exit``, so forked pool workers count too.

The report lists every function and method outside ``repro.testing``
whose code never ran, with its line count, then the totals.

``--lines MODULE...`` also traces the named modules line by line (a
module is a dotted name, such as ``repro.core.viprip``, or a file or
directory path under ``src``; a package or directory means every file in
it) and lists, per file, the statements no root executed, as line
ranges.  A statement is one the compiler emits code for (docstrings and
``global`` declarations are not), and it counts as executed when any
line of it ran: its whole extent for a simple statement, its header for
a compound one.  A function
the static guard (``test_reachability.py``) lets through can still be
dead: that guard matches names, this matches calls.  The exit status is
1 if a root failed, since its calls would then be missing.

The file name does not match pytest's ``test_*.py``, so the suite does
not collect it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "bench", "benchmarks", "examples", "pyproject.toml")
EXCLUDED = ("repro/testing",)
WORKLOADS = ("fleet_steady", "fleet_pressure", "steer_heavy", "faults_overload")

#: Every entry point a user or a CI lane runs, as argv after the interpreter.
ROOTS: list[list[str]] = [
    ["-m", "repro", "run", "all"],
    ["-m", "repro", "quickstart"],
    ["-m", "repro", "faults"],
    ["-m", "repro", "faults", "--serialized", "--fail-link"],
    ["-m", "repro", "controlplane"],
    ["-m", "repro", "controlplane", "--shards", "1", "--shards", "2",
     "--shards", "4"],
    ["-m", "repro", "mega", "--quick", "--faults", "--out", "lane-out"],
    ["-m", "repro", "dataplane", "--quick", "--out", "lane-out"],
    ["-m", "repro", "bench", "--quick", "--out", "lane-out"],
    *[["examples/" + p.name] for p in sorted((REPO / "examples").glob("*.py"))],
    ["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"],
    *[
        ["-m", "bench.worker", "--workload", w, "--seed", "0",
         "--seconds", "15", "--smoke", *trace]
        for w in WORKLOADS
        for trace in ([], ["--trace", "1"])
    ],
]

HOOK = '''\
import os
import sys
import threading

_ROOT = {root!r}
_OUT = {out!r}
_LINED = {lined!r}
_SEEN = set()
_HITS = set()


def _line(frame, event, arg):
    if event == "line":
        _HITS.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _hook(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_ROOT):
        _SEEN.add((code.co_filename, code.co_firstlineno, code.co_name))
        if code.co_filename in _LINED:
            return _line
    return None


def _dump():
    path = os.path.join(_OUT, "%d.txt" % os.getpid())
    with open(path, "a") as fh:
        for filename, line, name in _SEEN:
            fh.write("%s\\t%d\\t%s\\n" % (filename, line, name))
        for filename, line in _HITS:
            fh.write("%s\\t%d\\n" % (filename, line))
    _SEEN.clear()
    _HITS.clear()


_exit = os._exit


def _dump_and_exit(status):
    _dump()
    _exit(status)


os._exit = _dump_and_exit
__import__("atexit").register(_dump)
sys.settrace(_hook)
threading.settrace(_hook)
'''


def functions(src: pathlib.Path) -> dict[tuple[str, int, str], int]:
    """``(file, first line, name) -> line count`` for every function and
    method under *src*/repro outside ``EXCLUDED``.  The first line is the
    first decorator's, as in ``co_firstlineno``."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(EXCLUDED):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found[str(path), first, node.name] = node.end_lineno - first + 1
    return found


def traced_files(src: pathlib.Path, modules: list[str]) -> list[pathlib.Path]:
    """The ``.py`` files under *src* that the ``--lines`` arguments name."""
    files = []
    for module in modules:
        if "/" in module or module.endswith(".py"):
            path = src / module.removeprefix("src/")
        else:
            path = src / module.replace(".", "/")
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        elif path.with_suffix(".py").is_file():
            files.append(path.with_suffix(".py"))
        else:
            raise SystemExit(f"--lines: no module {module!r} under src")
    return files


def statements(path: pathlib.Path) -> list[tuple[int, int]]:
    """``(first, last)`` line spans of the statements in *path* the
    compiler emits code for: a simple statement's whole extent, a compound
    statement's header (up to its first nested statement)."""
    text = path.read_text()
    code_lines: set[int] = set()
    codes = [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    spans = []
    for node in ast.walk(ast.parse(text, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        nested = [
            child.lineno
            for name in ("body", "orelse", "finalbody", "handlers")
            for child in getattr(node, name, ())
        ]
        last = min(nested) - 1 if nested else node.end_lineno
        span = (node.lineno, max(node.lineno, last))
        if any(line in code_lines for line in range(span[0], span[1] + 1)):
            spans.append(span)
    return sorted(set(spans))


def unexecuted(path: pathlib.Path, hits: set[int]) -> tuple[list[str], int, int]:
    """Ranges of the statements of *path* that no line of *hits* falls
    in, the count of those statements, and the count of all of them."""
    spans = statements(path)
    missed = [
        not any(line in hits for line in range(first, last + 1))
        for first, last in spans
    ]
    ranges = []
    i = 0
    while i < len(spans):
        if not missed[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(spans) and missed[j + 1]:
            j += 1
        first, last = spans[i][0], spans[j][1]
        ranges.append(f"{first}-{last}" if last > first else str(first))
        i = j + 1
    return ranges, sum(missed), len(spans)


def main(args: list[str]) -> int:
    if args and args[0] != "--lines" or args == ["--lines"]:
        raise SystemExit("usage: trace_roots.py [--lines MODULE...]")
    with tempfile.TemporaryDirectory(prefix="trace-roots-") as tmp:
        work = pathlib.Path(tmp)
        for name in COPIED:
            if (REPO / name).is_file():
                shutil.copy(REPO / name, work / name)
            else:
                shutil.copytree(
                    REPO / name, work / name,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
                )
        hook_dir, out_dir = work / "hook", work / "seen"
        hook_dir.mkdir()
        out_dir.mkdir()
        src = work / "src"
        lined = traced_files(src, args[1:])
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(
                root=str(src / "repro") + os.sep, out=str(out_dir),
                lined=frozenset(map(str, lined)),
            )
        )
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join([str(hook_dir), str(src)])
        )
        failed = []
        for argv in ROOTS:
            print("running", " ".join(argv), flush=True)
            proc = subprocess.run(
                [sys.executable, *argv], cwd=work, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                failed.append(" ".join(argv))
                print(proc.stderr[-2000:], file=sys.stderr)
        seen = set()
        hits: dict[str, set[int]] = {}
        for dump in out_dir.iterdir():
            for row in dump.read_text().splitlines():
                filename, line, *name = row.split("\t")
                if name:
                    seen.add((filename, int(line), name[0]))
                else:
                    hits.setdefault(filename, set()).add(int(line))
        defined = functions(src)
        never = sorted(key for key in defined if key not in seen)
        print()
        for filename, line, name in never:
            rel = pathlib.Path(filename).relative_to(work).as_posix()
            print(f"{rel}:{line} {name} ({defined[filename, line, name]} lines)")
        print(
            f"\n{len(never)} of {len(defined)} functions never called "
            f"({sum(defined[k] for k in never)} lines)"
        )
        if lined:
            print()
            total = missed_total = 0
            for path in lined:
                ranges, missed, count = unexecuted(path, hits.get(str(path), set()))
                total += count
                missed_total += missed
                rel = path.relative_to(work).as_posix()
                print(f"{rel}: {missed} of {count} statements never executed")
                if ranges:
                    print("  " + ", ".join(ranges))
            print(f"\n{missed_total} of {total} statements never executed")
    for argv in failed:
        print(f"root failed: {argv}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
