"""Every function in ``src/mvor`` that no command of ``scripts/output_digests.py`` enters.

Usage: ``python3 scripts/unreached.py`` (no flags). Runs that script's
``main`` in this process under ``sys.setprofile``, with the profiler in
place before ``mvor`` is imported, so functions that run only at import
time count as entered. It then prints, sorted, ``path:Qualified.name`` for
every ``def`` under ``src/mvor`` (methods and nested functions too, named
as their ``__qualname__``) whose code was never entered. Exits 1 if the
digest run fails. ``tests/unreached.txt`` holds the list; a function that
loses its last command caller, or gains one, shows there.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mvor")


def _defs_of(tree: ast.Module, prefix: str = ""):
    """(first line of the code object, qualified name) of every def in
    ``tree``. A decorated function's code starts at its first decorator."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield min([node.lineno] + [d.lineno for d in node.decorator_list]), name
            yield from _defs_of(node, name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs_of(node, prefix + node.name + ".")


def package_defs() -> dict[tuple[str, int], str]:
    """(real path, first line) -> ``path:Qualified.name`` of every def
    under ``src/mvor``, its path relative to the checkout."""
    found = {}
    for root, _, names in os.walk(PACKAGE):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(root, name))
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
            for line, qualname in _defs_of(tree):
                found[(path, line)] = f"{rel}:{qualname}"
    return found


def entered_code(run) -> tuple[object, set[tuple[str, int]]]:
    """``run()``'s result and the (file, first line) of every Python code
    object it entered."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, {(os.path.realpath(path), line) for path, line in codes}


def run_digests() -> int:
    path = os.path.join(ROOT, "scripts", "output_digests.py")
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    with contextlib.redirect_stdout(io.StringIO()):
        spec.loader.exec_module(script)
        return script.main()


def main() -> int:
    rc, entered = entered_code(run_digests)
    if rc != 0:
        print(f"scripts/output_digests.py exited with {rc}", file=sys.stderr)
        return 1
    for key, name in sorted(package_defs().items(), key=lambda item: item[1]):
        if key not in entered:
            print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
