"""List the named functions of ``src/diracmech`` that no shipped input reaches.

    python3 scripts/reach.py

Runs a fixed set of inputs in this process under ``sys.setprofile``: every
shipped scenario with all five structure checks, ``check`` on each, one
``--sweep``, both forms of ``list-systems`` and all six demos.  The package
is first imported under the profiler too, so the calls it makes at import
(the system catalog is built then) count.  Prints JSON
with the number of named functions (methods and nested functions included;
lambdas and class bodies left out), the number reached, and each unreached
one as ``file:line name``, with ``name`` qualified by its enclosing class or
function.  A function counts as reached when its code object is called once.
"""

import ast
import contextlib
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diracmech"
sys.path.insert(0, str(ROOT / "src"))

SWEEP = ("euler_top.json", "J3=2.5:3.5:2")


def functions():
    """{(path, first line): "file:line name"} of every named function in the
    package; the first line is a decorator's when there is one, as in
    ``co_firstlineno``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        rel = path.relative_to(ROOT).as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{rel}:{child.lineno} {prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def report(actions):
    """Run each zero-argument callable under the profiler, with its output
    discarded, and return the counts and the unreached functions."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        sys.setprofile(profile)
        try:
            for action in actions:
                action()
        finally:
            sys.setprofile(None)
    found = functions()
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    unreached = [name for key, name in found.items()
                 if (os.path.realpath(key[0]), key[1]) not in reached]
    return {"functions": len(found), "reached": len(found) - len(unreached),
            "unreached": unreached}


def _cli(argv):
    from diracmech import cli  # the first import runs under the profiler

    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"diracmech {' '.join(argv)} exited {code}")


def shipped_inputs(tmp):
    """The fixed inputs, writing into the directory ``tmp``."""
    def run_checked(path):
        from diracmech.checks import CHECK_NAMES

        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["checks"] = list(CHECK_NAMES)
        checked = tmp / path.name
        checked.write_text(json.dumps(doc), encoding="utf-8")
        _cli(["run", str(checked), "--out", str(tmp / "run" / path.stem)])

    actions = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        actions.append(lambda p=path: run_checked(p))
        actions.append(lambda p=path: _cli(["check", str(p), "--out", str(tmp / "check" / p.stem)]))
    name, spec = SWEEP
    actions.append(lambda: _cli(["run", str(ROOT / "scenarios" / name),
                                 "--out", str(tmp / "sweep"), "--sweep", spec]))
    actions.append(lambda: _cli(["list-systems"]))
    actions.append(lambda: _cli(["list-systems", "--json"]))
    actions += [lambda p=path: runpy.run_path(str(p), run_name="__main__")
                for path in sorted((ROOT / "demos").glob("*.py"))]
    return actions


def main():
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(report(shipped_inputs(Path(tmp))), indent=2))


if __name__ == "__main__":
    main()
