"""Every public top-level function and class in src/omniclone has a caller
in src/, scripts/ or perfbench/, so API that only tests reach does not
build up again.

A name counts as called when it appears as a name or an attribute outside
its own definition; an import alone, such as a re-export in a package
__init__, does not count. Names kept on purpose sit in KEPT with a reason.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "scripts", "perfbench")

KEPT = {
    "echo_latency": "the README sends users of a remote server to it",
    "discrepancy_report": "the retarget error report that ROADMAP item 8 extends",
}


def _scan():
    defined: dict[str, str] = {}
    named: set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                names = {
                    node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt)
                    if isinstance(node, (ast.Name, ast.Attribute))
                }
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.discard(stmt.name)
                    if top == "src" and not stmt.name.startswith("_"):
                        defined[stmt.name] = str(path.relative_to(ROOT))
                named |= names
    return defined, named


def test_every_public_name_has_a_caller():
    defined, named = _scan()
    uncalled = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if name not in named and name not in KEPT
    )
    assert not uncalled, "public API that no command, script or benchmark reaches: " + ", ".join(uncalled)


def test_kept_names_are_still_defined_and_uncalled():
    defined, named = _scan()
    stale = sorted(name for name in KEPT if name not in defined or name in named)
    assert not stale, f"drop these from KEPT: {stale}"
