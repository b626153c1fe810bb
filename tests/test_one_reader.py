"""Exactly one module in src/ parses input files and stdin: omniclone/files.py,
so every command answers a bad input the same way. A `json.load`,
`json.loads` or `sys.stdin` anywhere else fails this test, except in the
parsers listed in ALLOWED with a reason.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "omniclone"
READER = SRC / "files.py"
PARSERS = {("json", "load"), ("json", "loads"), ("sys", "stdin")}
ALLOWED = {
    ("kinematics.py", "load_reference_model"): "parses a resource bundled with the package",
    ("bench.py", "parse_report_json"): "parses report text its caller already holds",
}


def _parses_input(node) -> bool:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in PARSERS
    if isinstance(node, ast.ImportFrom) and node.module in ("json", "sys"):
        return any((node.module, alias.name) in PARSERS for alias in node.names)
    return False


def test_only_the_reader_parses_input():
    offences, allowed_found = [], set()
    for path in sorted(SRC.rglob("*.py")):
        if path == READER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = []
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in ALLOWED:
                spans.append((fn.lineno, fn.end_lineno))
                allowed_found.add((path.name, fn.name))
        offences += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if _parses_input(node) and not any(lo <= node.lineno <= hi for lo, hi in spans)
        ]
    assert not offences, "parse input through omniclone.files, not here: " + ", ".join(offences)
    assert allowed_found == set(ALLOWED), f"drop from ALLOWED: {set(ALLOWED) - allowed_found}"
