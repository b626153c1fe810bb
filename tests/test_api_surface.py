"""Every public top-level function and class in src/omniclone, and every
public method and property of those classes, has a caller in src/, scripts/
or perfbench/, so API that only tests reach does not build up again.

A name counts as called when it appears as a name or an attribute outside
its own definition, and a class's definition includes its methods; an
import alone, such as a re-export in a package __init__, does not count,
and neither does a name that the enclosing function or lambda binds itself
(a parameter or an assignment target), since that is a local variable.
Methods are matched by name alone, as functions are, so a method whose name
other code also uses passes. Names kept on purpose sit in KEPT with a
reason.

BENCHMARK_ONLY lists, exactly, the names whose only callers outside tests/
are in perfbench/, with what perfbench uses each for: a change to the
benchmark that moves off one may delete it. The scan cannot see two more
that perfbench keeps: MotionClip.frames, whose only caller outside tests/
is perfbench (StreamPacket.frames shares the name), and MotionClip's
constructor from a Frame sequence (a constructor has no name), whose one
other caller is retarget.retargeted_clip.
"""
import ast
import copy
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "scripts", "perfbench")

KEPT = {
    "echo_latency": "the README sends users of a remote server to it",
    "discrepancy_report": "the retarget error report that ROADMAP item 2 extends",
}

BENCHMARK_ONLY = {
    "parse_report_json": "reads back the report of each eval pass to check it",
    "track_clip": "the traced eval run's shadow span simtrack.track_clip",
    "packet_frame_from_motion": "the teleop and VLA paths' Frame-to-wire step",
    "joint_pos_array": "a clip's joints, for the reference pd report and the traced FK shadow",
    "root_pos_array": "a clip's roots, for the reference pd report and the traced FK shadow",
    "root_quat_array": "a clip's root orientations, for the same two",
    "body_pos_array": "a clip's key bodies, for the reference pd report",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(function) -> set[str]:
    """The names a function or lambda binds itself: its parameters and the
    names it assigns, not those of the functions and lambdas nested in it."""
    a = function.args
    bound = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def _names(node, local: frozenset[str] = frozenset()) -> set[str]:
    """The names and attribute names under node, less the names that an
    enclosing function or lambda binds."""
    if isinstance(node, FUNCTIONS):
        local = local | _bound(node)
    if isinstance(node, ast.Name):
        return set() if node.id in local else {node.id}
    names = {node.attr} if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        names |= _names(child, local)
    return names


def _units(stmt) -> list[tuple[set[str], set[str]]]:
    """(owners, names) for a top-level statement: the names under it and the
    names whose definition it is. A class gives one unit for its own body
    and one for each of its methods."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [({stmt.name}, _names(stmt))]
    if not isinstance(stmt, ast.ClassDef):
        return [(set(), _names(stmt))]
    methods = [m for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    shell = copy.copy(stmt)
    shell.body = [s for s in stmt.body if s not in methods]
    return [({stmt.name}, _names(shell))] + [({stmt.name, m.name}, _names(m)) for m in methods]


def _scan():
    """(defined, named): each public src/ name with its file, and the names
    that each of SCANNED uses."""
    defined: dict[str, str] = {}
    named: dict[str, set[str]] = {top: set() for top in SCANNED}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                for owners, names in _units(stmt):
                    if top == "src":
                        public = (o for o in owners if not o.startswith("_"))
                        defined.update(dict.fromkeys(public, str(path.relative_to(ROOT))))
                    named[top] |= names - owners
    return defined, named


def test_every_public_name_has_a_caller():
    defined, named = _scan()
    named = set().union(*named.values())
    uncalled = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if name not in named and name not in KEPT
    )
    assert not uncalled, "public API that no command, script or benchmark reaches: " + ", ".join(uncalled)


def test_kept_names_are_still_defined_and_uncalled():
    defined, named = _scan()
    named = set().union(*named.values())
    stale = sorted(name for name in KEPT if name not in defined or name in named)
    assert not stale, f"drop these from KEPT: {stale}"


def test_benchmark_only_names_are_exact():
    defined, named = _scan()
    outside = named["src"] | named["scripts"]
    only = {name for name in defined if name in named["perfbench"] and name not in outside}
    assert only == set(BENCHMARK_ONLY)
