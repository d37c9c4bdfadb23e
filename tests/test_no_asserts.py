"""Static checks of the package source, with the standard library's ``ast``.

The package keeps no ``assert``: ``python -O`` strips them, and every
self-check of a certificate must still run there, so checks raise instead.
No module but ``__init__.py`` imports a name it never uses, so a rewrite
leaves no dangling import behind.  No module takes the members of
``homeo._chart(...)`` by position, by subscript or by unpacking: they are
named, so a new member cannot shift the others.  No ``__post_init__`` calls
``int(``: a constructor takes its integers by ``operator.index``, which
refuses a float, a Fraction or a string where ``int`` would truncate or
parse it, and none checks ``isinstance(..., int)``, which refuses an integer
type that ``operator.index`` takes, so integers have one rule.  The arc of a
circle value has one rule, ``homeo._chart``'s ``arc``: nothing else calls
``arc_floor``.  Only ``homeo.py`` reads an mpf's ``_mpf_``, so a point's raw
value comes from one place.  No module calls mpmath's ``workprec``: the
package rounds in libmp at the precision it names, and never sets mpmath's
global precision.  The refusal of a declared non-quadratic base point is
written once, in ``lineargroup``, whose rule every caller asks."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "circleconj"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))  # a re-exported name counts as used
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def _is_chart_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_chart"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_chart_members_are_taken_by_name(path):
    lines = []
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.Subscript, ast.Starred)) and _is_chart_call(node.value):
            lines.append(node.lineno)
        elif isinstance(node, ast.Assign) and _is_chart_call(node.value):
            lines += [node.lineno for t in node.targets if isinstance(t, (ast.Tuple, ast.List))]
    assert lines == [], f"{path.name} takes _chart members by position on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_post_init_truncates_with_int(path):
    lines = [
        call.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "int"
    ]
    assert lines == [], f"{path.name} calls int() in a __post_init__ on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_post_init_checks_isinstance_int(path):
    lines = [
        call.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
        and len(call.args) == 2 and getattr(call.args[1], "id", None) == "int"
    ]
    assert lines == [], f"{path.name} checks isinstance(..., int) in a __post_init__ on lines {lines}"


def test_only_chart_calls_arc_floor():
    lines = []
    for path in MODULES:
        tree, inside = parse(path), set()
        if path.name == "homeo.py":
            chart = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_chart")
            inside = set(map(id, ast.walk(chart)))
        lines += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and "arc_floor" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert lines == [], f"arc_floor is called outside homeo._chart at {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "homeo.py"], ids=lambda p: p.name)
def test_only_homeo_reads_mpf_bits(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Attribute) and node.attr == "_mpf_"]
    assert lines == [], f"{path.name} reads ._mpf_ on lines {lines}"


def test_no_module_calls_workprec():
    lines = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and "workprec" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert lines == [], f"workprec is called at {lines}"


def test_the_refusal_of_a_declared_base_point_is_written_once():
    places = [
        f"{path.name}:{number}"
        for path in MODULES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "declared non-quadratic base point has no exact" in line
    ]
    assert len(places) == 1, f"the refusal is written at {places}"
