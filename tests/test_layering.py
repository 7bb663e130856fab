"""Each module keeps its own decisions: no code in `src/evflex` reads a private (underscore)
attribute of an object other than `self` or `cls`, so a module's layout stays its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "evflex"


def foreign_private_reads(source: str) -> list[str]:
    """Each `owner._name` in `source` (dunders aside) whose owner is not `self` or `cls`."""
    reads = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr.startswith("_")
             and not (node.attr.startswith("__") and node.attr.endswith("__"))
             and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in sorted(reads, key=lambda node: (node.lineno, node.col_offset))]


def test_the_guard_sees_a_foreign_read():
    assert foreign_private_reads("schedule._ptr\nself._ptr\ncls._table\nx.__dict__\n") == \
        ["1: schedule._ptr"]


def test_no_module_reads_another_objects_private_attributes():
    found = {path.name: reads for path in sorted(SRC.glob("*.py"))
             if (reads := foreign_private_reads(path.read_text()))}
    assert found == {}
