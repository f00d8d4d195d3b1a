import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hwconsensus"


def test_no_assert_in_the_package():
    # python -O compiles assert statements away, so no check may be one
    paths = sorted(PACKAGE.glob("*.py"))
    assert "analysis.py" in [p.name for p in paths]
    found = [f"{p.name}:{node.lineno}" for p in paths
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []
