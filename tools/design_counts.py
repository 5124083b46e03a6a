"""Print the design counts of src/: its line count and its settable values.

    python3 tools/design_counts.py [SRC_DIR]

Settable values are counted from the AST: every parameter of a function or
lambda (positional, keyword-only, *args and **kwargs) except self and cls,
plus every annotated field of a class decorated with @dataclass.  SRC_DIR
defaults to the src/ directory next to this script's parent.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def counts(tree: ast.AST) -> tuple[int, int]:
    """(parameters, dataclass fields) of one module."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            params += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return params, fields


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    files = sorted(src.rglob("*.py"))
    if not files:
        print(f"error: no Python files under {src}", file=sys.stderr)
        return 2
    lines = params = fields = 0
    for path in files:
        text = path.read_text()
        lines += len(text.splitlines())
        p, f = counts(ast.parse(text, filename=str(path)))
        params += p
        fields += f
    print(f"src lines: {lines}")
    print(f"settable values: {params} parameters + {fields} dataclass fields = {params + fields}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
