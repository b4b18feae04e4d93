"""Print the three size figures of the package: its line count, as
``wc -l src/gnndsim/*.py src/gnndsim/codec/*.py`` gives it, the number of
defaulted parameters over every function and lambda, and the number of
``ExperimentConfig`` fields, its options; the last two are counted with ``ast``.

    python scripts/code_size.py [repository root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def package_files(root: Path) -> list[Path]:
    src = root / "src" / "gnndsim"
    return sorted(src.glob("*.py")) + sorted((src / "codec").glob("*.py"))


def defaulted_parameters(tree: ast.AST) -> int:
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def config_fields(tree: ast.AST) -> int:
    return sum(isinstance(stmt, ast.AnnAssign)
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig"
               for stmt in node.body)


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    texts = [p.read_text() for p in package_files(root)]
    print(f"lines {sum(t.count(chr(10)) for t in texts)}")
    print(f"defaulted parameters {sum(defaulted_parameters(ast.parse(t)) for t in texts)}")
    print(f"config fields {sum(config_fields(ast.parse(t)) for t in texts)}")


if __name__ == "__main__":
    main(sys.argv)
