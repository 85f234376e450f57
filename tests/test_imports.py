"""Every name a module imports is read by its code, except the listed ones.

`bench/spans.py` rebinds some module attributes by name, so a few modules
import names only to keep them rebindable; they are listed here, and nowhere
else, so that removing one is a deliberate edit.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iemf"

# (module, name) pairs imported only for the benchmark's tracer
BENCH_ONLY = {
    ("continual", "backward"),
    ("continual", "batch_strength_scores"),
    ("continual", "iemf_coefficient"),
    ("continual", "per_sample_content"),
    ("continual", "sgd_step"),
}


def unread_imports(source: str) -> set[str]:
    """Names bound by import statements that no expression loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_unread_imports_are_exactly_the_bench_only_names():
    found = {(path.stem, name)
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for name in unread_imports(path.read_text(encoding="utf-8"))}
    assert found == BENCH_ONLY


def test_an_unread_import_is_found():
    source = "from .tensor import Tape, Tensor\nimport numpy as np\nx = np.zeros(1)\nTensor(x)\n"
    assert unread_imports(source) == {"Tape"}
