"""The package ships only code that some program path runs.

Two gates: the op kinds `iemf.tensor` registers are exactly those that
training (both neuron modes), LwF continual learning and fusion sharpness
record on their tapes; and every module-level name in `src/iemf/`, public or
private (dunders aside), is read by the package itself, except the listed
ones. A helper only the tests need lives under `tests/` (see
`reference_ops.py`).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import iemf
from iemf.analysis import sharpness
from iemf.continual import build_task_stream, train_incremental
from iemf.data import DataSpec, generate
from iemf.model import ModelConfig, init_model
from iemf.neurons import LIFParams
from iemf.tensor import Tape
from iemf.training import OptimConfig, train

SRC = Path(iemf.__file__).resolve().parent

# (module, name) pairs defined at module level that nothing in the package reads
UNREAD = {
    ("model", "lif_step"): "`bench/spans.py` wraps it by name",
}


def registered_ops() -> list[str]:
    """The op kinds `import iemf` registers, read in a fresh interpreter, so
    that ops the tests register themselves do not count."""
    code = "import iemf, iemf.tensor as T; print(' '.join(sorted(T._OPS)))"
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


def test_registered_ops_are_the_ones_the_program_records(monkeypatch):
    tapes = []
    init = Tape.__init__

    def recording_init(self):
        init(self)
        tapes.append(self)

    monkeypatch.setattr(Tape, "__init__", recording_init)
    ds = generate(DataSpec(n_classes=4, d_a=4, d_v=4, train_per_class=6, test_per_class=2, seed=0))
    cfg = OptimConfig(eta=1e-2, epochs=1, batch_size=8, seed=0)
    shape = dict(d_in_a=4, d_in_v=4, n_classes=4, hidden=5, latent=4)
    continuous = init_model(ModelConfig(**shape), 0)
    spiking = init_model(ModelConfig(**shape, neuron_mode="spiking", lif=LIFParams(t_steps=2)), 0)
    train(ds, continuous, cfg)
    train(ds, spiking, cfg)
    train_incremental(build_task_stream(ds, 2, 2, 0), "lwf", init_model(ModelConfig(**shape), 0),
                      cfg)
    sharpness(continuous, ds, ball_radius=0.05, n_probes=1, ascent_steps=1, seed=0)
    recorded = {node.op for tape in tapes for node in tape.nodes}
    assert "leaf" in recorded
    assert registered_ops() == sorted(recorded - {"leaf"})


def _module_aliases(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """({local name: (module, name)} for `from .m import name`,
    {local name: module} for `from . import m`), over every import in `tree`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines, dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        found = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        found = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        found = [stmt.target.id]
    else:
        found = []
    return [name for name in found if not name.startswith("__")]


def unread_names(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) pairs of module-level definitions in `sources`
    ({module: source}) that no module reads outside the definition itself.

    A read is a loaded name that resolves, through `from .m import` chains, to
    the definition, or an attribute of a module imported as `from . import m`.
    `__init__` re-exports and reads nothing.
    """
    trees = {m: ast.parse(src) for m, src in sources.items()}
    aliases = {m: _module_aliases(tree) for m, tree in trees.items()}
    defined = {(m, name) for m, tree in trees.items() for stmt in tree.body
               for name in _defined(stmt)}

    def origin(module: str, name: str) -> tuple[str, str]:
        while name in aliases.get(module, ({}, {}))[0]:
            module, name = aliases[module][0][name]
        return module, name

    read = set()
    for m, tree in trees.items():
        if m == "__init__":
            continue
        names, modules = aliases[m]
        for stmt in tree.body:
            own = {(m, name) for name in _defined(stmt)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = origin(m, node.id) if node.id in names else (m, node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    key = origin(modules[node.value.id], node.attr)
                else:
                    continue
                if key not in own:
                    read.add(key)
    return defined - read


def test_public_names_are_read_by_the_package_except_the_listed_ones():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_names(sources) == set(UNREAD)


def test_an_unread_public_name_is_found():
    sources = {
        "a": "from . import b as B\nfrom .b import used\n\n"
             "def main():\n    return used() + B.CONST\n\nmain()\n",
        "b": "__all__ = []\nCONST = 1\nSPARE = 2\n_LIMIT = 3\n\n"
             "def used():\n    return _helper(_LIMIT)\n\ndef _helper(n):\n    return n\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\ndef _private():\n    pass\n",
        "__init__": "from .b import SPARE, recursive\n",
    }
    assert unread_names(sources) == {("b", "SPARE"), ("b", "recursive"), ("b", "_private")}
