"""Mutation check: small edits of `src/iemf` and whether tier-1 kills them.

Run as `python tests/mutants.py` for every row of `MUTANTS`, or with row
numbers (`python tests/mutants.py 0 4`). For each row it copies `src/`, with
the tests, configs and bench files they read, into a temporary directory,
applies the edit there, runs tier-1 on the copy with `-x`, and prints killed
or survived with the first failing test. A row that names a test file runs
that file alone, so it asserts that this file kills the edit. It exits 1 if a
row's outcome differs from its expectation: `killed`, or
`equivalent: <reason>` for an edit that cannot change what the package
computes. A survivor is mended by a test that kills it, by deleting the code
it lives in, or by an `equivalent` row.

Pytest does not collect this file; `tests/test_shipped_code.py` checks that
each row's original text occurs exactly once in its file. A killed mutant
costs a few seconds to half a minute, a survivor a full tier-1 run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "bench", "pyproject.toml")
# checks this table against the unmutated sources, so it fails on every copy
TABLE_TEST = "tests/test_shipped_code.py::test_each_mutant_row_edits_text_that_occurs_once"

# (file under src/iemf, original text, replacement, expectation[, test path])
MUTANTS = [
    ("analysis.py", "if gn < 1e-18:", "if gn < 1e-3:", "killed"),
    ("cli.py", "omega = flops / epoch", "omega = flops", "killed"),
    ("modulation.py", "if s_multimodal <= EPS_DIV:", "if s_multimodal < EPS_DIV:", "killed"),
    ("continual.py", "MASK_NEG = -1e30", "MASK_NEG = -1e3", "killed"),
    ("modulation.py", "g = min(max(g, -_GATE_LIMIT), _GATE_LIMIT)", "g = min(g, _GATE_LIMIT)",
     "killed"),
    ("modulation.py", "g = min(max(g, -_GATE_LIMIT), _GATE_LIMIT)", "g = max(g, -_GATE_LIMIT)",
     "equivalent: the scores are probabilities, so the gate reads 1 - s_uni / s_multi <= 1,"
     " where every gating is below 0.77"),
    ("modulation.py", "(a + v).sum() / (2.0 * a.shape[0])", "(a + v).sum() / a.shape[0]",
     "killed"),
    ("training.py", "cfg.weight_decay if pid.endswith(\".W\") else 0.0", "cfg.weight_decay",
     "killed"),
    ("continual.py", "for ell in range(j, k))", "for ell in range(k - 1, k))", "killed"),
    ("data.py", "drop_v = rng.random(n) < spec.drop_prob_v",
     "drop_v = rng.random(n) < spec.drop_prob_a", "killed"),
    ("tensor.py", "(4 * ins[0].shape[1] + 3)", "(4 * ins[0].shape[1] + 2)", "killed"),
    ("tensor.py", "if g is None or not need:", "if g is None:", "killed"),
    ("tensor.py", "np.zeros(sum([size for _, size in params]))",
     "np.ones(sum([size for _, size in params]))", "killed"),
    ("training.py", "if np.shape(grad) != model.flat.shape:", "if False:", "killed"),
    ("container.py", "entries = {entry.name: entry for entry in header.sections}",
     "entries = {entry.name: entry for entry in header.sections"
     " if entry.decode(payload).size >= 0}",
     "killed"),
    ("container.py", "expected.get(pid) != tuple(entries[pid].shape))",
     "expected.get(pid) != entries[pid].decode(payload).shape)", "killed"),
    ("tensor.py",
     "    total = steps[0]\n    for step in steps[1:]:\n        total = total + step\n",
     "    total = steps.sum(axis=0)\n", "killed", "tests/test_tensor.py"),
    ("modulation.py", "sgd_step(model, backward(tape, out.loss), cfg, xi)",
     "sgd_step(model, backward(tape, out.loss), cfg, 1.0)", "killed", "tests/test_acceptance.py"),
]


def run(row: int, work: Path) -> tuple[bool, str]:
    """(killed, first failing test) of one row, tested on a fresh copy under `work`."""
    name, original, replacement, _, *tests = MUTANTS[row]
    copy = work / f"row{row}"
    for item in COPIED:
        src = ROOT / item
        if src.is_dir():
            shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, copy / item)
    path = copy / "src" / "iemf" / name
    text = path.read_text()
    if text.count(original) != 1:
        raise SystemExit(f"row {row}: {original!r} does not occur exactly once in {name}")
    path.write_text(text.replace(original, replacement))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                           "-p", "no:cacheprovider", "--deselect", TABLE_TEST,
                           *(tests or ["tests"])],
                          cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode != 0, failed[0] if failed else f"exit status {done.returncode}"


def main(argv: list[str]) -> int:
    rows = [int(arg) for arg in argv] or range(len(MUTANTS))
    unexpected = 0
    with tempfile.TemporaryDirectory() as work:
        for row in rows:
            name, original, replacement, expected, *_ = MUTANTS[row]
            killed, first = run(row, Path(work))
            unexpected += killed != (expected == "killed")
            print(f"{row:2d} {name}: {original!r} -> {replacement!r}: "
                  f"{'killed by ' + first if killed else 'survived'} (expected {expected})",
                  flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
