"""The package API the benchmark harness in ``perfbench/`` calls.

The harness is kept fixed while the package changes, so a removal from
the package must not break it.  These checks read the harness source and
never run a replay.
"""

import ast
import importlib
from pathlib import Path

import pytest

from iconcap import CleaningConfig, CorrelateStore, build_dataset
from iconcap.metrics import EvalConfig, MetricReport

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def package_imports(path):
    """``(module, name)`` for every name ``path`` imports from iconcap."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "iconcap"
            for alias in node.names]


HARNESS_IMPORTS = [(path.name, module, name)
                   for path in sorted(PERFBENCH.glob("*.py"))
                   for module, name in package_imports(path)]


def test_tracing_imports_are_found():
    assert any(file == "tracing.py" for file, _, _ in HARNESS_IMPORTS)


@pytest.mark.parametrize("file,module,name", HARNESS_IMPORTS)
def test_harness_import_resolves(file, module, name):
    assert hasattr(importlib.import_module(module), name), \
        f"perfbench/{file} imports {name} from {module}"


def test_called_members_remain():
    assert callable(MetricReport.to_json)
    records, report = build_dataset([], CorrelateStore({}), CleaningConfig(),
                                    parent_fallback=False, jobs=1)
    assert records == [] and report.input == 0
    assert EvalConfig(jobs=1).max_n == 4
