"""The package's public surface, and the names the benchmark's tracer binds."""

import ast
import contextlib
import importlib.util
import io
from pathlib import Path

import camech
from camech import cli, greedy, norm

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_export_resolves():
    assert [name for name in camech.__all__ if not hasattr(camech, name)] == []


def test_benchmark_tracer_binds_every_traced_name():
    # the tracer looks each traced function up in its owner's __dict__ and
    # reads the bundle_ratio_power cache; a renamed or uncached name fails here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = greedy.run_greedy
    # the parser's cache wrapper is what `main` calls, so wrapping it keeps
    # `cli.build_parser.calls` counting every call
    parser_builder = cli.build_parser
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert greedy.run_greedy is not original
        assert cli.build_parser is not parser_builder
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                assert cli.main(["gen", "--goods", "2", "--bids", "2", "--seed", "1"]) == 0
        calls = tracer.totals.calls
        assert calls["cli.build_parser"] == calls["cli.main"] == 2
    finally:
        tracer.uninstall()
    assert greedy.run_greedy is original
    assert cli.build_parser is parser_builder
    assert norm.bundle_ratio_power.cache_info().maxsize > 0


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_import_only_what_they_use():
    unused = {}
    for path in sorted((ROOT / "src" / "camech").glob("*.py")):
        if path.name == "__init__.py":  # imports names to re-export them
            continue
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}
