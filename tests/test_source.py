"""Source hygiene checks that need no linter: only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qnls"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == [], f"imported but never used: {unused}"


def _reads_cfg_flow(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Attribute)
        and n.attr == "flow"
        and isinstance(n.value, ast.Name)
        and n.value.id == "cfg"
        for n in ast.walk(node)
    )


def test_config_flows_are_replaced_not_rebuilt():
    # FlowParams(sigma=cfg.flow.sigma, ...) silently drops every [flow] key it
    # does not name; a flow derived from the config is replace(cfg.flow, ...)
    tree = ast.parse((SRC / "experiments.py").read_text())
    rebuilt = [
        f"experiments.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "FlowParams"
        and any(_reads_cfg_flow(arg) for arg in [*node.args, *node.keywords])
    ]
    assert rebuilt == [], f"FlowParams built from cfg.flow fields: {rebuilt}"
