"""Source hygiene checks that need no linter: only the standard library."""

import ast
from collections import Counter
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


def test_experiment_configs_come_only_from_parse_config():
    # one construction path, so every config passes the parse-time checks
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (ast.walk is breadth first)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        sites += [
            f"{path.name}:{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ExperimentConfig"
        ]
    assert sites == ["config.py:parse_config"]


def test_configs_are_not_edited_past_the_parser():
    # every dataclass config.py and cli.py handle is an ExperimentConfig or one
    # of its sections; replace() on one would skip the parse-time checks
    edits = [
        f"{name}:{node.lineno}"
        for name in ("config.py", "cli.py")
        for node in ast.walk(ast.parse((SRC / name).read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("replace", "dataclasses.replace")
    ]
    assert edits == [], f"configs edited with dataclasses.replace: {edits}"


PERFBENCH = SRC.parents[1] / "perfbench"


def _identifiers(tree: ast.AST, strings: bool = False) -> Counter:
    """Reads of names and attributes in `tree`, and string constants if asked
    (the benchmark's tracer looks its targets up by name)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_every_src_name_has_a_caller():
    # __init__.py only re-exports, so its names do not count as callers
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    reads = sum((_identifiers(tree) for tree in trees.values()), Counter())
    reads += sum((_identifiers(ast.parse(p.read_text()), strings=True) for p in PERFBENCH.rglob("*.py")), Counter())
    tops = [(name, node) for name, tree in trees.items() for node in tree.body]
    tops = [(name, node) for name, node in tops if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    # a read inside the definition itself (recursion) is no caller
    uncalled = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in tops
        if reads[node.name] == _identifiers(node)[node.name]
    ]
    assert uncalled == [], f"defined in src/qnls but never called: {uncalled}"


def test_experiments_name_fourier_field_only_to_step():
    # every experiment computes on (B, 2M+1) coefficient rows but
    # plane_wave_order, which steps one FourierField with flow.step because the
    # benchmark's tracer test checks that it patches experiments.step
    tree = ast.parse((SRC / "experiments.py").read_text())
    [pw] = [node for node in tree.body if getattr(node, "name", None) == "run_plane_wave_order"]
    imports = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert _identifiers(tree)["FourierField"] == _identifiers(pw)["FourierField"] == 1
    assert imports.count("FourierField") == 1


def _numpy_fft_reads(path: Path) -> list[str]:
    """Lines of `path` that read numpy.fft, as np.fft / numpy.fft or by import."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            read = ast.unparse(node) in ("np.fft", "numpy.fft")
        elif isinstance(node, ast.Import):
            read = any(alias.name.startswith("numpy.fft") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            read = (node.module or "").startswith("numpy.fft") or (node.module == "numpy" and "fft" in names)
        else:
            continue
        if read:
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_every_transform_is_scipy_fft():
    # spectral.synthesize and analyze run scipy.fft; a numpy.fft read anywhere
    # in src/qnls would be a second FFT backend beside them
    reads = [hit for path in sorted(SRC.glob("*.py")) for hit in _numpy_fft_reads(path)]
    assert reads == [], f"numpy.fft read in src/qnls: {reads}"
