"""Source hygiene checks that need no linter: ast walks over src/qnls."""

import ast
from collections import Counter
from pathlib import Path

from qnls.config import EXPERIMENTS

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


def test_each_runner_reads_exactly_its_params_schema():
    # a key the schema lacks is a KeyError only a run finds, and a key no
    # runner reads is a setting that changes nothing
    tree = ast.parse((SRC / "experiments.py").read_text())
    runners = {node.name.removeprefix("run_"): node for node in tree.body if isinstance(node, ast.FunctionDef)}
    mismatched = {}
    for name, experiment in EXPERIMENTS.items():
        schema = experiment.params
        reads = {
            node.slice.value
            for node in ast.walk(runners[name])
            if isinstance(node, ast.Subscript)
            and ast.unparse(node.value) == "pm"
            and isinstance(node.slice, ast.Constant)
        }
        if reads != set(schema):
            mismatched[name] = {"unread": set(schema) - reads, "not in schema": reads - set(schema)}
    assert mismatched == {}, f"pm[...] reads differ from the records' params: {mismatched}"


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


POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _transform_reads(path: Path) -> tuple[list[str], list[str]]:
    """Lines of `path` that import pocketfft's c2c, and lines that read
    numpy.fft or scipy.fft's fft/ifft (as attributes or by import)."""
    c2c, other = [], []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            read = ast.unparse(node) in ("np.fft", "numpy.fft", "scipy.fft.fft", "scipy.fft.ifft")
        elif isinstance(node, ast.Import):
            read = any(alias.name.startswith("numpy.fft") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module, names = node.module or "", {alias.name for alias in node.names}
            if module == POCKETFFT and "c2c" in names:
                c2c.append(f"{path.name}:{node.lineno}")
            read = (
                module.startswith("numpy.fft")
                or (module == "numpy" and "fft" in names)
                or (module == "scipy.fft" and bool(names & {"fft", "ifft"}))
            )
        else:
            continue
        if read:
            other.append(f"{path.name}:{node.lineno}")
    return c2c, other


def test_every_transform_is_pocketfft_c2c():
    # spectral.synthesize and analyze call pocketfft's c2c binding; any other
    # FFT read in src/qnls would be a second transform path beside them
    reads = [_transform_reads(path) for path in sorted(SRC.glob("*.py"))]
    c2c = [hit for hits, _ in reads for hit in hits]
    other = [hit for _, hits in reads for hit in hits]
    assert [hit.split(":")[0] for hit in c2c] == ["spectral.py"], f"c2c imported at: {c2c}"
    assert other == [], f"numpy.fft or scipy.fft.fft/ifft read in src/qnls: {other}"


def _assigned_names(node: ast.AST) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_one_row_chunk_rule():
    # blocks are chunked by the one constant in spectral; the RK4 step of a
    # block runs only through _march, which chunks it and steps it in the
    # quintic pad's bin layout (_rk4_bins); one RK4 stage loop, _rk4, steps
    # both that layout and step's storage order
    defined, old_rule, callers = [], [], {"_rk4_bins": [], "_rk4": []}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        if "PAD_SAMPLES" in text:
            old_rule.append(path.name)
        defined += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and "CHUNK_SAMPLES" in _assigned_names(node)
        ]
        for top in tree.body:
            for node in ast.walk(top):
                name = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else None
                if name in callers:
                    callers[name].append(f"{path.name}:{getattr(top, 'name', '<module>')}")
    assert [hit.split(":")[0] for hit in defined] == ["spectral.py"], f"CHUNK_SAMPLES set at: {defined}"
    assert old_rule == [], f"PAD_SAMPLES named in: {old_rule}"
    assert sorted(set(callers["_rk4_bins"])) == ["flow.py:_march"], f"_rk4_bins called from: {callers['_rk4_bins']}"
    assert sorted(set(callers["_rk4"])) == ["flow.py:_rk4_bins", "flow.py:step"], f"_rk4 called from: {callers['_rk4']}"


def _per_iteration(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension evaluated once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.target, *node.body]
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        heads = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        gens = node.generators
        return [*heads, *(g.target for g in gens), *(i for g in gens for i in g.ifs), *(g.iter for g in gens[1:])]
    return []


def test_ensembles_are_drawn_as_one_block():
    # one sampling path: sample_mu draws a whole ensemble, so no loop or
    # comprehension in src/qnls calls it once per member
    calls, looped = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        repeated = {n for node in ast.walk(tree) for part in _per_iteration(node) for n in ast.walk(part)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "sample_mu":
                calls.append(f"{path.name}:{node.lineno}")
                if node in repeated:
                    looped.append(calls[-1])
    assert calls, "sample_mu is called nowhere in src/qnls"
    assert looped == [], f"sample_mu called in a loop at: {looped}"
