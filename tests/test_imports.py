"""Every engine module uses each name it imports, every function each
parameter it takes, and no module writes an attribute of a module. Every
kernel runs in its caller's workspace: no ``ws`` parameter has a default,
and only the two top-level runs make a Workspace. Only attention.chunk_rows
gathers attention rows. The oracles write one softmax and run in float64
with no casts of their own."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chunkasr"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in ``source`` and never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in set(bound) if name not in read)


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for every parameter of a function or lambda in
    ``source`` that its body never reads; names starting with ``_`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}.{p}" for p in params if not p.startswith("_") and p not in read]
    return sorted(found)


def defaulted_parameters(source: str, name: str) -> list[str]:
    """Every function or lambda in ``source`` whose parameter ``name`` has a
    default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] + [
            p for p, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
        if any(p.arg == name for p in defaulted):
            found.append(getattr(node, "name", "<lambda>"))
    return sorted(found)


def functions_taking(source: str, name: str) -> list[str]:
    """Every function or lambda in ``source`` that takes a parameter ``name``,
    of any kind."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        if any(p is not None and p.arg == name for p in params):
            found.append(getattr(node, "name", "<lambda>"))
    return sorted(found)


def calls_of(source: str, callee: str) -> list[str]:
    """The innermost function around each call of ``callee`` in ``source``, a
    plain or a module-qualified name; ``<module>`` for a call outside any."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.append(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = getattr(node, "name", "<lambda>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def module_attribute_writes(source: str) -> list[tuple[int, str]]:
    """(line, target) of every write (assignment, deletion, setattr/delattr)
    to an attribute of a name that ``source`` imports as a module: by a plain
    import, or by a from-import of one of this package's modules."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= {a.asname or a.name for a in node.names if f"{a.name}.py" in MODULES}

    def written(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                yield from written(t)
        elif isinstance(target, ast.Starred):
            yield from written(target.value)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                and target.value.id in modules:
            yield target.lineno, f"{target.value.id}.{target.attr}"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("setattr", "delattr") and node.args:
            found += written(ast.Attribute(node.args[0], "<dynamic>", lineno=node.lineno))
        # assignments, deletions, augmented assignments, for-loop targets
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            found += written(target)
    return sorted(found)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import numpy as np\nfrom a import b, c as d\n"
              "def f():\n    from e import g\n    return np.zeros(b)\n")
    assert unused_imports(source) == ["d", "g", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_finds_unused_parameters():
    source = ("def f(a, b=1, *args, c, _d, **kw):\n    b = a\n    return args\n"
              "def g(x, *_):\n    def h(y):\n        return x\n    return h\n"
              "k = lambda u, v, _w: u\n")
    assert unused_parameters(source) == ["<lambda>.v", "f.b", "f.c", "f.kw", "h.y"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_parameter(module):
    assert unused_parameters((PACKAGE / module).read_text()) == []


def test_checker_finds_defaulted_workspaces_and_their_makers():
    source = ("ws = Workspace()\n"
              "def f(a, ws=None, b=2):\n    return functional.Workspace().split(a, ws, b)\n"
              "def g(ws, *, c=1, d):\n    def h(x, *, ws=0):\n        return Workspace(x)\n"
              "    return h(ws, c, d)\n"
              "def k(x, ws, /, y=1, *args, **kw):\n    return x.Workspace\n"
              "m = lambda u, ws=1: Workspace\nn = lambda: Workspace()\n")
    assert defaulted_parameters(source, "ws") == ["<lambda>", "f", "h"]
    assert calls_of(source, "Workspace") == ["<lambda>", "<module>", "f", "h"]


def test_no_workspace_parameter_has_a_default():
    found = [f"{module[:-3]}.{fn}" for module in MODULES
             for fn in defaulted_parameters((PACKAGE / module).read_text(), "ws")]
    assert found == []


def test_only_the_top_level_runs_make_a_workspace():
    # encode_full makes the one workspace of an encode; the selftest makes
    # one it never enters for the engine calls it makes itself
    found = [f"{module[:-3]}.{fn}" for module in ["__init__.py", *MODULES]
             for fn in calls_of((PACKAGE / module).read_text(), "Workspace")]
    assert found == ["encoder.encode_full", "oracle.run_selftest"]


def test_checker_finds_calls_through_a_module_and_inside_methods():
    source = ("from . import chunking\nfrom .chunking import oct_segment\n"
              "def chunk_rows(kv):\n    def run():\n        pass\n"
              "    return chunking.oct_segment(kv, run())\n"
              "class C:\n    def m(self):\n        return [oct_segment(x) for x in self]\n"
              "gather = chunking.oct_segment\nrows = gather(0)\n")
    assert calls_of(source, "oct_segment") == ["chunk_rows", "m"]


def test_only_chunk_rows_gathers_attention_rows():
    # the engine and the selftest build their rows in one place, so the row
    # heads, each row's bounds and the query inputs have one derivation
    found = [f"{module[:-3]}.{fn}" for module in ["__init__.py", *MODULES]
             for fn in calls_of((PACKAGE / module).read_text(), "oct_segment")]
    assert found == ["attention.chunk_rows"]


def test_checker_finds_module_attribute_writes():
    source = ("import numpy as np\nfrom . import chunking, ctc as c\n"
              "from .chunking import oct_segment\n"
              "def f(batch):\n    chunking.oct_segment = f\n    batch.rows = 0\n"
              "    np.x, batch.mask = 1, 2\n    c.y += 1\n    setattr(chunking, 'z', 0)\n"
              "    setattr(batch, 'rows', 0)\n    oct_segment.w = 1\n"
              "    del chunking.oct_segment\n    chunking.oct_segment(batch)\n"
              "    for *c.v, batch.mask in batch:\n        pass\n")
    assert module_attribute_writes(source) == [
        (5, "chunking.oct_segment"), (7, "np.x"), (8, "c.y"), (9, "chunking.<dynamic>"),
        (12, "chunking.oct_segment"), (14, "c.v")]


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_module_writes_no_module_attribute(module):
    assert module_attribute_writes((PACKAGE / module).read_text()) == []


# The oracles are the independent spec of the engine: they may share only
# parameter containers and pure primitives with it, never an engine kernel.
# run_selftest's function-level imports are the engine under test.
ORACLE_SHARES = {"AttentionParams", "rel_pos_encoding", "ContextConfig", "ModelConfig",
                 "EncoderWeights", "cast_params", "sigmoid", "swish", "glu", "layer_norm"}


def package_imports(source: str) -> list[str]:
    """Names that ``source`` imports from this package outside any function."""
    found = []

    def visit(node):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "chunkasr"):
            found.extend(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.extend(a.name for a in node.names if a.name.split(".")[0] == "chunkasr")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_checker_finds_package_imports():
    source = ("import numpy as np\nfrom numpy import linalg\nfrom .a import b\n"
              "import chunkasr.encoder\nfrom chunkasr.x import y as z\n"
              "if np:\n    from . import w\nclass C:\n    from .v import u\n"
              "def f():\n    from .e import g\n")
    assert package_imports(source) == ["b", "chunkasr.encoder", "u", "w", "y"]


def test_oracle_imports_only_containers_and_primitives():
    assert set(package_imports((PACKAGE / "oracle.py").read_text())) <= ORACLE_SHARES


def test_checker_finds_functions_taking_a_parameter():
    source = ("def f(a, dtype=None):\n    return a\n"
              "def g(x, /, *, dtype):\n    def h(dtype, /):\n        return dtype\n"
              "    return h(x)\n"
              "def k(*dtype, **kw):\n    return kw\ndef m(**dtype):\n    return dtype\n"
              "n = lambda u, dtype: u\ndef q(x):\n    return x.dtype\n")
    assert functions_taking(source, "dtype") == ["<lambda>", "f", "g", "h", "k", "m"]


def test_checker_finds_calls_through_numpy():
    source = ("import numpy as np\nfrom numpy import exp\n"
              "def softmax(e):\n    return np.exp(e) / np.exp(e).sum()\n"
              "def f(e):\n    return [exp(x) for x in e] + [np.expm1(e), e.exp]\n")
    assert calls_of(source, "exp") == ["f", "softmax", "softmax"]


def test_oracle_writes_one_softmax():
    # both oracles run _relative_attention, so they share one formula
    assert set(calls_of((PACKAGE / "oracle.py").read_text(), "exp")) == {"_relative_attention"}


def test_oracle_casts_only_what_the_selftest_hands_the_engine():
    # the oracles run in float64 because full_subsample casts the features
    # once; run_selftest casts the parameters of the engine calls it makes
    source = (PACKAGE / "oracle.py").read_text()
    assert set(calls_of(source, "cast_params")) == {"run_selftest"}
    assert functions_taking(source, "dtype") == []
