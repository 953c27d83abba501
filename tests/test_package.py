"""The package's public names: ``permrad.__all__``, what it re-exports, and
that every public name in the sources is reached from the sources."""

import ast
import inspect
from pathlib import Path

import pytest

import permrad

# retired names, each replaced by one entry point: the per-channel bounds by
# block_error_bounds and pairwise_errors, ChannelParams by check_channel, the
# detectors' objective and statistic helpers and the brute-force detector by
# test-side oracles, the radar cuts by complex_af, crlb_full by
# crlb_from_fisher, AFGrid by af_grid's array, and crlb_simplified by the
# inverse of fisher_matrix's diagonal (its formulas are a test-side oracle);
# simulate's --receiver and --mode labels are the CLI's own choices, and
# ComplexSignal by synthesize's sample array
RETIRED = (
    "ChannelParams",
    "union_bound_awgn",
    "union_bound_rician",
    "union_bound_rayleigh",
    "nn_awgn",
    "nn_rician",
    "nn_rayleigh",
    "pairwise_rician",
    "assignment_score",
    "statistic_matrices",
    "exhaustive_detect",
    "permutation_table",
    "MAX_EXHAUSTIVE_M",
    "CapabilityError",
    "zero_doppler_cut",
    "zero_delay_cut",
    "ridge_covariance",
    "crlb_full",
    "AFGrid",
    "crlb_simplified",
    "RECEIVERS",
    "MODES",
    "ComplexSignal",
)


def test_all_is_exactly_the_public_names_the_package_imports():
    defined = {
        name for name, value in vars(permrad).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(permrad.__all__) == len(set(permrad.__all__))
    assert set(permrad.__all__) == defined


def test_every_exported_name_imports():
    namespace = {}
    exec("from permrad import *", namespace)
    for name in permrad.__all__:
        assert namespace[name] is getattr(permrad, name)


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name):
    assert name not in permrad.__all__
    assert not hasattr(permrad, name)
    submodules = [value for value in vars(permrad).values() if inspect.ismodule(value)]
    assert submodules and not any(hasattr(module, name) for module in submodules)


def _public_definitions(tree):
    """(name, node) of each public top-level def, class and UPPER constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _loaded_names(node):
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def _source_trees():
    # the re-exports in __init__ do not count as a use
    sources = Path(permrad.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(sources.glob("*.py")) if path.name != "__init__.py"}


def test_every_public_name_in_the_sources_is_reached_from_the_sources():
    # a name only tests reach belongs in the tests
    trees = _source_trees()
    statements = [(stmt, _loaded_names(stmt)) for tree in trees.values() for stmt in tree.body]
    unreached = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _public_definitions(tree)
        if not any(name in loaded for stmt, loaded in statements if stmt is not node)
    ]
    assert unreached == []


def test_every_dataclass_field_is_read_in_the_sources():
    # a field that only tests read belongs in the tests; matched by name, as
    # above: an attribute read of that name anywhere in the sources counts
    trees = _source_trees()
    read = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}:{node.name}.{field.target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and field.target.id not in read
    ]
    assert unread == []


def _defaults(tree):
    """(label, owner, name, position, field) of each defaulted parameter of
    a def and each defaulted field of a dataclass: the callee that sets it,
    its name, the index of the positional argument that sets it (None for a
    keyword-only parameter) and whether it is a dataclass field."""
    methods = {id(f) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for f in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            receiver = id(node) in methods  # a method's self comes from the call's receiver
            for i, arg in enumerate(positional[first:], start=first - receiver):
                yield f"{node.name}({arg.arg}=)", node.name, arg.arg, i, False
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{node.name}({arg.arg}=)", node.name, arg.arg, None, False
        elif isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield f"{node.name}.{f.target.id}", node.name, f.target.id, i, True


def _sets(call, owner, name, position, field):
    """Whether ``call`` passes ``name`` to ``owner``: by keyword, by position
    (a starred argument counts for every position) or, for a dataclass
    field, through replace(...)."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    by_keyword = any(k.arg == name for k in call.keywords)
    if field and called == "replace":
        return by_keyword
    by_position = position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )
    return called == owner and (by_keyword or by_position)


def test_every_default_is_overridden_in_the_sources():
    # a default that no call in the sources sets is a constant, or a knob
    # only tests turn; callees are matched by name, as above.  main's argv
    # is exempt: it is the console entry point's, called with no arguments
    trees = _source_trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = [
        f"{module}:{label}"
        for module, tree in trees.items()
        for label, *target in _defaults(tree)
        if not any(_sets(call, *target) for call in calls)
    ]
    assert [u for u in unset if u != "cli.py:main(argv=)"] == []


# the names through which a module could start a process, each as its
# dotted parts
_PROCESS_NAMES = [name.split(".") for name in (
    "concurrent.futures", "ProcessPoolExecutor", "multiprocessing", "subprocess", "os.fork",
)]


def _dotted_names(tree):
    """The dotted name of each import and of each name or attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            yield ast.unparse(node)


def _names_a_process(dotted):
    parts = dotted.split(".")
    return any(parts[i:i + len(name)] == name
               for name in _PROCESS_NAMES for i in range(len(parts)))


def test_only_simkit_starts_processes():
    # simulate's trial blocks are the one place a process pool pays
    sources = Path(permrad.__file__).parent
    starters = sorted(
        f"{path.name}:{dotted}"
        for path in sources.glob("*.py") if path.name != "simkit.py"
        for dotted in set(_dotted_names(ast.parse(path.read_text(encoding="utf-8"))))
        if _names_a_process(dotted)
    )
    assert starters == []
