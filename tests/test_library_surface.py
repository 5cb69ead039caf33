"""The library keeps no method, and no private module-level function or
constant, that only its tests read; its records are immutable."""

import ast
import dataclasses

import pytest

from conftest import DATA_DIR, REPO_ROOT
from roughfca import (
    PipelineConfig,
    approx,
    cut_graph,
    fca,
    ordering,
    pipeline,
    proximity,
    rough_approximation,
    run_pipeline,
    search_alpha_beta,
    table,
)

LIBRARY = sorted((REPO_ROOT / "src" / "roughfca").glob("*.py"))
BENCHMARK = sorted(path for path in (REPO_ROOT / "perfbench").glob("*.py")
                   if not path.name.startswith("test_"))


def _parsed(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _names_read(paths):
    """Every name read in the files, as a variable (``name``) or as an
    attribute (``x.name``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for _, tree in _parsed(paths) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_method_is_read_outside_the_tests():
    """Each public method or property of a class in ``src/roughfca`` must be
    read as an attribute (``x.name``) somewhere in the library or the
    benchmark, test files excluded.  The check matches by name alone, so a
    name that some other object's attribute also has, such as ``column``,
    can hide an unused method."""
    read = {node.attr for _, tree in _parsed(LIBRARY + BENCHMARK) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}: {cls.name}.{item.name}"
              for path, tree in _parsed(LIBRARY)
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for item in cls.body if isinstance(item, ast.FunctionDef)
              and not item.name.startswith("_") and item.name not in read]
    assert not unread, unread


def test_no_class_defines_its_own_equality_or_sequence_protocol():
    """No class in ``src/roughfca`` defines or assigns ``__eq__``,
    ``__hash__``, ``__getitem__``, ``__iter__`` or ``__len__``.  A result is
    plain data: a dataclass, a named tuple or an array, compared and read
    as such, and not a view that builds its items or its equality itself."""
    protocol = {"__eq__", "__hash__", "__getitem__", "__iter__", "__len__"}

    def names(item):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return [item.name]
        targets = (item.targets if isinstance(item, ast.Assign)
                   else [item.target] if isinstance(item, ast.AnnAssign) else [])
        return [t.id for t in targets if isinstance(t, ast.Name)]

    defined = [f"{path.name}: {cls.name}.{name}"
               for path, tree in _parsed(LIBRARY)
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for item in cls.body for name in names(item) if name in protocol]
    assert not defined, defined


def test_every_private_module_name_is_read_outside_the_tests():
    """Each private function or constant defined at the top level of a
    module in ``src/roughfca`` must be read somewhere in the library or the
    benchmark, test files excluded, so that no helper lives on for its
    tests alone.  It matches by name, as the method check does."""
    read = _names_read(LIBRARY + BENCHMARK)
    defined = []
    for path, tree in _parsed(LIBRARY):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path, t.id) for t in targets if isinstance(t, ast.Name)]
    unread = [f"{path.name}: {name}" for path, name in defined
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not unread, unread


def test_every_export_is_read_outside_the_tests():
    """Each name in ``roughfca.__all__`` must be read somewhere in
    ``src/roughfca`` outside ``__init__.py``, or in the benchmark, test files
    excluded, so that no export lives on for its tests alone.  It matches by
    name, as the checks above do."""
    import roughfca

    read = _names_read([path for path in LIBRARY if path.name != "__init__.py"] + BENCHMARK)
    # the paper's rough-set reading of the clusters, which no stage computes
    # yet: ROADMAP item 9 gives it a command
    unread = sorted(set(roughfca.__all__) - read - {"rough_approximation"})
    assert not unread, unread


def test_only_in_stage_turns_a_failure_into_a_stage_error():
    """No ``except`` handler in ``src/roughfca`` raises StageError: a
    failure becomes one through ``pipeline.in_stage`` alone, and a direct
    refusal raises it outside any handler."""
    def raises_stage_error(node):
        call = node.exc if isinstance(node, ast.Raise) else None
        func = call.func if isinstance(call, ast.Call) else call
        return (func.id if isinstance(func, ast.Name)
                else getattr(func, "attr", None)) == "StageError"

    converting = [f"{path.name}:{node.lineno}" for path, tree in _parsed(LIBRARY)
                  for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
                  for node in ast.walk(handler) if raises_stage_error(node)]
    assert not converting, converting


def test_no_library_code_reads_a_dense_degree_matrix():
    """``src/roughfca`` reads no ``.mu`` or ``.nu`` attribute.  A relation's
    ``mu`` and ``nu`` compute the n x n matrices on each read, for the tests
    and the benchmark's count; the library reads degrees through ``rows``, a
    block of rows at a time, and so holds no n x n array."""
    reads = [f"{path.name}:{node.lineno}" for path, tree in _parsed(LIBRARY)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("mu", "nu")]
    assert not reads, reads


#: Modules that ``src/roughfca`` loads only where it needs them: numpy to
#: hold a relation's value column or compute its degrees, hashlib to write
#: a file and decimal to round a near-tie.
DEFERRED = ("numpy", "hashlib", "decimal")


def test_numpy_is_imported_only_inside_functions():
    """``src/roughfca`` imports numpy, hashlib and decimal only inside a
    function body or under ``if TYPE_CHECKING:``: importing the package
    must not load them."""
    def eager_imports(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                yield from eager_imports(node.orelse)
                continue
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(module.partition(".")[0] in DEFERRED for module in modules):
                yield node
            yield from eager_imports(ast.iter_child_nodes(node))

    eager = [f"{path.name}:{node.lineno}" for path, tree in _parsed(LIBRARY)
             for node in eager_imports(tree.body)]
    assert not eager, eager


#: Every record class of the library by name: a dataclass or a named tuple.
RECORDS = {name: value for module in (approx, fca, ordering, pipeline, proximity, table)
           for name, value in vars(module).items()
           if isinstance(value, type) and value.__module__ == module.__name__
           and (dataclasses.is_dataclass(value) or issubclass(value, tuple))}


@pytest.fixture(scope="module")
def records():
    """One instance of each record, by class name, from a bundled run."""
    config = PipelineConfig.from_file(DATA_DIR / "institutions_config.json")
    report = run_pipeline(config)
    analysis = report.analyses[0]
    name, partition = next(iter(report.partitions.items()))
    relation = report.relations[name]
    found = [report, config, config.cut, config.attributes[0], report.table, relation, partition,
             report.ordered, report.ordered.columns[0], report.ordered.columns[0].ladder,
             report.ranks, report.ranks.rows[0], report.clusters[0], analysis, analysis.context,
             analysis.concepts[0], analysis.basis[0], analysis.frequencies,
             analysis.frequencies.rows[0], cut_graph(relation, config.cut),
             rough_approximation(partition, set(partition.blocks[0])),
             search_alpha_beta(report.table, {name: partition}, step=0.1)]
    return {type(record).__name__: record for record in found}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_record_is_immutable(records, name):
    """Assigning any field of a record, named tuple or frozen dataclass,
    raises AttributeError."""
    record = records[name]
    assert type(record) is RECORDS[name]
    fields = (record._fields if isinstance(record, tuple)
              else [field.name for field in dataclasses.fields(record)])
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
