"""The package exposes no code path that only tests reach.

Every module-level function or class, and every method, in
``src/shardgraph`` must be referenced by name somewhere in ``src/`` or
``perfbench/`` other than on its own definition line: as a name in the code,
or as a string literal equal to the name (the benchmark tracer wraps calls
looked up by name).  Comments and docstrings do not count.  This holds for
the public names and for the private ones (``_name``, not a dunder), so a
helper whose last caller is gone is caught too.

Nor does it keep write-only state: every attribute the package assigns on
``self`` must be read somewhere in ``src/`` or ``perfbench/``.

And every annotation of a function or method it defines names something the
defining module can resolve, and every name a module imports it also uses,
in the tests too.
Nor do its docstrings and comments name, between double backticks, an
identifier that no code, builtin or identifier string literal in the package
defines, such as deleted state; a name followed by ``*`` is a pattern.

Nor does importing it load the stdlib's introspection modules, which every
run would pay for in set-up time.

Nor does a function or method it defines, or a NamedTuple field, keep a
keyword default that only tests use: some call in ``src/`` or ``perfbench/``
must leave each default out.  Calls are resolved by name as the reference
checks resolve them: a call's name is its callee's name or attribute, a
class's name calls its ``__init__`` or builds its NamedTuple, and
``cls(...)`` in a classmethod calls its own class.

And each name of a closed name set, the adversary kinds and the
reorg-trigger modes, is spelled once in the package, as one string literal;
every other use goes through the constant that holds it.

Nor does a module read, assign or import another module's private name:
under src/ and perfbench/ none does, and under tests/ only the adapter
tests/oracles.py reads the engine's internals, so a change of the store's
layout edits hashgraph.py and oracles.py alone.

And the committee table has one writer: no code outside ``CommitteeTable``
stores into, deletes from or pops its ``assignment``, and none under src/
or perfbench/ sorts it, so the member lists the table keeps beside it
cannot go stale and no reader rebuilds them.
"""

import ast
import builtins
import importlib
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
import typing
from collections import defaultdict
from pathlib import Path

import shardgraph
from shardgraph.config import ADVERSARY_KINDS
from shardgraph.reconfig import TRIGGER_MODES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shardgraph"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(private=False):
    """(file, line, name) of each module-level def or class and each
    method of a module-level class: the public ones, or given private the
    private ones, each a ``_name`` that is not a dunder."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else ()
            for d in (node, *members):
                if (isinstance(d, DEFS) and not is_dunder(d.name)
                        and d.name.startswith("_") == private):
                    yield path.relative_to(ROOT), d.lineno, d.name


def references(tops=("src", "perfbench")):
    """name -> the (file, line) places of each name token, each name or
    attribute inside an f-string's fields, and each string literal, in the
    sources under the directories tops, src/ and perfbench/ by default."""
    places = defaultdict(set)
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            source = io.StringIO(path.read_text(encoding="utf-8"))
            for tok in tokenize.generate_tokens(source.readline):
                if tok.type == tokenize.NAME:
                    places[tok.string].add((rel, tok.start[0]))
                elif tok.type == tokenize.STRING:
                    try:
                        value = ast.literal_eval(tok.string)
                    except ValueError:
                        # an f-string: the names its fields read
                        fields = ast.parse(tok.string, mode="eval")
                        for node in ast.walk(fields):
                            if isinstance(node, ast.Name):
                                places[node.id].add((rel, tok.start[0]))
                            elif isinstance(node, ast.Attribute):
                                places[node.attr].add((rel, tok.start[0]))
                        continue
                    if isinstance(value, str) and value.isidentifier():
                        places[value].add((rel, tok.start[0]))
    return places


def unused(private):
    places = references()
    return [
        f"{rel}:{line} {name}"
        for rel, line, name in definitions(private)
        if not places[name] - {(rel, line)}
    ]


def test_every_public_name_is_used_outside_tests():
    assert unused(private=False) == []


def test_every_private_name_is_used_outside_tests():
    assert unused(private=True) == []


def attribute_writes():
    """(file, line, name) of each attribute assigned on ``self`` in the
    package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in ast.walk(target):
                    if (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        yield path.relative_to(ROOT), node.lineno, t.attr


def attribute_reads():
    """Names of the attributes loaded anywhere under src/ and perfbench/.
    A bare-statement method call on an attribute (``x.items.append(v)``)
    and a subscript store or ``del`` into one are writes, not reads."""
    reads = set()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            writes = set()
            for node in ast.walk(tree):
                if (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Attribute)):
                    writes.add(id(node.value.func.value))
                elif (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, (ast.Store, ast.Del))):
                    writes.add(id(node.value))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and id(node) not in writes):
                    reads.add(node.attr)
    return reads


def test_no_write_only_attribute():
    reads = attribute_reads()
    write_only = sorted(
        {f"{rel} {name}" for rel, _, name in attribute_writes()
         if name not in reads}
    )
    assert write_only == []


def package_functions():
    """(qualified name, function) of each function and method written in
    the package's modules."""
    for info in pkgutil.iter_modules(shardgraph.__path__):
        module = importlib.import_module(f"shardgraph.{info.name}")
        source = Path(module.__file__)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for fn in (obj, *members):
                if isinstance(fn, property):
                    fn = fn.fget
                elif isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                if (inspect.isfunction(fn)
                        and Path(fn.__code__.co_filename) == source):
                    yield f"{module.__name__}.{fn.__qualname__}", fn


def test_every_annotation_resolves():
    unresolved = []
    for name, fn in package_functions():
        try:
            typing.get_type_hints(fn)
        except Exception as exc:
            unresolved.append(f"{name}: {exc!r}")
    assert unresolved == []


def unused_imports():
    """(file, line, name) of each name a package module or a test module
    imports and never reads as a name or an attribute; ``from __future__
    import annotations`` is a compiler switch, not a name."""
    for path in [*sorted(PACKAGE.glob("*.py")),
                 *sorted((ROOT / "tests").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "annotations" and name not in used:
                        yield path.relative_to(ROOT), node.lineno, name


def test_every_import_is_used():
    assert [f"{rel}:{line} {name}"
            for rel, line, name in unused_imports()] == []


def doc_spans():
    """(file, line, text) of each double-backticked span in a docstring or
    a comment of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        notes = [(node.body[0].lineno, ast.get_docstring(node, clean=False))
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.Module, *DEFS))
                 and ast.get_docstring(node) is not None]
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        notes += [(tok.start[0], tok.string) for tok in tokens
                  if tok.type == tokenize.COMMENT]
        for line, note in notes:
            for m in re.finditer(r"``(.+?)``", note, re.S):
                yield (path.relative_to(ROOT),
                       line + note.count("\n", 0, m.start()), m.group(1))


def test_docs_name_no_deleted_state():
    defined = references(("src",)).keys() | set(dir(builtins))
    assert [f"{rel}:{line} {name}" for rel, line, span in doc_spans()
            for name in re.findall(r"\b[A-Za-z_]\w*(?!\w|\*)", span)
            if name not in defined] == []


# dataclasses imports inspect, which imports dis, ast and tokenize: about
# 15 ms of set-up for each run, sweep cell and benchmark repetition
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis")


def test_import_loads_no_introspection_module():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import shardgraph.simulation, shardgraph.cli\n"
        f"print(*sorted(set(sys.modules) - before & set({INTROSPECTION})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == []


def decorators(fn):
    """The names of fn's plain-name decorators."""
    return {getattr(d, "id", None) for d in fn.decorator_list}


def call_sites():
    """name -> (positional count, keyword names) of each call under src/
    and perfbench/ that names it, or None for a call with ``*`` or ``**``
    arguments, which may pass anything.  ``cls`` in a classmethod names
    its class."""
    calls = defaultdict(list)
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            class_of = {}
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for fn in cls.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and "classmethod" in decorators(fn)):
                        first = fn.args.args[0].arg
                        class_of.update((id(node), cls.name)
                                     for node in ast.walk(fn)
                                     if getattr(node, "id", None) == first)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = class_of.get(id(func), func.id)
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls[name].append(None if starred else (
                    len(node.args), {k.arg for k in node.keywords}))
    return calls


def namedtuple_fields(cls):
    """The annotated fields of a module-level ``NamedTuple`` class, in
    order, or none for any other class."""
    if not any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases):
        return []
    return [f for f in cls.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def keyword_defaults():
    """(file, line, qualified name, call name, parameter, position) of each
    parameter with a default of a module-level function or a method of a
    module-level class in the package, and of each field with a default of
    a module-level NamedTuple; position counts the arguments a call passes,
    so it skips a method's ``self`` or ``cls`` and is None for a
    keyword-only parameter."""
    for path in sorted(PACKAGE.glob("*.py")):
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node, node.name, node.name, 0)]
            elif isinstance(node, ast.ClassDef):
                for p, f in enumerate(namedtuple_fields(node)):
                    if f.value is not None:
                        yield (rel, f.lineno, f"{node.name}.{f.target.id}",
                               node.name, f.target.id, p)
                fns = [(fn, f"{node.name}.{fn.name}",
                        node.name if fn.name == "__init__" else fn.name,
                        0 if "staticmethod" in decorators(fn) else 1)
                       for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for fn, qualname, called, skip in fns:
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for p in range(first, len(positional)):
                    yield (rel, fn.lineno, qualname, called,
                           positional[p].arg, p - skip)
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield rel, fn.lineno, qualname, called, a.arg, None


def test_every_keyword_default_is_used_outside_tests():
    calls = call_sites()

    def left_out(call, name, position):
        if call is None:
            return False
        count, keywords = call
        return ((position is None or count <= position)
                and name not in keywords)

    assert [f"{rel}:{line} {qualname}({name}=...)"
            for rel, line, qualname, called, name, position
            in keyword_defaults()
            if not any(left_out(call, name, position)
                       for call in calls[called])] == []


def string_literals():
    """value -> the (file, line) places of each str constant, docstrings
    included, in the package."""
    places = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        rel = path.relative_to(ROOT)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                places[node.value].append((rel, node.lineno))
    return places


def test_each_closed_name_set_is_written_once():
    places = string_literals()
    assert {name: places[name] for name in (*ADVERSARY_KINDS, *TRIGGER_MODES)
            if len(places[name]) != 1} == {}


# the public API of a namedtuple, spelled with a leading underscore
NAMEDTUPLE_API = {"_asdict", "_replace", "_fields", "_make"}
# the one test module that reads the engine's internals, and the one private
# name a test may import: perfbench's replay of a reconfiguration choice,
# which lives with the benchmark
ADAPTER = Path("tests/oracles.py")
PRIVATE_IMPORTS = {("workloads", "_replay")}


def is_private(name):
    return name.startswith("_") and not is_dunder(name)


def foreign_private_uses(rel, source):
    """(line, expression) of each private use in the module at rel, of
    text source: each attribute access ``x._name``, read or assigned, whose
    name the module does not define (as a def or class, an assigned name,
    or an attribute assigned on ``self`` or ``cls``, the receivers that are
    exempt), and each ``from m import _name`` but workloads' ``_replay``.
    The adapter, tests/oracles.py, is exempt."""
    if rel == ADAPTER:
        return
    own = {"self", "cls"}
    defined, accesses = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFS):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute):
            if getattr(node.value, "id", None) in own:
                if isinstance(node.ctx, ast.Store):
                    defined.add(node.attr)
            elif is_private(node.attr) and node.attr not in NAMEDTUPLE_API:
                accesses.append(node)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (is_private(alias.name) and (node.module, alias.name)
                        not in PRIVATE_IMPORTS):
                    yield node.lineno, f"import {alias.name}"
    for node in accesses:
        if node.attr not in defined:
            yield node.lineno, ast.unparse(node)


def private_uses(paths):
    """file:line expression of each foreign private use in paths."""
    found = []
    for path in sorted(paths):
        rel = path.relative_to(ROOT)
        found += [f"{rel}:{line} {expr}" for line, expr in
                  foreign_private_uses(rel, path.read_text(encoding="utf-8"))]
    return found


def test_no_module_reads_another_modules_private_attribute():
    # the sharding layer feeds and reads the hashgraph engine through its
    # interface, so a change of the store's representation stays in
    # hashgraph.py
    assert private_uses([*PACKAGE.glob("*.py"),
                         *(ROOT / "perfbench").rglob("*.py")]) == []


def test_no_test_reads_a_private_name_but_the_adapter():
    # the tests observe the engine through tests/oracles.py alone, so a
    # change of the store's layout edits hashgraph.py and oracles.py
    assert private_uses((ROOT / "tests").glob("*.py")) == []


# a test module that reaches into the engine four ways, and uses a
# namedtuple's public API once
LEAKY_TEST = """\
from shardgraph.hashgraph import _seal


def test_leaks(store, sim, record):
    assert store._creator[0] == 0
    sim._poll = print
    store._field_count *= 2
    assert record._replace(units=0)
"""


def test_private_use_guard_flags_a_test_module_but_the_adapter():
    assert sorted(foreign_private_uses(Path("tests/test_leaky.py"),
                                       LEAKY_TEST)) == [
        (1, "import _seal"), (5, "store._creator"), (6, "sim._poll"),
        (7, "store._field_count")]
    assert list(foreign_private_uses(ADAPTER, LEAKY_TEST)) == []


# the one class whose methods may write or sort a committee assignment
ASSIGNMENT_OWNER = "CommitteeTable"
# the dict methods that change a dict in place
DICT_WRITERS = {"pop", "popitem", "clear", "update", "setdefault"}


def assignment_writes(source, sorts=True):
    """(line, expression) of each write of an ``assignment`` attribute in
    source outside ``CommitteeTable``'s methods, a subscript store or
    ``del`` or a call of a dict method that changes it, and given sorts
    each ``sorted`` call over an expression that reads it."""
    tree = ast.parse(source)
    owned = {id(node) for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == ASSIGNMENT_OWNER
             for node in ast.walk(cls)}

    def is_assignment(node):
        return isinstance(node, ast.Attribute) and node.attr == "assignment"

    for node in ast.walk(tree):
        if id(node) in owned:
            continue
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and is_assignment(node.value)):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in DICT_WRITERS
                    and is_assignment(func.value)):
                yield node.lineno, ast.unparse(node)
            elif (sorts and getattr(func, "id", None) == "sorted"
                  and any(is_assignment(n) for arg in node.args
                          for n in ast.walk(arg))):
                yield node.lineno, ast.unparse(node)


def test_only_the_committee_table_writes_or_sorts_its_assignment():
    # a test may sort the assignment, as the reference scan the kept
    # member lists are checked against
    found = []
    for top in ("src", "perfbench", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            found += [f"{rel}:{line} {expr}" for line, expr in
                      assignment_writes(path.read_text(encoding="utf-8"),
                                        sorts=top != "tests")]
    assert found == []


# a module that writes a table's assignment four ways and sorts it once,
# beside the owner's own writes
LEAKY_WRITER = """\
class CommitteeTable:
    def place(self, node, committee):
        self.assignment[node] = committee


def move(table, node):
    table.assignment[node] = 1
    del table.assignment[node]
    table.assignment.pop(node, None)
    table.assignment.update({node: 0})
    return sorted(table.assignment.items())
"""


def test_assignment_guard_flags_every_write_but_the_owners():
    assert sorted(line for line, _ in assignment_writes(LEAKY_WRITER)) == [
        7, 8, 9, 10, 11]
    assert sorted(line for line, _ in assignment_writes(
        LEAKY_WRITER, sorts=False)) == [7, 8, 9, 10]
