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
keyword default that only tests use, or one that only tests change: some
call in ``src/`` or ``perfbench/`` must leave each default out, and some
must pass it, by position or by name, but for the few that ``UNPASSED``
names with a reason.  A call is resolved by module: a plain name is the
file's own or what its imports bind, and ``module.name(...)`` is that
module's; a method call is resolved by its attribute name alone.  A class's
name calls its ``__init__`` or builds its NamedTuple, and ``cls(...)`` in a
classmethod calls its own class.

And each name of a closed name set, the adversary kinds and the
reorg-trigger modes, is spelled once in the package, as one string literal;
every other use goes through the constant that holds it.

Nor does a module read, assign or import another module's private name:
under src/ and perfbench/ none does, and under tests/ only the adapter
tests/oracles.py reads the engine's internals, so a change of the store's
layout edits hashgraph.py and oracles.py alone.

And some attributes have one writer each, read from one table: no code
outside ``CommitteeTable`` stores into, deletes from or pops its
``assignment``, and none under src/ or perfbench/ sorts it, so no reader
rebuilds the members the committee stores hold; no module under src/ or
perfbench/ but sharding.py calls a store's ``add_member`` or
``remove_member``, so a committee's members and its store's population
are one list; and no module but hashgraph.py (and the adapter) assigns a
view's ``known``, ``head`` or ``owner``, so a view starts as it is built.

Nor does a module under src/ but hashgraph.py read the store's index space:
a store's ``by_index`` or a transfer's ``mask``.
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


def sources(*tops):
    """(file, text) of each module under the directories tops."""
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.relative_to(ROOT), path.read_text(encoding="utf-8")


def module_of(rel):
    """The name a module is imported by: its file's stem."""
    return Path(rel).stem


def bindings(tree, scanned):
    """(imported, modules) of a module's tree: imported maps each name that
    a ``from ... import`` line binds to (module, name) of what it names, and
    modules maps each name bound to a module, by ``import`` or by a ``from
    ... import`` of one of the scanned modules, to that module."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = module_of((node.module or "").replace(".", "/"))
            for alias in node.names:
                bound = alias.asname or alias.name
                imported[bound] = (source, alias.name)
                if alias.name in scanned:
                    modules[bound] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = module_of(
                        alias.name.replace(".", "/"))
                else:
                    first = alias.name.split(".")[0]
                    modules[first] = first
    return imported, modules


def call_sites(modules):
    """callee -> (positional count, keyword names) of each call in modules,
    (file, text) pairs, or None for a call with ``*`` or ``**`` arguments,
    which may pass anything.  A callee is (module, name): a plain name is
    what the file's ``from ... import`` lines bind it to, or else the
    file's own, and ``m.name(...)`` on a module m is m's.  A method call
    keeps its attribute name alone, (None, name).  ``cls`` in a classmethod
    names its class."""
    modules = list(modules)
    scanned = {module_of(rel) for rel, _ in modules}
    calls = defaultdict(list)
    for rel, text in modules:
        tree = ast.parse(text)
        imported, module_names = bindings(tree, scanned)
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
                callee = imported.get(name, (module_of(rel), name))
            elif isinstance(func, ast.Attribute):
                receiver = getattr(func.value, "id", None)
                callee = (module_names.get(receiver), func.attr)
            else:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls[callee].append(None if starred else (
                len(node.args), {k.arg for k in node.keywords}))
    return calls


def namedtuple_fields(cls):
    """The annotated fields of a module-level ``NamedTuple`` class, in
    order, or none for any other class."""
    if not any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases):
        return []
    return [f for f in cls.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def keyword_defaults(modules):
    """(file, line, qualified name, callee, parameter, position) of each
    parameter with a default of a module-level function or a method of a
    module-level class in modules, (file, text) pairs, and of each field
    with a default of a module-level NamedTuple; the callee is a key of
    ``call_sites``, and position counts the arguments a call passes, so it
    skips a method's ``self`` or ``cls`` and is None for a keyword-only
    parameter."""
    for rel, text in modules:
        own = module_of(rel)
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node, node.name, (own, node.name), 0)]
            elif isinstance(node, ast.ClassDef):
                for p, f in enumerate(namedtuple_fields(node)):
                    if f.value is not None:
                        yield (rel, f.lineno, f"{node.name}.{f.target.id}",
                               (own, node.name), f.target.id, p)
                fns = [(fn, f"{node.name}.{fn.name}",
                        (own, node.name) if fn.name == "__init__"
                        else (None, fn.name),
                        0 if "staticmethod" in decorators(fn) else 1)
                       for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for fn, qualname, callee, skip in fns:
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for p in range(first, len(positional)):
                    yield (rel, fn.lineno, qualname, callee,
                           positional[p].arg, p - skip)
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield rel, fn.lineno, qualname, callee, a.arg, None


def unearned_defaults(defaults, calls, passed):
    """file:line qualname(parameter=...) of each of defaults that no call
    in calls leaves out, or given passed, that no call passes, by position
    or by name.  A call with ``*`` or ``**`` arguments does neither."""
    def earns(call, name, position):
        if call is None:
            return False
        count, keywords = call
        given = (position is not None and count > position
                 or name in keywords)
        return given if passed else not given

    return [f"{rel}:{line} {qualname}({name}=...)"
            for rel, line, qualname, callee, name, position in defaults
            if not any(earns(call, name, position) for call in calls[callee])]


def test_every_keyword_default_is_used_outside_tests():
    assert unearned_defaults(keyword_defaults(sources(PACKAGE)),
                             call_sites(sources("src", "perfbench")),
                             passed=False) == []


# (function, parameter) of the keyword defaults that no call in src/ or
# perfbench/ needs to pass, each with its reason
UNPASSED = {
    ("main", "argv"): "the process's argument vector, which the console "
                      "script leaves to sys.argv",
}


def test_every_keyword_default_is_passed_outside_tests():
    # a default that every caller keeps is a constant, not a parameter
    defaults = list(keyword_defaults(sources(PACKAGE)))
    assert UNPASSED.keys() <= {(d[2], d[4]) for d in defaults}
    assert unearned_defaults(
        [d for d in defaults if (d[2], d[4]) not in UNPASSED],
        call_sites(sources("src", "perfbench")), passed=True) == []


# a module whose defaults are passed by position or by name and left out,
# always passed, and never passed but through ``**``
DEFAULTS = """\
def send(x, size=1, *, mode="a"):
    return send(x, 2) or send(x, mode="b")


def scale(v, factor=2):
    return scale(v, factor=3)


class Table:
    def __init__(self, rows, epoch=0, limit=None):
        Table(rows) or Table(rows, **{"limit": 1})
"""
# two modules that define main: a's is left out at home and passed through
# an alias and b's own is only passed, which a's calls cannot earn back
MAIN_A = """\
def main(argv=None):
    return main()
"""
MAIN_B = """\
import a
from a import main as run


def main(argv=None):
    return main(["-h"]) or run(["-v"]) or a.main()
"""


def test_default_guards_flag_a_default_no_call_leaves_out_or_passes():
    defaults = list(keyword_defaults([(Path("m.py"), DEFAULTS)]))
    calls = call_sites([(Path("m.py"), DEFAULTS)])
    assert unearned_defaults(defaults, calls, passed=False) == [
        "m.py:5 scale(factor=...)"]
    assert unearned_defaults(defaults, calls, passed=True) == [
        "m.py:10 Table.__init__(epoch=...)",
        "m.py:10 Table.__init__(limit=...)"]
    mains = [(Path("a.py"), MAIN_A), (Path("b.py"), MAIN_B)]
    defaults = list(keyword_defaults(mains))
    calls = call_sites(mains)
    assert unearned_defaults(defaults, calls, passed=False) == [
        "b.py:5 main(argv=...)"]
    assert unearned_defaults(defaults, calls, passed=True) == []


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


# attribute, or store method that writes the population, -> its one
# writer: the module, and the class in it whose code alone may write it, or
# None for the whole module.  A committee's members are its store's
# population, moved with the assignment by the table's place and remove
# alone; the global store's moves with a seat, in seat_coordinator.  A view
# is built with what it knows and moved only by the engine afterwards
ENGINE = Path("src/shardgraph/hashgraph.py")
SHARDING = Path("src/shardgraph/sharding.py")
VIEW = {"known", "head", "owner"}
POPULATION = {"add_member", "remove_member"}
WRITERS = {
    "assignment": (SHARDING, "CommitteeTable"),
    **dict.fromkeys(VIEW, (ENGINE, None)),
    **dict.fromkeys(POPULATION, (SHARDING, None)),
}
# what src/ and perfbench/ may not sort either, as the table keeps it sorted
UNSORTED = {"assignment"}
# the dict methods that change a dict in place
DICT_WRITERS = {"pop", "popitem", "clear", "update", "setdefault"}


def foreign_writes(rel, source, sorts=True):
    """(line, attribute, expression) of each write, in the module at rel of
    text source, of an attribute that WRITERS gives to another writer: an
    assignment to it, plain, augmented or in a tuple target, or a ``del``;
    a subscript store or ``del`` into it or a call of a dict method that
    changes it; a call of a POPULATION method; and given sorts, a
    ``sorted`` call over an expression that reads one in UNSORTED.  The
    adapter, tests/oracles.py, may write what the engine may."""
    tree = ast.parse(source)
    inside = {cls.name: {id(node) for node in ast.walk(cls)}
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}

    def foreign(node):
        if not (isinstance(node, ast.Attribute) and node.attr in WRITERS):
            return False
        module, cls = WRITERS[node.attr]
        if rel == ADAPTER and module == ENGINE:
            return False
        return rel != module or (cls is not None
                                 and id(node) not in inside.get(cls, ()))

    for node in ast.walk(tree):
        targets = ()
        if (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            targets = (node if isinstance(node, ast.Attribute)
                       else node.value,)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in POPULATION:
                targets = (func,)
            elif isinstance(func, ast.Attribute) and func.attr in DICT_WRITERS:
                targets = (func.value,)
            elif sorts and getattr(func, "id", None) == "sorted":
                targets = [n for arg in node.args for n in ast.walk(arg)
                           if getattr(n, "attr", None) in UNSORTED]
        for target in targets:
            if foreign(target):
                yield node.lineno, target.attr, ast.unparse(node)


def tree_writes(attrs, tops=("src", "perfbench", "tests")):
    """file:line expression of each foreign write of one of attrs under
    the directories tops; a test may sort what src may not, as the
    reference scan a member list is checked against."""
    found = []
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            found += [f"{rel}:{line} {expr}" for line, attr, expr in
                      foreign_writes(rel, path.read_text(encoding="utf-8"),
                                     sorts=top != "tests")
                      if attr in attrs]
    return found


def test_only_the_committee_table_writes_or_sorts_its_assignment():
    assert tree_writes({"assignment"}) == []


def test_only_the_sharding_module_moves_a_store_member():
    # engine tests move the members of standalone stores, so only the
    # package and the benchmark are scanned
    assert tree_writes(POPULATION, ("src", "perfbench")) == []


def test_only_the_engine_moves_a_view_after_it_is_built():
    # a view's known and head are given to its constructor, so where a
    # view starts is decided at one call per entry path
    assert tree_writes(VIEW) == []


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


def flagged(rel, source, sorts=True):
    return sorted(line for line, _, _ in foreign_writes(rel, source, sorts))


def test_assignment_guard_flags_every_write_but_the_owners():
    owner = WRITERS["assignment"][0]
    assert flagged(owner, LEAKY_WRITER) == [7, 8, 9, 10, 11]
    assert flagged(owner, LEAKY_WRITER, sorts=False) == [7, 8, 9, 10]
    # a class of that name owns nothing outside the owner's module
    assert flagged(Path("tests/test_leaky.py"), LEAKY_WRITER) == [
        3, 7, 8, 9, 10, 11]


# a module that moves views three ways and reads them once
LEAKY_VIEW = """\
def fork(view, other):
    view.known = other.known
    view.known |= 1 << other.head
    view.head, other.owner = other.head, view.owner
"""


def test_view_guard_flags_every_write_but_the_engines():
    assert [(line, attr) for line, attr, _ in foreign_writes(
        Path("src/shardgraph/simulation.py"), LEAKY_VIEW)] == [
        (2, "known"), (3, "known"), (4, "head"), (4, "owner")]
    assert flagged(ENGINE, LEAKY_VIEW) == flagged(ADAPTER, LEAKY_VIEW) == []


# a module that moves store members four ways, beside a store's own
# definitions of the methods
LEAKY_POPULATION = """\
class EventStore:
    def add_member(self, node):
        self.population.append(node)


def join(state, table, node):
    state.local_stores[0].add_member(node)
    table.stores[1].remove_member(node)
    store = state.global_store
    store.remove_member(node), store.add_member(node + 1)
"""


def test_population_guard_flags_every_member_move_but_the_sharding_ones():
    assert sorted((line, attr) for line, attr, _ in foreign_writes(
        Path("src/shardgraph/reconfig.py"), LEAKY_POPULATION)) == [
        (7, "add_member"), (8, "remove_member"), (10, "add_member"),
        (10, "remove_member")]
    assert flagged(SHARDING, LEAKY_POPULATION) == []


# the store's index space, which only the engine reads under src/: a
# store's event indices and a transfer's mask.  A rebase of the indices
# then shifts only the masks that engine objects hold
INDEX_SPACE = {"by_index", "mask"}


def index_reads(rel, source):
    """(line, attribute, expression) of each read of an INDEX_SPACE
    attribute in the module at rel, of text source, unless it is the
    engine."""
    if rel == ENGINE:
        return
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in INDEX_SPACE
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno, node.attr, ast.unparse(node)


def test_only_the_engine_reads_the_index_space():
    # the sharding layer asks the engine for a store's last event, a full
    # view and the payloads a replica lacks; a sync's receiver reads each
    # index its transfer yields at once, through the store's payload
    assert [f"{rel}:{line} {expr}" for rel, text in sources("src")
            for line, _, expr in index_reads(rel, text)] == []


# a module that rebuilds a lost-event mask and a full view from the index
# space, beside a view's own mask, which it may read
LEAKY_INDEX = """\
def lost(replica, store, view):
    held = replica.events.mask
    full = (1 << len(store.by_index)) - 1
    return full & ~held, [i for i in store.by_index if view.known >> i & 1]
"""


def test_index_guard_flags_every_read_but_the_engines():
    assert sorted((line, attr) for line, attr, _ in index_reads(
        SHARDING, LEAKY_INDEX)) == [(2, "mask"), (3, "by_index"),
                                    (4, "by_index")]
    assert list(index_reads(ENGINE, LEAKY_INDEX)) == []
