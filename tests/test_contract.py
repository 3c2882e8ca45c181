"""Contract of the library, read off its source and its public callables.

Every public function returns an exact object or raises a typed error from
infoval.errors: no bare RuntimeError and no assert (which vanishes under
python -O and raises AssertionError otherwise). Every number is exact, so
no float literal appears in the source, and every public callable that
takes a point or a row rejects a float entry, and one that is not a
sequence with UnreadableEntry. A value an instance forms and holds outside
its fields (a _-prefixed cached_property, or a class attribute _name = None)
is left out of its pickles and copies by a __getstate__, its own or
geometry._Holder's, and a clone forms it again. The forward geometry comes
from one lifted double description, so no library module imports the
exact LP in linprog.py, which stays only as a test oracle. No module
imports a name it never reads, so code deleted from a module takes its
imports with it, and no private function, class or method goes
unreferenced, so code that loses its last caller is deleted with it. A
belief's integer row has one home, the Belief itself: no library code
scales a .coords attribute through _scaled or _integer_row outside it. The
library runs on Python 3.10 to 3.13, so it uses no private name of the
fractions module, such as Fraction(n, d, _normalize=False), which is gone
from 3.12, and every int.to_bytes and int.from_bytes call passes its
byteorder, which has no default before 3.11.
"""

import ast
import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from infoval.decision import AffineFn, DecisionProblem, make_problem, value_function
from infoval.errors import UnreadableEntry
from infoval.geometry import (
    Belief,
    Halfspace,
    Polytope,
    barycenter,
    belief,
    dimension,
    interior_interval_on_line,
    interior_point,
)
from infoval.information import (
    Experiment,
    PosteriorDistribution,
    value_of_experiment,
)
from infoval.spectral import transport_problem

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "infoval").glob("*.py"))


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id == "RuntimeError":
                found.append((node.lineno, "raise RuntimeError"))
        elif isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
    return found


def _linprog_imports(tree: ast.AST) -> list[int]:
    """Lines that import the linprog module or a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names] + [module]
        else:
            continue
        if any("linprog" in name.split(".") for name in names):
            found.append(node.lineno)
    return found


def _coords_scalings(tree: ast.AST) -> list[int]:
    """Lines outside class Belief where _scaled or _integer_row takes a .coords attribute.

    A Belief holds its integer row (Belief._ints), so scaling a belief's
    coordinates anywhere else forms that row again.
    """
    held = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Belief":
            held |= {id(sub) for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in held:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("_scaled", "_integer_row"):
            continue
        arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
        if any(
            isinstance(sub, ast.Attribute) and sub.attr == "coords"
            for argument in arguments
            for sub in ast.walk(argument)
        ):
            found.append(node.lineno)
    return found


PRIVATE_FRACTIONS = ("_normalize", "_from_coprime_ints", "_numerator", "_denominator")


def _private_fractions(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each keyword, attribute or name that is private API of fractions.Fraction."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in PRIVATE_FRACTIONS:
            found.append((node.lineno, name))
    return sorted(found)


def _byteorder_omitted(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each to_bytes or from_bytes call that does not pass its byteorder.

    The byteorder is the second positional argument or a keyword; before
    Python 3.11 it has no default.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        if name not in ("to_bytes", "from_bytes"):
            continue
        passed = len(node.args) >= 2 or any(k.arg in ("byteorder", None) for k in node.keywords)
        if not passed:
            found.append((node.lineno, name))
    return found


def _is_cached_property(statement: ast.stmt) -> bool:
    """Whether the statement defines a method decorated with cached_property."""
    return isinstance(statement, ast.FunctionDef) and any(
        getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
        for d in statement.decorator_list
    )


def _stored_values(tree: ast.AST) -> dict[str, tuple[list[str], bool]]:
    """Class name -> (its stored names, whether its pickles leave them out).

    A stored name is _-prefixed, and either set to None in the class body or
    a cached_property method: a value the instance forms and holds outside
    its fields, which pickles and copies must leave out. They do when the
    class defines __getstate__ or has _Holder among its bases. Only classes
    with a stored name are listed.
    """
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names = []
        for statement in node.body:
            if _is_cached_property(statement) and statement.name.startswith("_"):
                names.append(statement.name)
            elif (
                isinstance(statement, ast.Assign)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is None
            ):
                names += [
                    target.id
                    for target in statement.targets
                    if isinstance(target, ast.Name) and target.id.startswith("_")
                ]
        if names:
            methods = {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
            holder = any(getattr(base, "id", None) == "_Holder" for base in node.bases)
            found[node.name] = (names, "__getstate__" in methods or holder)
    return found


def _annotation_strings(tree: ast.AST):
    """The string constants inside annotations, which name types without evaluating them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads.

    A name is read where it appears as a Name node, in code or in an
    annotation, or inside a string annotation. __future__ imports and names
    on a line marked `# noqa: F401` are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        expression = ast.parse(text, mode="eval")
        read |= {node.id for node in ast.walk(expression) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in read)


def _unreferenced_private(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private definition no other code refers to.

    Private means a function, class or method named with a leading
    underscore, dunders excepted. A reference is a name, an attribute or an
    imported name anywhere in the sources, outside the definition itself.
    """
    definitions, references = [], []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    definitions.append((module, node))
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}[type(node)]
                references.append((module, node.lineno, getattr(node, name)))

    def referenced(module, node) -> bool:
        return any(
            name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, line, name in references
        )

    return sorted(
        (module, node.lineno, node.name)
        for module, node in definitions
        if not referenced(module, node)
    )


def test_sources_found():
    assert any(path.name == "identification.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_runtime_error_assert_or_float(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _violations(tree) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "linprog.py"], ids=lambda path: path.name
)
def test_library_does_not_import_linprog(path):
    assert _linprog_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_beliefs_are_scaled_only_by_their_held_row(path):
    assert _coords_scalings(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_fractions_api(path):
    assert _private_fractions(ast.parse(path.read_text(), filename=str(path))) == []


def test_private_fractions_scanner_catches_each_kind():
    source = (
        "from fractions import Fraction, _from_coprime_ints\n"
        "a = Fraction(1, 2, _normalize=False)\n"
        "b = Fraction._from_coprime_ints(1, 2)\n"
        "c = a._numerator + a._denominator\n"
        "d = Fraction(a.numerator, a.denominator) + _denominators(a)\n"
    )
    assert _private_fractions(ast.parse(source)) == [
        (1, "_from_coprime_ints"),
        (2, "_normalize"),
        (3, "_from_coprime_ints"),
        (4, "_denominator"),
        (4, "_numerator"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_byte_conversions_pass_their_byteorder(path):
    assert _byteorder_omitted(ast.parse(path.read_text(), filename=str(path))) == []


def test_byteorder_scanner_catches_each_kind():
    source = (
        "a = n.to_bytes(4)\n"
        "b = n.to_bytes(4, 'big') + n.to_bytes(length=4, byteorder='little')\n"
        "c = int.from_bytes(data)\n"
        "d = int.from_bytes(data, 'big') + int.from_bytes(data, **options)\n"
        "e = n.to_bytes(length=4, signed=True)\n"
    )
    assert _byteorder_omitted(ast.parse(source)) == [(1, "to_bytes"), (3, "from_bytes"), (5, "to_bytes")]


def test_coords_scaling_scanner_catches_each_kind():
    source = (
        "class Belief:\n"
        "    def _ints(self):\n"
        "        return _scaled((self.coords,))\n"
        "def direct(b):\n"
        "    return _scaled((b.coords,))\n"
        "def row(b):\n"
        "    return _integer_row(b.coords)\n"
        "def module(points):\n"
        "    return geometry._scaled(rows=[p.coords for p in points])\n"
        "def allowed(b, column, fn):\n"
        "    return _scaled((column,)), _integer_row(fn.coeffs), _coords_of(b.coords)\n"
    )
    assert _coords_scalings(ast.parse(source)) == [5, 7, 9]


# class name -> (its stored names, whether its pickles leave them out), over every library module
STORED = {
    name: found
    for path in SOURCES
    for name, found in _stored_values(ast.parse(path.read_text(), filename=str(path))).items()
}


def test_stored_values_are_left_out_of_pickles():
    assert STORED and all(left_out for _, left_out in STORED.values())


def test_stored_value_scanner_catches_each_kind():
    source = (
        "class Held:\n    _ints = None\n    _hash = None\n"
        "    def __getstate__(self):\n        pass\n"
        "class Leaky:\n    _center = None\n"
        "class Public:\n    shown = None\n    _set = 0\n"
        "    @cached_property\n    def shown_rows(self):\n        pass\n"
        "    def _plain(self):\n        pass\n"
        "class Formed(_Holder):\n    _packed = None\n"
        "    @cached_property\n    def _ints(self):\n        pass\n"
        "class Unheld:\n    @functools.cached_property\n    def _rows(self):\n        pass\n"
    )
    assert _stored_values(ast.parse(source)) == {
        "Held": (["_ints", "_hash"], True),
        "Leaky": (["_center"], False),
        "Formed": (["_packed", "_ints"], True),
        "Unheld": (["_rows"], False),
    }


def test_no_unreferenced_private_code():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert _unreferenced_private(sources) == []


def test_unreferenced_private_scanner_catches_each_kind():
    sources = {
        "a.py": (
            "def _called():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Unused:\n"
            "    def __init__(self):\n        self._method()\n"
            "    def _method(self):\n        pass\n"
            "    def _orphan(self):\n        pass\n"
            "def public():\n    return _called()\n"
        ),
        "b.py": "from a import _imported\n",
        "c.py": "def _imported():\n    pass\ndef _dead():\n    pass\n",
    }
    assert _unreferenced_private(sources) == [
        ("a.py", 3, "_recursive"),
        ("a.py", 5, "_Unused"),
        ("a.py", 10, "_orphan"),
        ("c.py", 3, "_dead"),
    ]


def test_unused_import_scanner_catches_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from x import a, b as c, d, unused_alias as e\n"
        "from y import (\n"
        "    kept,  # noqa: F401\n"
        "    dropped,\n"
        ")\n"
        "def g(p: 'c') -> list['d']:\n"
        "    return os.getcwd() + a\n"
    )
    assert _unused_imports(source) == [(2, "math"), (4, "e"), (7, "dropped")]


def test_scanner_catches_each_kind():
    source = "raise RuntimeError('x')\nraise RuntimeError\nassert True\nx = 0.5\n"
    kinds = [kind for _, kind in _violations(ast.parse(source))]
    assert kinds == ["raise RuntimeError", "raise RuntimeError", "assert", "float literal 0.5"]
    source = (
        "from . import linprog\nfrom .linprog import maximize\nimport infoval.linprog\n"
        "from infoval import linprog as lp\nfrom .geometry import vertices_of\nimport math\n"
    )
    assert _linprog_imports(ast.parse(source)) == [1, 2, 3, 4]


HALF = Fraction(1, 2)
SIMPLEX = Polytope.from_halfspaces([], 2)
VALUE = value_function(make_problem([[1, 0], [0, 1]]))

# every public callable that takes a point or a row, each given one float entry
FLOAT_CALLS = {
    "Halfspace.value": lambda: Halfspace((1, 0), 0).value((0.5, HALF)),
    "AffineFn.__call__": lambda: AffineFn((1, 2))((0.5, HALF)),
    "AffineFn.__add__": lambda: AffineFn((1, 2)) + SimpleNamespace(coeffs=(0.5, 1)),
    "AffineFn.__sub__": lambda: AffineFn((1, 2)) - SimpleNamespace(coeffs=(0.5, 1)),
    "PiecewiseAffineFn.__call__": lambda: VALUE((0.5, HALF)),
    "Polytope.contains": lambda: SIMPLEX.contains((0.5, HALF)),
    "Polytope.contains-strict": lambda: SIMPLEX.contains((0.5, HALF), strict=True),
    "barycenter": lambda: barycenter([belief(1, 0), (0.5, HALF)]),
    "dimension": lambda: dimension([belief(1, 0), (0.5, HALF)]),
    "interior_interval_on_line": lambda: interior_interval_on_line(
        belief(HALF, HALF), (0.5, -HALF), SIMPLEX
    ),
    "DecisionProblem.payoff": lambda: make_problem([[1, 0]]).payoff(0, (0.5, HALF)),
    "Belief": lambda: Belief((0.5, HALF)),
    "belief": lambda: belief(0.5, HALF),
    "Halfspace": lambda: Halfspace((0.5, 0), 0),
    "AffineFn": lambda: AffineFn((0.5, 1)),
    "DecisionProblem": lambda: DecisionProblem(("t1", "t2"), ("a1",), ((0.5, 1),)),
    "make_problem": lambda: make_problem([[1, 0], [0.5, 1]]),
    "Experiment": lambda: Experiment(("s1",), ((1,), (1.0,))),
    "transport_problem": lambda: transport_problem(
        make_problem([[1, 0]]), (0.5, HALF), belief(HALF, HALF)
    ),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=FLOAT_CALLS.keys())
def test_float_entry_rejected(call):
    with pytest.raises(TypeError, match="^floating point values are not allowed"):
        call()


# every public constructor that reads an entry, each given one that no Fraction reads
ENTRY_CALLS = {
    "Belief": lambda entry: Belief((entry, HALF)),
    "make_problem": lambda entry: make_problem([[1, 0], [entry, 1]]),
    "Experiment": lambda entry: Experiment(("s1",), ((1,), (entry,))),
    "Halfspace": lambda entry: Halfspace((1, 0), entry),
    "PosteriorDistribution": lambda entry: PosteriorDistribution([(belief(1, 0), entry)]),
}


@pytest.mark.parametrize("entry", ["1/0", "x", None])
@pytest.mark.parametrize("call", ENTRY_CALLS.values(), ids=ENTRY_CALLS.keys())
def test_unreadable_entry_rejected(call, entry):
    # one typed error, still caught by `except ValueError` and by `except TypeError`
    with pytest.raises(UnreadableEntry, match=f"^cannot read {re.escape(repr(entry))} as"):
        call(entry)
    assert issubclass(UnreadableEntry, ValueError) and issubclass(UnreadableEntry, TypeError)


# every public callable that takes a point, or an atom, each given one that is not a sequence
SEQUENCE_CALLS = {
    "Belief": (lambda: Belief(5), "5 as a sequence of coordinates"),
    # a string was read as its characters: make_problem(["12"]) had the row (1, 2)
    "Belief-string": (lambda: Belief("1"), "'1' as a sequence of coordinates"),
    "make_problem-string": (lambda: make_problem(["12"]), "'12' as a sequence of coordinates"),
    "Halfspace": (lambda: Halfspace(3, 0), "3 as a sequence of coordinates"),
    "make_problem": (lambda: make_problem([1, 2]), "1 as a sequence of coordinates"),
    "AffineFn": (lambda: AffineFn(3), "3 as a sequence of coordinates"),
    "Experiment": (lambda: Experiment(("a",), (1, 1)), "1 as a sequence of coordinates"),
    "barycenter": (lambda: barycenter([5]), "5 as a sequence of coordinates"),
    "dimension": (lambda: dimension([5]), "5 as a sequence of coordinates"),
    "Halfspace.value": (lambda: Halfspace((1, 0), 0).value(5), "5 as a sequence of coordinates"),
    "Polytope.contains": (lambda: SIMPLEX.contains(5), "5 as a sequence of coordinates"),
    "DecisionProblem.payoff": (
        lambda: make_problem([[1, 0]]).payoff(0, 5), "5 as a sequence of coordinates"
    ),
    "PosteriorDistribution-belief": (
        lambda: PosteriorDistribution([(belief(1, 0), HALF), belief(0, 1)]),
        re.escape(f"{belief(0, 1)!r} as a (belief, probability) pair: atom 1"),
    ),
    "PosteriorDistribution-single": (
        lambda: PosteriorDistribution([(belief(1, 0),)]),
        re.escape(f"{(belief(1, 0),)!r} as a (belief, probability) pair: atom 0"),
    ),
    "PosteriorDistribution-number": (
        lambda: PosteriorDistribution([(belief(1, 0), HALF), (belief(0, 1), HALF), 5]),
        re.escape("5 as a (belief, probability) pair: atom 2"),
    ),
}


@pytest.mark.parametrize("call, message", SEQUENCE_CALLS.values(), ids=SEQUENCE_CALLS.keys())
def test_unreadable_sequence_rejected(call, message):
    with pytest.raises(UnreadableEntry, match=f"^cannot read {message}$"):
        call()


def _use(instance) -> None:
    """Form every value the instance holds outside its fields."""
    if isinstance(instance, Belief):
        hash(instance)
    elif isinstance(instance, Polytope):
        interior_point(instance)
    elif isinstance(instance, DecisionProblem):
        # forms the integer rows and their packing for _gap
        value_of_experiment(instance, belief(HALF, HALF), Experiment.fully_revealing(instance.n))
    else:
        instance._ints


# one instance of each class that holds a stored value, by class name
HOLDERS = {
    "Belief": lambda: belief("1/3", "2/3"),
    "Halfspace": lambda: Halfspace(("1/2", 0, 1), "1/3"),
    "Polytope": lambda: Polytope.from_vertices(
        [belief(1, 0, 0), belief(0, 1, 0), belief(0, "1/2", "1/2")]
    ),
    "Experiment": lambda: Experiment(("s1", "s2"), (("1/3", "2/3"), ("3/4", "1/4"))),
    "DecisionProblem": lambda: make_problem([[1, "1/3"], ["1/2", 0]]),
    "PosteriorDistribution": lambda: PosteriorDistribution(
        [(belief("1/3", "2/3"), "1/4"), ((1, 0), "1/2"), (belief("1/5", "4/5"), "1/4")]
    ),
}


def test_every_holder_is_cloned():
    assert set(HOLDERS) == set(STORED)


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("name", HOLDERS)
def test_clone_forms_its_stored_value_again(name, clone):
    instance = HOLDERS[name]()
    _use(instance)
    # a held value that leaked into the pickled state would change the bytes
    assert pickle.dumps(instance) == pickle.dumps(HOLDERS[name]())
    stored = STORED[name][0]
    copied = clone(instance)
    assert not set(stored) & set(vars(copied))
    assert copied == instance and repr(copied) == repr(instance)
    _use(copied)
    assert [vars(copied)[s] for s in stored] == [vars(instance)[s] for s in stored]
