"""Static checks of the source tree: no module imports a name it never
uses, the package defines nothing that only the tests read, no class of
the package defines a scalar adversary phase or scheme method or the
retired `match_law`, no `MatchLaw` is defined, the CLI holds no value
rule of a config block, each value rule (a lower bound, the feature
dimension, the packed width) is spelled by its one helper, and only a
record that holds an array, list or dict compares by identity.

The package's `__init__.py` re-exports its public names and is exempt
from the first check.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for tree in ("src/btpeval", "tests", "demos")
                 for path in (ROOT / tree).glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c, d as e\n"
                          "print(sys.path, e)\n") == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _names_read(tree) -> set:
    """Every name, attribute and imported name a module reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_definitions(package: dict, readers: list) -> list:
    """(module, line, name) of each function, class and method that a
    module of `package` (module name -> source) defines, dunder names
    aside, and that no module of `package` or `readers` (sources) reads.

    Definitions and reads are matched by name alone, so a name read
    anywhere counts for every definition of it: the check is a floor on
    dead code, not a proof that the rest is live.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = set().union(*map(_names_read, trees.values()),
                       *(_names_read(ast.parse(source)) for source in readers))
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    return sorted((module, node.lineno, node.name)
                  for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, defs) and node.name not in read
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def test_check_sees_an_unread_definition():
    package = {
        "a": "def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
             "class Kind:\n    def __init__(self):\n        self.x = 1\n\n"
             "    def method(self):\n        pass\n\n"
             "    def dropped(self):\n        pass\n",
        "b": "from a import used\n\nKind().method()\n",
    }
    assert unread_definitions(package, []) == [("a", 5, "unused"),
                                               ("a", 16, "dropped")]
    assert unread_definitions(package, ["import a\na.unused()\n"]) == [
        ("a", 16, "dropped")]


def package_sources() -> dict:
    """Module name -> source of every module of `src/btpeval`."""
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "src/btpeval").glob("*.py"))}


def test_package_defines_nothing_only_the_tests_read():
    """What `src/btpeval` defines is read by the package, a demo or the
    benchmark harness; code that only a test reads belongs in `tests/`."""
    readers = [path.read_text(encoding="utf-8")
               for tree in ("demos", "bench")
               for path in sorted((ROOT / tree).glob("*.py"))]
    assert unread_definitions(package_sources(), readers) == []


# The text of each value rule, which only the helper that owns it spells:
# a lower bound (`errors.require_type`), the range of the feature dimension
# (`population.check_dimension`, the one reader of MAX_N) and the packed
# width (`population.check_width`)
RULE_PATTERNS = {"lower bound": r"must be >=",
                 "dimension": r"\bMAX_N\b",
                 "width": r'DimensionError\(\s*f?"[^"]*more than'}


def rule_spellings(package: dict) -> dict:
    """{rule: {module: count}} of the modules of `package` (module name ->
    source) whose text matches each of `RULE_PATTERNS`."""
    return {rule: {module: count for module, source in package.items()
                   if (count := len(re.findall(pattern, source)))}
            for rule, pattern in RULE_PATTERNS.items()}


def test_check_sees_a_rule_spelling():
    assert rule_spellings({
        "a": 'if k < 1:\n    raise ConfigError("k must be >= 1")\n',
        "b": "if n > MAX_N:\n    raise DimensionError(\n"
             '        f"x has more than {n} bits")\nMAX_NS = 1\n',
    }) == {"lower bound": {"a": 1}, "dimension": {"b": 1},
           "width": {"b": 1}}


def test_each_value_rule_is_spelled_once():
    """Every entry point refuses a value below its bound, a dimension
    outside [1, MAX_N] and a packed value too wide for n through the one
    helper of the rule, so it refuses the same input in the same words."""
    found = rule_spellings(package_sources())
    assert found["lower bound"] == {"errors": 1}
    assert set(found["dimension"]) == {"population"}
    assert found["width"] == {"population": 1}


# The scalar adversary phases and the object-valued scheme methods: an
# adversary implements only its batch pair of phases, a scheme only its
# four batch methods on codes
SCALAR_METHODS = ("phase1", "phase2", "pie", "pir", "pic", "pie_support",
                  "template_codes", "template_of_codes")
# The retired match-law declaration: a scheme states its `match_radius`
RETIRED_METHODS = ("match_law",)


def scalar_methods(source: str, names=SCALAR_METHODS) -> list:
    """(class, method) of each method in `names` a class body defines."""
    return [(node.name, item.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in names]


def test_check_sees_a_scalar_method():
    assert scalar_methods("class A:\n    def phase1_batch(self):\n        pass\n\n"
                          "    def phase2(self):\n        pass\n\n"
                          "    def pie_batch(self):\n        pass\n\n\n"
                          "class B:\n    async def template_of_codes(self):\n"
                          "        pass\n\n    def pic(self):\n        pass\n\n\n"
                          "def pie():\n    pass\n") == [
        ("A", "phase2"), ("B", "template_of_codes"), ("B", "pic")]


def test_package_defines_no_scalar_method():
    """A scheme implements its batch methods on codes alone and an
    adversary its batch pair of phases; scalar twins and a per-trial
    driver belong in `tests/`."""
    assert [(path.name, *found)
            for path in sorted((ROOT / "src/btpeval").glob("*.py"))
            for found in scalar_methods(path.read_text(encoding="utf-8"))] == []


def test_package_defines_no_retired_match_law():
    """A scheme declares its ball law by `match_radius` alone; the name
    `match_law` is left only to the class-definition refusal."""
    assert [(path.name, *found)
            for path in sorted((ROOT / "src/btpeval").glob("*.py"))
            for found in scalar_methods(path.read_text(encoding="utf-8"),
                                        RETIRED_METHODS)] == []


def defined_names(source: str) -> set:
    """Every name a module binds: its classes and functions, at any depth,
    and the targets of its assignments."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_check_sees_a_defined_name():
    assert defined_names("class A:\n    def f(self):\n        B = 1\n\n"
                         "C = D = 2\n") == {"A", "f", "B", "C", "D"}


def test_package_defines_no_match_law_record():
    assert [path.name for path in sorted((ROOT / "src/btpeval").glob("*.py"))
            if "MatchLaw" in defined_names(path.read_text(encoding="utf-8"))
            ] == []


def test_cli_holds_no_value_rule():
    """A config value's rule lives in its block's reader alone
    (`Population.from_config`, `build_scheme`, `LeakSet.parse`,
    `RunSettings`); the CLI checks the top-level key names."""
    source = (ROOT / "src/btpeval/cli.py").read_text(encoding="utf-8")
    assert "require_type" not in _names_read(ast.parse(source))


# A field annotated with one of these compares by elements or cannot be
# hashed, so only a record with such a field may compare by identity.
CONTAINER_ANNOTATIONS = {"np.ndarray", "list", "dict"}


def identity_records(source: str) -> list:
    """Each class whose body sets `__eq__` (to opt out of a record's value
    equality) but annotates no field with an array, list or dict, alone
    or in a union."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        sets_eq = any(isinstance(target, ast.Name) and target.id == "__eq__"
                      for item in node.body if isinstance(item, ast.Assign)
                      for target in ast.walk(item.targets[0]))
        kinds = {part.strip() for item in node.body
                 if isinstance(item, ast.AnnAssign)
                 for part in ast.unparse(item.annotation).split("|")}
        if sets_eq and not kinds & CONTAINER_ANNOTATIONS:
            found.append(node.name)
    return found


def test_check_sees_an_identity_record():
    opt_out = "    __eq__, __hash__ = object.__eq__, object.__hash__\n"
    assert identity_records(
        "class A(Record):\n    x: float\n" + opt_out +
        "\n\nclass B(Record):\n    x: np.ndarray\n" + opt_out +
        "\n\nclass C(Record):\n    x: list | None = None\n" + opt_out +
        "\n\nclass D(Record):\n    x: tuple\n") == ["A"]


def test_only_records_of_containers_compare_by_identity():
    """A record of numbers, strings and other records compares by value;
    opting out of that is kept for one that holds an array, list or dict."""
    assert [(path.name, name)
            for path in sorted((ROOT / "src/btpeval").glob("*.py"))
            for name in identity_records(path.read_text(encoding="utf-8"))
            ] == []
