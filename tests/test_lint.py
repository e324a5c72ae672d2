"""Source checks that need no lint tool."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "metallic_tm"


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no name in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import itertools\nimport numpy as np\nfrom typing import List, Optional\n" \
             "def f(x: Optional[int]) -> None:\n    return np.zeros(x)\n"
    assert unused_imports(source) == [(1, "itertools"), (3, "List")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def absolute_imports(source: str) -> set:
    """Top-level modules named by the absolute imports anywhere in a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_absolute_imports_are_found():
    source = "import os.path\nfrom . import exprs\nfrom .scalars import sigma\n" \
             "def f():\n    import jsonschema\n"
    assert absolute_imports(source) == {"os", "jsonschema"}


def test_imports_are_stdlib_or_declared_dependencies():
    """The package declares no runtime dependency and imports nothing but
    the standard library and itself, so it runs on a bare interpreter and
    no optional package can change what it does."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group().replace("-", "_")
                for dep in project["dependencies"]}
    # CPython's own SHA-256 module is ``_sha256`` in 3.10 and 3.11 and ``_sha2``
    # from 3.12 on; neither is in the other versions' stdlib_module_names.
    builtin_sha256 = {"_sha2", "_sha256"}
    allowed = set(sys.stdlib_module_names) | builtin_sha256 | declared | {"metallic_tm"}
    foreign = sorted((path.name, module) for path in SRC.glob("*.py")
                     for module in absolute_imports(path.read_text(encoding="utf-8"))
                     if module not in allowed)
    assert declared == set() and foreign == []


def zero_test_sites(source: str) -> list:
    """(line, text) of every name ``is_zero`` and every float literal in a
    module: the places that decide by themselves whether a value is zero."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif "is_zero" in (getattr(node, attr, None) for attr in ("name", "id", "attr")):
            found.append((node.lineno, "is_zero"))  # an import, a name or an attribute
    return sorted(found)


def test_zero_test_sites_are_found():
    source = "from .scalars import is_zero as z, sign\nTOL = 1e-12\n" \
             "def f(x):\n    return sc.is_zero(x) or is_zero(x) or abs(x) <= 0.5 or x == 1\n"
    assert zero_test_sites(source) == [(1, "is_zero"), (2, "1e-12"), (4, "0.5"),
                                       (4, "is_zero"), (4, "is_zero")]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in ("verdicts.py", "scalars.py")],
                         ids=lambda p: p.name)
def test_zero_tests_are_made_in_verdicts(path):
    """Every zero test goes through ``verdicts.meets_zero`` and its fixed
    float tolerance: no other module calls ``is_zero`` or holds a tolerance
    of its own."""
    assert zero_test_sites(path.read_text(encoding="utf-8")) == []


def named_parameters(source: str, name: str) -> list:
    """(line, function name) of every function or lambda with a parameter
    named ``name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            if any(a.arg == name for a in params):
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return sorted(found)


def test_mode_parameters_are_found():
    source = "def f(x, mode='exact'):\n    return g(x, mode=mode)\n" \
             "class C:\n    def m(self, *, mode):\n        pass\n" \
             "h = lambda mode: mode\ndef k(model, modes, plan):\n    return plan.mode\n" \
             "async def a(*mode):\n    pass\n"
    assert named_parameters(source, "mode") == [(1, "f"), (4, "m"), (6, "<lambda>"), (9, "a")]
    assert named_parameters(source, "plan") == [(7, "k")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_mode(path):
    """The sample points decide exact or float arithmetic, so no function
    is told the mode beside them."""
    assert named_parameters(path.read_text(encoding="utf-8"), "mode") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_plan(path):
    """A run has one sample plan, the manifest's: the CLI applies its flags
    to it once, so no function is handed a plan beside the manifest."""
    assert named_parameters(path.read_text(encoding="utf-8"), "plan") == []


# the names that give irrational values: the multiples of sqrt(p^2 + 4q),
# a/2 = sqrt(p^2 + 4q)/2, and sigma, which no module may bring back
IRRATIONAL = ("MetallicScalar", "half_root", "sigma")


def scalar_uses(source: str) -> list:
    """(line, name) of every import of a name in ``IRRATIONAL`` and every
    definition of ``scaled_sum`` in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[-1] in IRRATIONAL]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == "scaled_sum":
            found.append((node.lineno, "scaled_sum"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, "scaled_sum") for t in targets
                      if getattr(t, "id", None) == "scaled_sum"]
    return sorted(found)


def test_scalar_uses_are_found():
    source = "from .scalars import MetallicScalar as M, sign\nfrom . import scalars\n" \
             "from .scalars import sigma\ndef scaled_sum(*terms):\n    pass\n" \
             "def f(sigma):\n    return sigma\nscaled_sum = None\n" \
             "from .scalars import abs_greater, half_root as h\ndef half_root():\n    pass\n"
    assert scalar_uses(source) == [(1, "MetallicScalar"), (3, "sigma"), (4, "scaled_sum"),
                                   (8, "scaled_sum"), (9, "half_root")]


# the modules of the verdict path, which see values over Q only
OVER_Q = ("verdicts.py", "paracontact.py", "manifold.py", "exprs.py")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_q_sigma_stays_out_of_the_verdict_path(path):
    """Every verdict is decided on Psi over Q: the modules of the verdict
    path import no name of ``IRRATIONAL``, and no module scales a residual
    by an irrational constant through ``scaled_sum``."""
    found = scalar_uses(path.read_text(encoding="utf-8"))
    if path.name not in OVER_Q:
        found = [use for use in found if use[1] == "scaled_sum"]
    assert found == []


# the fields of a suite's report entry that only ``SuiteResult.to_json`` writes
SUITE_FIELDS = ("max_residual", "witnesses")


def suite_field_sites(source: str) -> list:
    """(line, enclosing class and function names) of every string constant
    in ``SUITE_FIELDS`` in a module, except where it indexes a subscript
    that is read: the places that write those fields of a suite entry."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
            elif isinstance(child, ast.Subscript) and isinstance(child.ctx, ast.Load) \
                    and isinstance(child.slice, ast.Constant) and child.slice.value in SUITE_FIELDS:
                visit(child.value, scope)
            else:
                if isinstance(child, ast.Constant) and child.value in SUITE_FIELDS:
                    found.append((child.lineno, ".".join(scope)))
                visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_suite_field_sites_are_found():
    source = "class SuiteResult:\n    def to_json(self, sid):\n" \
             "        return {'max_residual': 0, 'witnesses': []}\n" \
             "def f(s, w):\n    s['witnesses'] = w\n" \
             "    return s['max_residual']['exact'], dict(s, witnesses=w), s.get('witnesses')\n" \
             "WITNESSES = 'witnesses'\n"
    assert suite_field_sites(source) == [(3, "SuiteResult.to_json"), (3, "SuiteResult.to_json"),
                                         (5, "f"), (6, "f"), (7, "")]


def test_suite_entries_have_one_writer():
    """``SuiteResult.to_json`` is the only code that writes the worst
    residual and the witnesses of a suite's report entry; reading a report,
    as the CLI does, is not writing one."""
    found = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for _, scope in suite_field_sites(path.read_text(encoding="utf-8"))]
    assert found == [("harness.py", "SuiteResult.to_json")] * 2


def float_sum_uses(source: str) -> list:
    """(line, name) of every use of the builtin ``sum`` or of ``math.fsum``
    in a module, called or passed on; found through the AST, so that a name
    such as ``_qsum`` is not one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in ("sum", "fsum"):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "fsum":
            found.append((node.lineno, "fsum"))
    return sorted(found)


def test_float_sum_uses_are_found():
    source = "import math\nfrom math import fsum\ndef _qsum(a, b):\n    return a + b\n" \
             "def f(xs):\n    return sum(xs) + math.fsum(xs) + fsum(xs) + _qsum(1, 2)\n" \
             "g = lambda xss: max(map(sum, xss))\n"
    assert float_sum_uses(source) == [(6, "fsum"), (6, "fsum"), (6, "sum"), (7, "sum")]


def test_exprs_adds_floats_left_to_right():
    """``exprs`` uses neither the builtin ``sum`` nor ``math.fsum``: from
    Python 3.12 ``sum`` adds floats with compensated summation, so that
    sum([0.1] * 10) is 0.9999999999999999 on 3.11 and 1.0 on 3.12, and a
    float report would differ between versions.  The float kernel adds
    from int 0, left to right."""
    assert float_sum_uses((SRC / "exprs.py").read_text(encoding="utf-8")) == []


def bounded_memos(source: str) -> list:
    """(line, function name) of every function memoised with ``lru_cache``,
    bare, called or as ``functools.lru_cache``: it evicts past its
    ``maxsize``, 128 unless given, where ``functools.cache`` never does."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if "lru_cache" in (getattr(dec, "id", None), getattr(dec, "attr", None)):
                    found.append((node.lineno, node.name))
    return sorted(found)


def test_bounded_memos_are_found():
    source = "import functools\nfrom functools import cache, lru_cache\n" \
             "@lru_cache(maxsize=4096)\ndef f(x):\n    pass\n" \
             "@functools.lru_cache\ndef g(x):\n    pass\n" \
             "@cache\ndef h(x):\n    pass\n" \
             "@functools.lru_cache(128)\nasync def k(x):\n    pass\n"
    assert bounded_memos(source) == [(4, "f"), (7, "g"), (13, "k")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_memo_has_a_bound(path):
    """The memos of ``add``, ``mul``, ``diff`` and the contraction plan are
    ``functools.cache``: a bound evicts entries during a run, and ``diff``,
    which is recursive, then rebuilds an evicted entry with its whole
    subtree."""
    assert bounded_memos(path.read_text(encoding="utf-8")) == []


DEMOS = ROOT / "demos"


def uncalled_definitions(modules: dict, others: list) -> list:
    """(module, name) of every public module-level function or class in
    ``modules`` (file name -> source) that no name or attribute reads, in
    any of ``modules`` outside the definition itself or in ``others``
    (sources)."""
    defined, read = [], set()
    for source in others:
        read.update(_names_read(ast.parse(source)))
    for fname, source in modules.items():
        for node in ast.parse(source).body:
            names = _names_read(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a definition that names itself does not call itself
                if not node.name.startswith("_"):
                    defined.append((fname, node.name))
            read |= names
    return sorted(d for d in defined if d[1] not in read)


def _names_read(tree) -> set:
    """Every name and attribute name in ``tree``."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_uncalled_definitions_are_found():
    modules = {"a.py": "def f():\n    return g() + f()\ndef g():\n    pass\n"
                       "def _h():\n    pass\nclass K:\n    pass\ndef unused():\n    return K\n",
               "b.py": "from . import a\nX = a.h2\ndef h2():\n    pass\ndef shown():\n    pass\n"}
    assert uncalled_definitions(modules, []) == [("a.py", "f"), ("a.py", "unused"),
                                                 ("b.py", "shown")]
    assert uncalled_definitions(modules, ["from metallic_tm import a\na.f(); a.unused()\n"]) == [
        ("b.py", "shown")]


def test_every_public_definition_has_a_caller():
    """Code that has no caller is deleted: every public module-level
    function or class of the package is named in the package outside its
    own definition, or in a demo."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text(encoding="utf-8") for p in sorted(DEMOS.glob("*.py"))]
    assert uncalled_definitions(modules, demos) == []
