"""Public names that no code of the package calls, and imports that no code uses.

Every public top-level function and public method of a public class in
``src/dyadica`` should be reached from another place in the package, or be
listed in ``ALLOWED`` with the consumer that keeps it.  The scan reads the
package's source:

- A function is reached by its name, outside its own definition, in a module
  that defines it or imports it from its module: anywhere in a function
  body, or called by module-level code.  A module-level reference that is not
  a call (a table entry, a lambda) only registers the function, and a lookup
  by string is not a call the scan can follow.
- A method is reached only through an attribute access ``x.name`` outside its
  own definition; a bare name (a local variable, a builtin) never reaches it.
- An attribute access does not say which object it is on.  So where a
  method's name is also an attribute of a type the package's code holds
  (``SHARED_TYPES``) or of another class of the package, ``CALLERS`` names
  the package function that calls it.  So it does where every access goes
  through ``self`` or ``cls`` of its own class: such a call may sit on a path
  that only tests take, as ``CoeffField.set`` behind ``CoeffField(data=)``.
  The scan checks that the named function's body accesses the name; without
  such an entry the method counts as uncalled.
- A ``CALLERS`` entry whose caller only ``ALLOWED`` names reach, directly or
  through functions that only they reach, is marked in ``THROUGH_ALLOWED``
  with the allowed name; the method then runs outside tests only if that
  name does.

Every defaulted parameter of a public function, public method or public
class's ``__init__`` must be set by some call in the package, its tests or
perfbench; an option that no call sets, and the branches only it selects,
are deleted.  Every module-level import must be used by its module, unless
the name is in the module's ``__all__`` or comes from ``__future__``.
"""
import ast
import io
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import dyadica

PACKAGE = Path(dyadica.__file__).parent
REPO = Path(__file__).resolve().parents[1]

ITEM_1 = "ROADMAP item 1: reducing operators whose direction sample cannot miss the ball"
ITEM_2 = "ROADMAP item 2: A_p-dimension estimates and their dims block"
ITEM_3 = "ROADMAP item 3: window operator norms, whose checks run on identity matrices"
ITEM_5 = "ROADMAP item 5: operator wavelet matrices"
ITEM_8 = "ROADMAP item 8: weight averages whose quadrature error is known"
ITEM_9 = "ROADMAP item 9: trace and extension end to end"
ACCEPTANCE = "seed acceptance test (tests/test_acceptance.py)"
PERFBENCH = "perfbench counter"
EXPORTED = "package API: its class or itself is in dyadica.__all__"

# "<module>.<function>" or "<module>.<Class>.<method>" -> why it stays
ALLOWED = {
    "ad.ADMatrix.identity": ITEM_3,
    "ad.apply": PERFBENCH + " (ad.apply.self_s)",
    "ad.bdef_entry": PERFBENCH + " (ad.bdef_entry.calls)",
    "ad.gram_matrix": ITEM_5,
    "czo.SymbolS11u.derivative_symbol": ITEM_5,
    "czo.SymbolS11u.multiplier_power": ACCEPTANCE,
    "czo.apply_pdo": ITEM_5,
    "czo.apply_to_atom_farfield": ACCEPTANCE,
    "czo.czo_molecule_conditions": ACCEPTANCE,
    "czo.decay_fit": ACCEPTANCE,
    "czo.legacy_to_mixed": ACCEPTANCE,
    "czo.symbol_class_check": ITEM_5,
    "czo.t1_molecule_witness": ACCEPTANCE,
    "dyadic.DyadicCube.ancestor": EXPORTED,
    "dyadic.children": EXPORTED,
    "dyadic.distance_term": PERFBENCH + " (dyadic.distance_term.calls)",
    "molecules.families_ad_check": ITEM_5,
    "molecules.wavelet_family": ITEM_5,
    "params.CzoConditionSpec.check": ACCEPTANCE,
    "params.JsMoleculeSpec.admits": ACCEPTANCE,
    "params.WeightDims.for_order": ITEM_2,
    "params.czo_conditions": ACCEPTANCE,
    "seq.CoeffField.cubes": ACCEPTANCE,
    "seq.CoeffField.get": ACCEPTANCE,
    "seq.CoeffField.plus": EXPORTED,
    "seq.CoeffField.scaled": EXPORTED,
    # CoeffField.__init__ calls it only for data=, which only tests pass
    "seq.CoeffField.set": PERFBENCH + " (seq.CoeffField.set.calls and .self_s)",
    "seq.averaged_stack": PERFBENCH + " (seq.averaged_stack.self_s)",
    "seq.seq_norm_averaged": EXPORTED,
    "seq.equivalence_report": ITEM_8,
    "seq.subset_norm": "ROADMAP item 7: kept as a paper object, the subset-indicator norm",
    "seq.weighted_stack": PERFBENCH + " (seq.weighted_stack.self_s)",
    "trace.ext_coeffs": ITEM_9,
    "trace.ext_wavelet": ITEM_9,
    "trace.trace_norm_report": ITEM_9,
    "trace.trace_wavelet": ITEM_9,
    "wavelets.FunctionSample.from_callable": ACCEPTANCE,
    "wavelets.filter_moments": ACCEPTANCE,
    "wavelets.wavelet_norm": ACCEPTANCE,
    "weights.john_direction_report": ITEM_1,
    "weights.reducing_operator": PERFBENCH + " (weights.reducing_operator.calls)",
}

# types whose attributes an access in the package's code may be reading
SHARED_TYPES = (dict, list, str, tuple, set, np.ndarray, np.random.Generator, io.TextIOWrapper)

# "<module>.<Class>.<method>" -> a package function or method that calls it
CALLERS = {
    "czo.ConditionFit.to_dict": "czo.czk_check",
    "czo.Kernel.deriv": "czo._corner_sum",
    "dyadic.CubeArrays.cube": "weights.ap_dimension_estimate",
    "dyadic.CubeArrays.lower": "dyadic.distance_block",
    "dyadic.CubeArrays.n": "dyadic.distance_block",
    "dyadic.CubeArrays.side": "dyadic.distance_block",
    "dyadic.CubeArrays.take": "seq.CoeffField.nonzero",
    "dyadic.DyadicCube.center": "molecules.make_atom",
    "dyadic.DyadicCube.lower": "molecules.envelope",
    "dyadic.DyadicCube.side": "molecules.make_atom",
    "dyadic.DyadicCube.upper": "seq.subset_norm",
    "dyadic.LatticeWindow.count": "seq.CoeffField.__init__",
    "dyadic.LatticeWindow.cubes": "dyadic.LatticeWindow.all_cubes",
    "molecules.MoleculeCandidate.deriv": "molecules.validate_atom",
    "molecules.MoleculeReport.passed": "molecules.MoleculeReport.to_dict",
    "molecules.MoleculeReport.to_dict": "cli.cmd_molcheck",
    "params.ADRegion.check": "cli.cmd_adprobe",
    "params.ConstraintSet.ok": "params.ConstraintSet.to_dict",
    "params.ConstraintSet.to_dict": "cli.cmd_adprobe",
    "params.Inequality.ok": "params.ConstraintSet.ok",
    "params.JsMoleculeSpec.check": "params.JsMoleculeSpec.admits",
    "params.SpaceParams.from_dict": "cli._load_space",
    "params.SpaceParams.to_dict": "cli.cmd_norm",
    "seq.CoeffField.items": "seq.subset_norm",
    "seq.CoeffField.levels": "trace.trace_coeffs",
    "seq.CoeffField.lower": "trace.trace_coeffs",
    "seq.CoeffField.nonzero": "wavelets.parseval_report",
    "seq.CoeffField.random": "trace.trace_norm_report",
    "seq.CoeffField.write": "wavelets.analyze",
    "seq.LevelFunctionStack.midpoints_axis": "seq.LevelFunctionStack.midpoints",
    "seq.NormResult.to_dict": "cli.cmd_norm",
    "wavelets.FilterPair.support_width": "wavelets.WaveletSystem.support_width",
    "wavelets.FunctionSample.h": "wavelets.FunctionSample.energy",
    "wavelets.FunctionSample.shape": "wavelets.analyze",
    "wavelets.WaveletSystem.support_width": "wavelets.WaveletSystem.phi_at_integer",
    "weights.MatrixWeight.constant": "weights.MatrixWeight.from_dict",
    "weights.MatrixWeight.diag_power": "weights.MatrixWeight.from_dict",
    "weights.MatrixWeight.from_dict": "cli._load_weight",
    "weights.MatrixWeight.grid": "weights.MatrixWeight.from_dict",
    "weights.MatrixWeight.identity": "cli.cmd_norm",
    "weights.MatrixWeight.power": "seq.seq_norms_weighted",
    "weights.QuadratureSpec.cells_per_axis": "weights.QuadratureSpec.nodes",
    "weights.QuadratureSpec.nodes": "weights._box_nodes",
    "weights.ReducingFamily.identity": "ad.empirical_norm",
    "weights.WeightTable.power": "weights.MatrixWeight.power",
}

# CALLERS entries whose caller only ALLOWED names reach -> the allowed name
# that reaches it; such a method runs outside tests only if that name does
THROUGH_ALLOWED = {
    "dyadic.DyadicCube.upper": "seq.subset_norm",
    "params.JsMoleculeSpec.check": "params.JsMoleculeSpec.admits",
    "seq.CoeffField.items": "seq.subset_norm",
    "seq.CoeffField.random": "trace.trace_norm_report",
}


def _class_attributes(cls: ast.ClassDef) -> set[str]:
    """Methods, class-level names and ``self.<name> = ...`` attributes."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def _running_names(tree: ast.Module):
    """Every name inside a function body, and the called names of module- and
    class-level code outside lambdas."""
    stack = [(tree, False)]
    while stack:
        node, in_def = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda) and not in_def:
                continue
            if in_def and isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                yield child
            elif not in_def and isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                yield child.func
            stack.append((child, in_def or isinstance(child, ast.FunctionDef)))


def _accesses(node: ast.AST, name: str) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))


@dataclass
class Scan:
    uncalled: set[str]   # public names with no caller the scan can see
    needless: set[str]   # CALLERS entries for a name that is gone or needs none
    # CALLERS entries whose caller only allowed names reach -> those allowed names
    behind_allowed: dict[str, set[str]]


def _enclosing(functions: dict, module: str, line: int) -> str | None:
    """The function or method whose body holds the line; None at module or
    class level."""
    return next((q for q, node in functions.items() if q.split(".")[0] == module
                 and node.lineno <= line <= node.end_lineno), None)


def _behind(refs: dict[str, set], allowed) -> dict[str, set[str]]:
    """The names that only allowed names reach, each with the allowed names
    it is reached through; repeated until nothing changes, so that chains
    are followed."""
    roots = {name: {name} for name in allowed}
    grown = True
    while grown:
        grown = False
        for name, by in refs.items():
            if name not in roots and by and all(r in roots for r in by):
                roots[name] = set().union(*(roots[r] for r in by))
                grown = True
    return roots


def scan(package: Path, callers: dict[str, str], allowed=()) -> Scan:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    functions, classes, owners = {}, {}, defaultdict(set)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                classes[f"{module}.{node.name}"] = node
                for name in _class_attributes(node):
                    owners[name].add(f"{module}.{node.name}")
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        functions[f"{module}.{node.name}.{item.name}"] = item
    shared = set().union(*(dir(t) for t in SHARED_TYPES))
    names = defaultdict(list)   # (defining module, name) -> [(module, line)]
    attrs = defaultdict(list)   # attribute name -> [(module, line, through self or cls)]
    for module, tree in trees.items():
        bound = {alias.asname or alias.name: (node.module, alias.name)
                 for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names}
        for node in _running_names(tree):
            names[bound.get(node.id, (module, node.id))].append((module, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                attrs[node.attr].append((module, node.lineno, own))
    uncalled, needy = set(), set()
    refs = {}   # name -> the functions that reach it (None: module-level code)
    for qualname, node in functions.items():
        module, *cls, name = qualname.split(".")
        own = range(node.lineno, node.end_lineno + 1)
        if not cls:
            sites = names[(module, name)]
        elif name == "__init__":   # a constructor is reached through its class's name
            sites = names[(module, cls[0])]
        else:
            sites = [(m, line) for m, line, _ in attrs[name]]
        refs[qualname] = {_enclosing(functions, m, line) for m, line in sites
                          if not (m == module and line in own)}
        if name.startswith("_") or (cls and cls[0].startswith("_")):
            continue
        if not cls:
            if all(m == module and line in own for m, line in names[(module, name)]):
                uncalled.add(qualname)
            continue
        owner = f"{module}.{cls[0]}"
        body = classes[owner]
        outside = [(m, line, via) for m, line, via in attrs[name]
                   if not (m == module and line in own)]
        self_only = outside and all(m == module and body.lineno <= line <= body.end_lineno
                                    and via for m, line, via in outside)
        if name in shared or owners[name] - {owner} or self_only:
            needy.add(qualname)
            caller = callers.get(qualname)
            refs[qualname] = {caller}
            if (caller == qualname or caller not in functions
                    or not _accesses(functions[caller], name)):
                uncalled.add(qualname)
        elif not outside:
            uncalled.add(qualname)
    roots = _behind(refs, allowed)
    behind = {name: roots[name] for name in callers if name in roots and name not in allowed}
    return Scan(uncalled, set(callers) - needy, behind)


def _defaulted(node: ast.FunctionDef, method: bool) -> tuple[list[str], list[str]]:
    """The parameters a call binds by position (after ``self`` or ``cls``) and
    the parameters that have a default."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    skip = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in node.decorator_list)
    return positional[skip:], defaulted


def _calls(tree: ast.Module):
    """(target kind, target name, call, enclosing class) of every call, where
    the kind is "name", "attr" or "super"; ``partial(f, ...)`` is read as a
    call of f."""
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            stack.append((child, child if isinstance(child, ast.ClassDef) else cls))
            if not isinstance(child, ast.Call):
                continue
            func, call = child.func, child
            if (getattr(func, "id", None) == "partial" or getattr(func, "attr", None) == "partial"
                    ) and child.args:
                func = child.args[0]
                call = ast.Call(func, child.args[1:], child.keywords)
            if isinstance(func, ast.Name):
                yield "name", func.id, call, cls
            elif isinstance(func, ast.Attribute):
                via_super = (isinstance(func.value, ast.Call)
                             and getattr(func.value.func, "id", None) == "super")
                yield "super" if via_super else "attr", func.attr, call, cls


def _passed(call: ast.Call, positional: list[str]) -> set[str]:
    """The parameters a call may set: by position, by keyword, or all of them
    behind ``*`` or ``**``."""
    if any(k.arg is None for k in call.keywords):
        return {"*"}
    spread = any(isinstance(a, ast.Starred) for a in call.args)
    return set(positional if spread else positional[:len(call.args)]) | {
        k.arg for k in call.keywords}


def unset_options(package: Path, sources: list[Path]) -> set[str]:
    """``<module>.<qualname>(<parameter>)`` for each defaulted parameter of a
    public function, public method or public class's ``__init__`` of the
    package that no call in the sources sets.  Calls match by name: a
    function by ``f(...)`` or ``x.f(...)``, a method by ``x.m(...)``, an
    ``__init__`` by ``C(...)``, by ``cls(...)`` inside C's body or by
    ``super().__init__(...)`` in a class that names C as a base."""
    targets = {}   # qualname -> (call matcher, positional, defaulted)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                targets[f"{path.stem}.{node.name}"] = (
                    lambda kind, name, cls, f=node.name: kind != "super" and name == f,
                    *_defaulted(node, False))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    match = (lambda kind, name, cls, c=node.name:
                             (kind != "super" and name == c)
                             or (kind == "name" and name == "cls" and cls is not None
                                 and cls.name == c)
                             or (kind == "super" and name == "__init__" and cls is not None
                                 and c in {getattr(b, "id", None) for b in cls.bases}))
                elif item.name.startswith("_"):
                    continue
                else:
                    match = lambda kind, name, cls, m=item.name: kind != "name" and name == m
                targets[f"{path.stem}.{node.name}.{item.name}"] = (match, *_defaulted(item, True))
    calls = [c for root in sources for path in sorted(root.rglob("*.py"))
             for c in _calls(ast.parse(path.read_text()))]
    unset = set()
    for qualname, (match, positional, defaulted) in targets.items():
        passed = set().union(*(_passed(call, positional) for kind, name, call, cls in calls
                               if match(kind, name, cls)))
        if "*" not in passed:
            unset.update(f"{qualname}({p})" for p in defaulted if p not in passed)
    return unset


def unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports that the module never names, outside ``__all__``
    and ``__future__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [name for name in bound if name not in used]
    return unused


def test_every_uncalled_public_name_is_allowed():
    extra = sorted(scan(PACKAGE, CALLERS).uncalled - set(ALLOWED))
    assert not extra, (f"public names that only tests reach: {extra}; give each a library "
                       "caller (named in CALLERS if its name is shared), delete it, or allow "
                       "it with its consumer")


def test_every_allowed_name_exists_and_is_uncalled():
    stale = sorted(set(ALLOWED) - scan(PACKAGE, CALLERS).uncalled)
    assert not stale, f"allowed names that are gone or now have a library caller: {stale}"


def test_every_caller_entry_names_a_shared_method():
    needless = sorted(scan(PACKAGE, CALLERS).needless)
    assert not needless, f"CALLERS entries for methods that are gone or need none: {needless}"


def test_every_caller_entry_names_a_caller_outside_tests_or_says_so():
    behind = scan(PACKAGE, CALLERS, ALLOWED).behind_allowed
    unmarked = {name: sorted(roots) for name, roots in behind.items()
                if THROUGH_ALLOWED.get(name) not in roots}
    assert not unmarked, (f"CALLERS entries whose caller only allowed names reach: {unmarked}; "
                          "name a caller that a report reaches, or mark the entry in "
                          "THROUGH_ALLOWED with the allowed name")
    stale = sorted(set(THROUGH_ALLOWED) - set(behind))
    assert not stale, f"THROUGH_ALLOWED entries whose caller runs outside tests: {stale}"


PLANTED = {
    "store.py": '''
class Table:
    def get(self, key):
        return key

    def items(self):
        return []


class Probe:
    def witness(self):
        return 1

    def copy(self):
        return Probe()


class Field:
    def __init__(self, data=None):
        if data:
            self.set(data)

    def set(self, data):
        self.data = data


def grid_kernel():
    return 0


REGISTRY = {"grid": grid_kernel, "lazy": lambda: grid_kernel()}
''',
    "use.py": '''
from .store import Field


def _lookup(d, key):
    return d.get(key)


def _check(margin):
    witness = margin + 1
    return witness


def _clone(p):
    return p.copy()


def _unrelated(p):
    return p


def _walk(t):
    return t.items()


def _build():
    return Field()
''',
}


def test_scan_reports_planted_escapes(tmp_path):
    for name, text in PLANTED.items():
        (tmp_path / name).write_text(text)
    callers = {"store.Table.items": "use._walk",          # a correct entry for a shared name
               "store.Probe.copy": "use._unrelated"}      # its caller does not access it
    found = scan(tmp_path, callers)
    assert found.uncalled == {
        "store.Table.get",       # a test-only method named like dict.get
        "store.Probe.witness",   # a test-only method named like a local variable
        "store.Probe.copy",      # its entry names a caller that does not access it
        "store.Field.set",       # reached only through self, from __init__
        "store.grid_kernel",     # referenced only by a registry entry
    }
    assert found.needless == set()
    # an entry for a method whose name is its own and not reached through self
    assert scan(tmp_path, {**callers, "store.Field.__init__": "use._build"}).needless == {
        "store.Field.__init__"}


CHAIN = '''
class Box:
    def get(self):
        return 1

    def keys(self):
        return []


def report(b):
    return b.get()


def helper(b):
    return b.keys()


def _inner(b):
    return helper(b)


def audit(b):
    return _inner(b)
'''


def test_scan_follows_callers_behind_allowed_names(tmp_path):
    (tmp_path / "chain.py").write_text(CHAIN)
    callers = {"chain.Box.get": "chain.report", "chain.Box.keys": "chain.helper"}
    allowed = {"chain.report", "chain.audit"}
    assert scan(tmp_path, callers, allowed).uncalled == allowed
    # keys: through helper, which only _inner reaches, which only audit reaches
    assert scan(tmp_path, callers, allowed).behind_allowed == {
        "chain.Box.get": {"chain.report"}, "chain.Box.keys": {"chain.audit"}}
    (tmp_path / "chain.py").write_text(CHAIN + "\nhelper(Box())\n")
    assert scan(tmp_path, callers, allowed).behind_allowed == {"chain.Box.get": {"chain.report"}}


def test_every_option_is_set_by_some_call():
    unset = sorted(unset_options(PACKAGE, [PACKAGE, REPO / "tests", REPO / "perfbench"]))
    assert not unset, (f"options that no call in the package, its tests or perfbench sets: "
                       f"{unset}; delete each with the branches only it selects")


OPTIONS = {
    "pkg/store.py": '''
def build(n, scale=1.0, shift=0.0, label="x", *, tag=None):
    return n


def _private(n, extra=1):
    return n


class Grid:
    def __init__(self, n, extra=2, fine=False, mode="a"):
        self.n = n

    @classmethod
    def coarse(cls, n):
        return cls(n, 0)

    def cells(self, level=0, pad=0):
        return level

    def walk(self, order="c"):
        return order


class Sub(Grid):
    def __init__(self, n, depth=1):
        super().__init__(n, fine=True)
''',
    "callers/use.py": '''
import functools

from pkg.store import Grid, Sub, build

build(1, scale=2.0)
build(1, 2.0, 3.0)
named = functools.partial(build, label="y")
Grid(3).cells(1, *[0])
Grid(3).walk(**{"order": "f"})
Sub(1, depth=2)
''',
}


def test_unset_options_are_found(tmp_path):
    for name, text in OPTIONS.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    # keyword, position, partial, cls(...), super().__init__, * and ** all set options
    assert unset_options(tmp_path / "pkg", [tmp_path]) == {
        "store.build(tag)", "store.Grid.__init__(mode)"}


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_module_imports_a_name_it_never_uses(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert unused_imports(tree) == []


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy.linalg\n"
                     "from .a import b, c as d\nfrom .e import f\n__all__ = ['f']\n"
                     "print(numpy, d)\n")
    assert unused_imports(tree) == ["os", "b"]
