"""Public names that no code of the package calls.

Every public top-level function and public method of a public class in
``src/dyadica`` should be reached from another place in the package, or be
listed below with the consumer that keeps it.  A name is reached when an
``ast.Name`` or ``ast.Attribute`` with its name appears in the package
outside its own definition.  Matching is by name only, so a method shares
its callers with every attribute of the same name: the scan can miss an
unused method, but it never flags a used one.
"""
import ast
from collections import defaultdict
from pathlib import Path

import dyadica

ITEM_1 = "ROADMAP item 1: reducing operators whose direction sample cannot miss the ball"
ITEM_2 = "ROADMAP item 2: A_p-dimension estimates and their dims block"
ITEM_5 = "ROADMAP item 5: operator wavelet matrices"
ITEM_8 = "ROADMAP item 8: weight averages whose quadrature error is known"
ITEM_9 = "ROADMAP item 9: trace and extension end to end"
ACCEPTANCE = "seed acceptance test (tests/test_acceptance.py)"
PERFBENCH = "perfbench counter"
EXPORTED = "package API: its class or itself is in dyadica.__all__"

# "<module>.<function>" or "<module>.<Class>.<method>" -> why it stays
ALLOWED = {
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
    "params.JsMoleculeSpec.admits": ACCEPTANCE,
    "params.WeightDims.for_order": ITEM_2,
    "params.czo_conditions": ACCEPTANCE,
    "seq.CoeffField.plus": EXPORTED,
    "seq.CoeffField.scaled": EXPORTED,
    "seq.averaged_stack": PERFBENCH + " (seq.averaged_stack.self_s)",
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


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, definition node) of every public
    top-level function and public method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def uncalled_public_names() -> set[str]:
    """Public names of the package with no reference outside their own
    definition anywhere in the package."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(dyadica.__file__).parent.glob("*.py"))}
    refs = defaultdict(list)  # bare name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((module, node.lineno))
    found = set()
    for module, tree in trees.items():
        for qualname, name, node in _public_definitions(module, tree):
            own = range(node.lineno, node.end_lineno + 1)
            if all(m == module and line in own for m, line in refs[name]):
                found.add(qualname)
    return found


def test_every_uncalled_public_name_is_allowed():
    extra = sorted(uncalled_public_names() - set(ALLOWED))
    assert not extra, (f"public names that only tests reach: {extra}; "
                       "give each a library caller, delete it, or allow it with its consumer")


def test_every_allowed_name_exists_and_is_uncalled():
    stale = sorted(set(ALLOWED) - uncalled_public_names())
    assert not stale, f"allowed names that are gone or now have a library caller: {stale}"
