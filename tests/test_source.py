"""Static checks over the package source, standing in for a linter."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import votekit

PACKAGE = Path(votekit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _modules(directory: Path) -> dict[str, ast.Module]:
    """The parsed modules of a directory, by file name."""
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(directory.glob("*.py"))}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotation_names(node) -> set[str]:
    """Names inside an annotation, quoted forward references included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _reexports() -> dict[str, set[str]]:
    """Module name -> names that the package __init__ imports from it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(a.asname or a.name for a in node.names)
    return out


def test_every_import_is_used():
    reexports = _reexports()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree) | _dunder_all(tree) | reexports.get(path.stem, set())
        for name, line in _imported(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def test_reexports_are_in_their_modules_dunder_all():
    """Every name the package __init__ imports from one of its modules is
    in that module's __all__."""
    missing = [
        f"{module}.{name}"
        for module, names in sorted(_reexports().items())
        for name in sorted(names - _dunder_all(_modules(PACKAGE)[f"{module}.py"]))
    ]
    assert missing == []


def test_every_dunder_all_entry_exists():
    """Every name in a module's __all__, the package's own included, is
    bound in that module."""
    missing = []
    for name, tree in _modules(PACKAGE).items():
        stem = name.removesuffix(".py")
        if entries := _dunder_all(tree):
            module = importlib.import_module("votekit" if stem == "__init__" else f"votekit.{stem}")
            missing += [f"{name}: {entry}" for entry in sorted(entries) if not hasattr(module, entry)]
    assert missing == []


def _references(node) -> Counter:
    """How often each name is referenced under node: as a name, as an
    attribute, as an imported name or inside an annotation."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.arg) and sub.annotation is not None:
            refs.update(_annotation_names(sub.annotation))
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns is not None:
            refs.update(_annotation_names(sub.returns))
        elif isinstance(sub, ast.AnnAssign):
            refs.update(_annotation_names(sub.annotation))
    return refs


def _unreferenced(private: bool, referrers: list[ast.Module]) -> list[str]:
    """The private (or public) functions, methods and classes of the
    package that no module of referrers references outside their own
    definition.  Dunder names are neither."""
    total = sum((_references(tree) for tree in referrers), Counter())
    unused = []
    for name, tree in _modules(PACKAGE).items():
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") == private
                and not node.name.startswith("__")
                and total[node.name] <= _references(node)[node.name]
            ):
                unused.append(f"{name}:{node.lineno}: {node.name}")
    return unused


def test_every_private_definition_is_referenced():
    """A private function, method or class that no module of the package
    references outside its own definition is dead code."""
    assert _unreferenced(True, list(_modules(PACKAGE).values())) == []


def test_every_public_definition_is_referenced():
    """A public function, method or class that no module of the package or
    of its tests references outside its own definition is dead code."""
    assert _unreferenced(False, [*_modules(PACKAGE).values(), *_modules(TESTS).values()]) == []


# numpy names that need numpy 2; pyproject declares numpy >= 1.24.
NUMPY_2_ONLY = {"bitwise_count", "unique_values", "unique_counts", "unique_inverse", "unique_all", "cumulative_sum"}


def test_no_numpy_2_only_names():
    """The package runs on the numpy floor that pyproject declares."""
    found = []
    for name, tree in _modules(PACKAGE).items():
        for node in ast.walk(tree):
            refs = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                refs |= {alias.name for alias in node.names}
            found += [f"{name}:{node.lineno}: {ref}" for ref in sorted(refs & NUMPY_2_ONLY)]
    assert found == []


# pipeline's unchecked readers, and the only functions that may use them:
# each tier file has one reader, which checks what it returns.
CHECKED_READERS = {
    "_read_rows": {"_load_store", "_load_positions", "load_certificates"},
    "read_catalog_header": {"_checked_catalog"},
}


def test_tier_files_are_read_only_by_their_checked_readers():
    """No pipeline function outside a file's checked reader reads the
    file unchecked."""
    found = []
    for top in _modules(PACKAGE)["pipeline.py"].body:
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in CHECKED_READERS and getattr(top, "name", None) not in CHECKED_READERS[name]:
                found.append(f"pipeline.py:{node.lineno}: {name}")
    assert found == []


def test_pipeline_does_not_dedup_per_game_rows():
    """The tier build deduplicates the per-game vector rows once, and its
    readers take the distinct rows from the store files: pipeline
    references neither store_from_rows nor count_distinct_rows."""
    refs = _references(_modules(PACKAGE)["pipeline.py"])
    assert [name for name in ("store_from_rows", "count_distinct_rows") if refs[name]] == []


def test_cli_prints_only_counts_read_from_checked_tier_files():
    """Every count the CLI prints comes from a loader that checks the tier
    file behind it: cli references neither the frozen certified counts
    nor a test of the tier files' mere presence.  The documented counts
    beyond the last tier, quoted when it refuses them, are allowed."""
    refs = _references(_modules(PACKAGE)["cli.py"])
    assert [name for name in ("GAME_COUNTS", "DISTINCT_VECTOR_COUNTS", "tier_present") if refs[name]] == []


def test_only_the_attaining_match_reads_per_game_rows():
    """Within pipeline, only the whole-tier check and omega's search for
    the attaining games read a position file, the one per-game file
    beside the catalogs and certificates: every other reader, the gap
    search included, takes the distinct rows of the store files."""
    readers = {
        top.name
        for top in _modules(PACKAGE)["pipeline.py"].body
        if isinstance(top, ast.FunctionDef) and top.name != "_load_positions" and _references(top)["_load_positions"]
    }
    assert readers == {"_check_tier", "_attaining_indices"}


def test_each_weightedness_lp_entry_has_one_caller():
    """One weightedness test, solved two ways: enumeration's chunk
    classifier is the only module outside exactlp on solve_block, and
    games.is_weighted the only one on solve_nonneg_geq."""
    callers = {"solve_block": "enumeration.py", "solve_nonneg_geq": "games.py"}
    found = [
        f"{name}: {entry}"
        for name, tree in _modules(PACKAGE).items()
        for entry, caller in callers.items()
        if name not in ("exactlp.py", caller) and _references(tree)[entry]
    ]
    assert found == []


def test_exactlp_uses_no_floats():
    """No float enters a decision of the exact solver: exactlp.py has no
    true division, and no name or attribute that names a float type or
    numpy's true division."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "exactlp.py").read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: /")
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
        if "float" in name.lower() or name in ("divide", "true_divide"):
            found.append(f"line {node.lineno}: {name}")
    assert found == []


# Shift-order helpers, and per module the functions that may reference
# them (None: any): one family extractor serves chunks and single games,
# and the per-mask cover table serves the enumeration DFS alone.
SHIFT_HELPERS = {
    "_shift_family": {"games.py": None, "enumeration.py": {"shift_minimal_families", "shift_maximal_losing_families"}},
    "_cover_steps": {"games.py": None},
    "_lower_covers": {"enumeration.py": {"iter_complete_chunks"}},
}


def test_shift_families_have_one_extractor():
    """games is the only module that extracts shift families: outside it,
    only enumeration's two chunk wrappers reference the extractor, and
    only enumeration's DFS references the cover table."""
    found = []
    for name, tree in _modules(PACKAGE).items():
        for top in tree.body:
            if isinstance(top, ast.ImportFrom):
                continue
            for helper, modules in SHIFT_HELPERS.items():
                callers = modules.get(name, set())
                if _references(top)[helper] and callers is not None and getattr(top, "name", None) not in callers:
                    found.append(f"{name}:{top.lineno}: {helper}")
    assert found == []


# The subset-count DP's forward pass and removal recurrence.
SUBSET_COUNT_DP = ("_size_sum_counts", "_removal_table")


def test_one_subset_count_dp():
    """indices holds the only forward subset-count DP and removal
    recurrence: no other module defines them, and only inverse's quota
    scan references them outside indices."""
    found = []
    for name, tree in _modules(PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in SUBSET_COUNT_DP and name != "indices.py":
                found.append(f"{name}:{node.lineno}: defines {node.name}")
        if name not in ("indices.py", "inverse.py"):
            found += [f"{name}: references {helper}" for helper in SUBSET_COUNT_DP if _references(tree)[helper]]
    assert found == []


# The functions that may build the full coalition index np.arange(1 << n):
# the membership matrix, the packed cover masks and the popcount table
# each tabulate a per-coalition quantity once per voter count.  Every
# per-voter scan of an outcome table reads it through games._voter_halves
# instead, and a relabelling transposes the table.
FULL_INDEX_BUILDERS = {("games.py", "_members"), ("games.py", "_cover_steps"), ("indices.py", "_popcounts")}


def _full_index_calls(node, where: str | None = None):
    """(innermost enclosing function, line) of each np.arange(1 << ...)
    under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if (
            isinstance(child, ast.Call)
            and getattr(child.func, "attr", None) == "arange"
            and child.args
            and isinstance(child.args[0], ast.BinOp)
            and isinstance(child.args[0].op, ast.LShift)
            and getattr(child.args[0].left, "value", None) == 1
        ):
            yield where, child.lineno
        yield from _full_index_calls(child, inner)


def test_only_the_allowlisted_tables_build_a_full_coalition_index():
    """Outside FULL_INDEX_BUILDERS, no function of the package builds
    np.arange(1 << n): the table layout is read through one helper."""
    found = [
        f"{name}:{line}: {where}"
        for name, tree in _modules(PACKAGE).items()
        for where, line in _full_index_calls(tree)
        if (name, where) not in FULL_INDEX_BUILDERS
    ]
    assert found == []
