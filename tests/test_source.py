"""Checks on the library's source text and its public surface."""
import ast
import inspect
from pathlib import Path

import pytest

import smartlong

PACKAGE = Path(smartlong.__file__).parent
REPO = Path(__file__).resolve().parent.parent
# the oldest Python that pyproject.toml's requires-python admits
FLOOR = (3, 10)
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# what an analysis calls; a new export is an edit to this list
PUBLIC_NAMES = {
    # design
    "DesignKind", "EmbeddedCai", "SmartDesign", "consistency_indicator", "design_weight", "enumerate_cais",
    # data
    "ClusterRecord", "IndividualRecord", "TableSchema", "TimeGrid", "TrialDataset",
    "parse_long_table", "serialize_long_table", "validate",
    # meanmodel
    "AnchoredKnotBasis", "ContrastVector", "CustomBasis", "MeanModelSpec", "ThetaEstimate",
    "contrast_auc", "contrast_end_of_study", "contrast_second_stage_slope", "custom_contrast",
    "make_saturated_basis", "mu", "stack_design_matrix",
    # workingcov
    "AlphaEstimate", "BetweenCorr", "CorrCai", "VarianceCai", "VarianceTime", "WithinCorr", "WorkingCovSpec",
    "build_V",
    # gee
    "AdjustmentOptions", "FitOptions", "FitResult", "WaldResult", "WeightMode", "WeightModel",
    "fit", "fit_end_of_study", "wald_test",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    return {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def module_all(tree):
    """The literal ``__all__`` of a module's source, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    # a name left imported after the code that used it is deleted
    tree = parse(path)
    imported = imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(f"{name} (line {line})" for line, name in unused)


EXPORTING = [p for p in MODULES if module_all(parse(p)) is not None]


@pytest.mark.parametrize("path", EXPORTING, ids=[p.name for p in EXPORTING])
def test_all_names_only_what_the_module_defines_or_imports(path):
    tree = parse(path)
    names = module_all(tree)
    bound = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    assert sorted(set(names) - bound) == [], path.name


def test_the_package_imports_only_what_its_modules_publish():
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in parse(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in (module_all(parse(PACKAGE / f"{node.module}.py")) or ())
    ]
    assert unlisted == []


def test_public_names_are_the_pinned_list():
    public = {
        name for name, value in vars(smartlong).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(PUBLIC_NAMES) == 43
    assert public == PUBLIC_NAMES


def test_sources_use_only_the_grammar_of_the_python_floor():
    # the interpreter running the tests may be newer than the floor
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in (REPO / "pyproject.toml").read_text()
    sources = sorted(path for top in ("src", "tests", "bench") for path in (REPO / top).rglob("*.py"))
    assert len(sources) > len(MODULES)
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(REPO)}:{exc.lineno}: {exc.msg}")
    assert failures == []
