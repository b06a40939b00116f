"""Package hygiene: no unused imports in the library, a top-level namespace
whose every export resolves, and README code that runs as written."""

import ast
import re
import shutil
from pathlib import Path

import layerburn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "layerburn"


def _imported_names(tree):
    """{bound name: line} for every import statement except __future__ ones."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree):
    """Names read anywhere in the module, in quoted annotations, or exported by __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def test_library_modules_have_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_top_level_export_resolves():
    assert len(set(layerburn.__all__)) == len(layerburn.__all__)
    missing = [name for name in layerburn.__all__ if not hasattr(layerburn, name)]
    assert not missing


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    # the blocks run from the repository root, so they see configs/ there
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), {})
