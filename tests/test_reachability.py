"""Every top-level definition of the package is reached from the CLI or the
acceptance suite.

A static pass over name references: starting from every name that
src/fbvar/cli.py and tests/test_acceptance.py mention, a definition is
reached when its name is mentioned, and then the names in its body count
as mentioned too.  Names match across modules and attributes, so the
pass errs toward calling code reached.  Code that only its own unit tests
call fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fbvar"
ROOTS = (PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py")

# Unreached definitions that stay, each with its reason.
EXCEPTIONS = {}


def mentioned(tree):
    """Names a syntax tree reads: loaded names, attributes, imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def definitions(paths):
    """{(module, name): names its definition mentions} for every top-level
    function, class and assigned name."""
    defs = {}
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[(path.stem, stmt.name)] = mentioned(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defs[(path.stem, node.id)] = mentioned(stmt)
    return defs


def unreached(paths, roots):
    defs = definitions(paths)
    names = set().union(*(mentioned(ast.parse(p.read_text())) for p in roots))
    reached = set()
    grew = True
    while grew:
        grew = False
        for key, refs in defs.items():
            if key not in reached and key[1] in names:
                reached.add(key)
                names |= refs
                grew = True
    return sorted(f"{module}.{name}" for module, name in defs
                  if (module, name) not in reached)


def test_only_the_listed_exceptions_are_unreached():
    found = unreached(sorted(PACKAGE.glob("*.py")), ROOTS)
    assert [name.split(".", 1)[1] for name in found] == sorted(EXCEPTIONS), \
        f"unreached from the CLI and the acceptance suite: {found}"
