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
import math
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


def test_bessel_imports_no_other_fbvar_module():
    # bessel sits at the bottom of the package: every other module builds
    # on its values, and it computes them with numpy and math alone
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "bessel.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fbvar"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "fbvar"]
    assert not found, f"bessel imports package modules: {found}"


def test_no_package_function_is_a_generator():
    # a profiler charges a generator's work to the frame that consumes it,
    # so a layer's time is its own only if no function yields
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert not found, f"yield in the package: {found}"


# ---------------------------------------------------------------------------
# knob census


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted_parameters(fn, callee, owner, skip):
    """(callee, label, parameter, positional index) of each defaulted
    parameter of fn; `skip` leading parameters (self, cls) are never passed."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(callee, f"{owner}.{arg.arg}", arg.arg, i - skip)
           for i, arg in enumerate(positional) if i >= first]
    out += [(callee, f"{owner}.{arg.arg}", arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def knobs(paths):
    """Every defaulted parameter and every public dataclass field with a
    default, keyed by the name a call uses: a function's or method's own
    name, the class name for __init__ and for dataclass fields."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text())
        methods = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
                out += [(cls.name, f"{cls.name}.{s.target.id}", s.target.id, i)
                        for i, s in enumerate(fields)
                        if s.value is not None
                        and not s.target.id.startswith("_")]
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in stmt.decorator_list)
                    callee = cls.name if stmt.name == "__init__" else stmt.name
                    methods[stmt] = (callee, f"{cls.name}.{stmt.name}",
                                     0 if static else 1)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callee, owner, skip = methods.get(fn, (fn.name, fn.name, 0))
                out += _defaulted_parameters(fn, callee, owner, skip)
    return out


def calls(paths):
    """{callee name: [(positional count or inf, keyword names)]} of every
    call; a starred argument passes every position, ** every keyword."""
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            words = {k.arg for k in node.keywords}
            out.setdefault(name, []).append(
                (math.inf if starred else len(node.args), words))
    return out


def unset_knobs(package, callers):
    seen = calls(callers)
    return sorted(
        label for callee, label, name, index in knobs(package)
        if not any(name in words or None in words
                   or (index is not None and count > index)
                   for count, words in seen.get(callee, ())))


def test_every_knob_is_set_by_some_call():
    package = sorted(PACKAGE.glob("*.py"))
    callers = package + sorted((ROOT / "tests").rglob("*.py"))
    found = unset_knobs(package, callers)
    assert not found, \
        f"defaulted parameters or fields that no call sets: {found}"


# ---------------------------------------------------------------------------
# one kernel sum


def test_kernel_bounds_forms_no_kernel_series_of_its_own():
    # semigroups.kernel_sums forms every truncated kernel series and
    # refuses times below t_min; a sweep that builds its own series from
    # the multipliers bypasses that refusal
    names = mentioned(ast.parse((PACKAGE / "kernel_bounds.py").read_text()))
    banned = {"heat_multipliers", "poisson_multipliers", "_multipliers",
              "einsum"}
    assert not names & banned, \
        f"kernel_bounds forms a kernel series itself: {sorted(names & banned)}"


# ---------------------------------------------------------------------------
# one multiplier application


def _matrix_products(tree):
    """True when a syntax tree forms a matrix product: the @ or @= operator,
    or any name or attribute `matmul`."""
    return any(
        isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.MatMult)
        or getattr(node, "id", getattr(node, "attr", None)) == "matmul"
        for node in ast.walk(tree))


def test_multipliers_are_applied_only_in_mode_sums():
    # semigroups.mode_sums is the one place a multiplier table meets a mode
    # table, so every such product takes each time's mode cut
    found = []
    for module in ("semigroups", "variation", "spectral"):
        for stmt in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            name = f"{module}.{getattr(stmt, 'name', stmt.lineno)}"
            checked = (module != "spectral" or name == "spectral.synthesize")
            if checked and name != "semigroups.mode_sums" \
                    and _matrix_products(stmt):
                found.append(name)
    assert not found, f"matrix products outside mode_sums: {found}"


# ---------------------------------------------------------------------------
# one Hankel sum


def test_hankel_expansion_is_summed_only_in_bessel_hankel():
    # bessel.hankel_table is the one place Hankel's expansion is summed,
    # with the terms of bessel._hankel_terms, so its term counts, its
    # contraction and its half-angle phase hold for bessel_j,
    # bessel_j_over_power and the mode table alike
    banned = {"asymptotic_coefficients", "einsum", "tan"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            name = f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
            if name not in ("bessel.hankel_table", "bessel._hankel_terms") \
                    and mentioned(stmt) & banned:
                found.append(name)
    assert not found, f"Hankel sums outside bessel.hankel_table: {found}"


def test_spectral_evaluates_no_bessel_function_itself():
    # spectral takes every Bessel value from bessel's public functions
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    private = sorted({node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and getattr(node.value, "id", None) == "bessel"
                      and node.attr.startswith("_")})
    trig = sorted(mentioned(tree) & {"cos", "sin", "tan", "einsum",
                                     "asymptotic_coefficients", "special"})
    assert not private and not trig, \
        f"spectral evaluates Bessel functions itself: {private + trig}"
