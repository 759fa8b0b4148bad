"""Every defaulted parameter of a public function in ``src/gsrep`` is a knob that some caller turns.

A tolerance, sample count or seed that no caller sets is a module constant
instead (see the README's table of tolerances).  ``KNOBS`` names, by module
and function, each defaulted parameter of a public function or method, with
one call that sets it: a file under the repository root and the function
that holds the call.  The call passes the parameter, by keyword or by
position, as an expression other than the default itself, so the test
fails on a new knob until it is listed here, and on a listed knob whose
caller no longer sets it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gsrep"
KNOBS = {
    ("cli", "main"): {"argv": ("benchmark/cli_job.py", "main")},
    ("cones", "check_cone_positivity"): {"tol": ("src/gsrep/cli.py", "_run_cone_check"),
                                         "seed": ("src/gsrep/cli.py", "_run_cone_check")},
    ("cones", "coroot_condition"): {"tol": ("src/gsrep/cli.py", "_run_classify")},
    ("heisenfock", "weyl_relation_residual"): {"sector": ("src/gsrep/cli.py", "_run_fock")},
    # criterion 07's rejected case is the one test that shows the check can fail
    ("heisenfock", "factorization_check"): {"entangler": ("tests/test_acceptance.py",
                                                          "test_criterion_07_factorization")},
    ("irreps", "extremal_weight"): {"direction": ("benchmark/inproc.py", "IrrepBuild._check")},
    ("liealg", "subalgebra"): {"name": ("src/gsrep/liealg.py", "fixed_point_data.build")},
    # 1e-8 here, the default 1e-9 in _seed_frame: each guards its own Hermiticity
    ("matcore", "eig_frame"): {"tol": ("src/gsrep/groundstate.py", "analyze")},
    ("matcore", "cluster_values"): {"tol": ("src/gsrep/liealg.py", "_spectral_split")},
    ("matcore", "commutant_basis"): {"seed_rows": ("src/gsrep/irreps.py", "commutant")},
}


def _functions(tree: ast.AST):
    """(qualified name, def) of every function and method, nested ones included."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = scope + (child.name,)
                if not isinstance(child, ast.ClassDef):
                    yield ".".join(name), child
                yield from visit(child, name)

    yield from visit(tree, ())


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return named + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def knobs() -> dict[tuple[str, str], list[str]]:
    """Defaulted parameters of each public function and public method of a public class, by module."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for name, fn in defs:
            last = name.split(".")[-1]
            if _defaulted(fn) and (not last.startswith("_") or last == "__init__"):
                out[(path.stem, name)] = _defaulted(fn)
    return out


def _passed(call: ast.Call, name: str, index, param: str):
    """The argument ``call`` passes as ``param`` of ``name``, by keyword or at position ``index``; else None."""
    func = call.func
    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != name:
        return None
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if index is not None and len(call.args) > index and not any(
            isinstance(a, ast.Starred) for a in call.args[:index + 1]):
        return call.args[index]
    return None


def _defaults(fn: ast.FunctionDef) -> dict[str, ast.expr]:
    args = fn.args
    positional = args.posonlyargs + args.args
    out = dict(zip([a.arg for a in positional[len(positional) - len(args.defaults):]], args.defaults))
    out.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return out


def test_every_defaulted_parameter_is_a_listed_knob():
    assert knobs() == {key: list(params) for key, params in KNOBS.items()}


def test_each_listed_caller_sets_its_knob():
    defs = {path.stem: dict(_functions(ast.parse(path.read_text()))) for path in SRC.glob("*.py")}
    for (module, name), params in KNOBS.items():
        fn = defs[module][name]
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args if a.arg != "self"]
        default = _defaults(fn)
        for param, (path, caller) in params.items():
            body = dict(_functions(ast.parse((ROOT / path).read_text())))[caller]
            index = positional.index(param) if param in positional else None
            passed = [_passed(node, name.split(".")[-1], index, param) for node in ast.walk(body)
                      if isinstance(node, ast.Call)]
            assert any(arg is not None and ast.dump(arg) != ast.dump(default[param]) for arg in passed), \
                f"{path}:{caller} does not set {module}.{name}({param})"
