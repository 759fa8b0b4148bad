"""Every function in ``src/gsrep`` that takes a ``tol`` is a documented site.

Rank decisions behind ``analyze``, the commutant and the (g, d) data are
made at the one threshold ``matcore.DEFAULT_TOL``; no function passes a
rank tolerance down.  The functions that keep a ``tol`` decide something
else, with callers that vary it (see the README): the CLI's check records
and its handlers, which receive ``--tol``; the PSD tests of the cone and
the coroots; the Fock factorization bounds; the span residual of
``_span_coordinates``; and the primitives ``numerical_rank``, the
Hermiticity guard of ``eig_frame`` and the window of ``cluster_values``.
A new ``tol`` parameter elsewhere fails here, as a new eigensolver call
fails tests/test_eigensolver_sites.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gsrep"
DOCUMENTED = {
    ("cli", "_check"),
    ("cli", "_run_analyze"),
    ("cli", "_run_classify"),
    ("cli", "_run_cone_check"),
    ("cli", "_run_fock"),
    ("cli", "_run_dirlim"),
    ("cli", "_run_sweep"),
    ("cones", "_first_outside_psd"),
    ("cones", "check_cone_positivity"),
    ("cones", "coroot_condition"),
    ("heisenfock", "factorization_check"),
    ("liealg", "_span_coordinates"),
    ("matcore", "numerical_rank"),
    ("matcore", "eig_frame"),
    ("matcore", "cluster_values"),
}


def tolerance_sites() -> set[tuple[str, str]]:
    """(module, qualified name) of every function or method with a parameter named ``tol``."""
    sites = set()

    def visit(node: ast.AST, scope: tuple[str, ...], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = scope + (child.name,)
                if not isinstance(child, ast.ClassDef):
                    args = child.args
                    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                    if any(a is not None and a.arg == "tol" for a in params):
                        sites.add((module, ".".join(name)))
                visit(child, name, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (), path.stem)
    return sites


def test_tolerance_parameters_are_the_documented_sites():
    assert tolerance_sites() == DOCUMENTED
    assert len(DOCUMENTED) == 15
