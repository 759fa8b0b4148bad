"""Every LAPACK eigensolver call in ``src/gsrep`` sits at a documented site.

Hermitian eigendecompositions that return eigenvectors go through
``matcore.eig_frame``, which owns the Hermiticity and finiteness test, the
exactly-diagonal read and ``ConvergenceFailure``.  The other sites are
kept on purpose (see the README): the batched PSD ``eigvalsh`` of the
cone test, the real tridiagonal one-mode and the batched sector ``eigh`` of
the Fock truncation, the eigenvalue-only checks of ``second_quantize`` and
``kernel_dimension``, and the general ``eigvals`` of a derivation that need
not be normal.  A new call of ``np.linalg.eigh``, ``eigvalsh``, ``eig`` or
``eigvals`` elsewhere fails here, as a moved traced name fails
tests/test_layertrace.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gsrep"
EIGEN = {"eigh", "eigvalsh", "eig", "eigvals"}
DOCUMENTED = {
    ("matcore", "eig_frame"),
    ("cones", "_first_outside_psd"),
    ("heisenfock", "FockTruncation.one_mode_spectra"),
    ("heisenfock", "_sector_rotations"),
    ("heisenfock", "second_quantize"),
    ("heisenfock", "kernel_dimension"),
    ("liealg", "_spectral_split"),
}


def _linalg_name(func: ast.expr):
    """``name`` for a call of ``np.linalg.name``, ``numpy.linalg.name`` or ``scipy.linalg.name``, else None."""
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
            and func.value.attr == "linalg" and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy", "scipy")):
        return func.attr
    return None


def eigen_call_sites() -> set[tuple[str, str]]:
    """(module, enclosing function) of every eigensolver call; a method is Class.method."""
    sites = set()

    def visit(node: ast.AST, scope: tuple[str, ...], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), module)
                continue
            if isinstance(child, ast.Call) and _linalg_name(child.func) in EIGEN:
                sites.add((module, ".".join(scope) or "<module>"))
            visit(child, scope, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (), path.stem)
    return sites


def test_eigensolver_calls_are_the_documented_sites():
    assert eigen_call_sites() == DOCUMENTED
    # ``from numpy.linalg import eigh`` would hide a call from the scan
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg"):
                assert not EIGEN & {alias.name for alias in node.names}, path.name
