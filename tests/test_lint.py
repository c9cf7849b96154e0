"""Source lint: the package makes no BLAS-backed call.

np.convolve and numpy's dot and matrix products sum through a BLAS kernel
chosen per CPU.  The package calls none of them, so every convolution sums
in one fixed order and no result changes with the kernel OpenBLAS picks;
the byte-exact fixtures rely on that.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stemcpd"

BANNED = {"dot", "matmul", "inner", "vdot", "outer", "einsum", "tensordot",
          "convolve", "correlate", "linalg"}


def blas_calls(path):
    """``path:line: name`` for every ``@`` product and every attribute or
    imported name in ``BANNED`` in the Python source at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = []
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            names.append("@")
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        if isinstance(node, ast.alias):
            names.extend(node.name.split("."))
        found += [f"{path}:{node.lineno}: {n}" for n in names if n == "@" or n in BANNED]
    return found


def test_no_blas_backed_call_in_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no package source under {PACKAGE}"
    found = [hit for path in sources for hit in blas_calls(path)]
    assert not found, "\n".join(found)
