"""Source lint: the package makes no BLAS-backed call, and its import
stays light.

np.convolve and numpy's dot and matrix products sum through a BLAS kernel
chosen per CPU.  The package calls none of them, so every convolution sums
in one fixed order and no result changes with the kernel OpenBLAS picks;
the byte-exact fixtures rely on that.

Most of a process's start-up is import: numpy, then ``scipy.special``,
which the null height tail needs.  No other scipy subpackage is loaded,
and neither is ``multiprocessing``: the simulation harness imports its
process pool only when it runs one.
"""

import ast
import subprocess
import sys
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


#: Modules that ``import stemcpd`` must not load: scipy subpackages, and
#: the process pool's ``multiprocessing``, which neither numpy nor scipy loads.
HEAVY = ("scipy.fft", "scipy.ndimage", "scipy.signal", "scipy.stats", "scipy.integrate",
         "scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.interpolate",
         "multiprocessing")


def test_import_loads_no_heavy_scipy_subpackage():
    """``import stemcpd`` in a fresh interpreter, from the source tree,
    loads none of ``HEAVY``."""
    code = "import sys, stemcpd; print(stemcpd.__file__); print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent, check=True,
                         capture_output=True, text=True).stdout.split()
    assert Path(out[0]).parent == PACKAGE
    loaded = set(out[1:])
    assert not [name for name in HEAVY if name in loaded]
