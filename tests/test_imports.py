"""Import guards, read from the source with ``ast``.

The package depends on numpy alone, so a stray import of another installed
package (scipy, say) would pass here and fail for users.  The oracle must
stay independent of the production code it checks.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphtransducer"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
ORACLE_NAMES = {"Lattice", "InfeasibleLengthError", "PosteriorTensor"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_imports_only_stdlib_numpy_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in ALLOWED | {"graphtransducer"}, f"{path.name} imports {root}"


def test_oracle_shares_no_production_code():
    names = set()
    for node in ast.walk(parse(PACKAGE / "oracle.py")):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name.startswith("graphtransducer")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "graphtransducer"):
            names |= {alias.name for alias in node.names}
        # the normalizer too: the oracle forms its own log-softmax from the logits
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ("lse", "logprobs"), f"oracle.py line {node.lineno} reads .{node.attr}"
    assert names <= ORACLE_NAMES, f"oracle.py imports {sorted(names - ORACLE_NAMES)}"
