"""The package needs nothing beyond the standard library at run time."""

import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# -S: no site, so nothing installed is importable; the modules report
# which of the test-only packages any of them pulled in
PROBE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "hypothesis", "pytest")))
"""


def test_every_module_imports_with_the_standard_library_alone():
    import mcdsolve

    names = ["mcdsolve"] + [
        m.name for m in pkgutil.walk_packages(mcdsolve.__path__, "mcdsolve.")
    ]
    assert "mcdsolve.dp" in names and "mcdsolve.examples" in names
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC), *names],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
