"""The package needs nothing beyond the standard library at run time, and
the CLI loads none of the heavier standard modules it can do without."""

import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# -S: no site, so nothing installed is importable; the modules report
# which of the test-only packages, and of the standard modules records
# could pull in, any of them loaded
PROBE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
watched = ("numpy", "hypothesis", "pytest", "dataclasses", "inspect", "typing")
print(" ".join(sorted({m.split(".")[0] for m in sys.modules}.intersection(watched))))
"""


def loaded_by(*names):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC), *names],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_module_imports_with_the_standard_library_alone():
    import mcdsolve

    names = ["mcdsolve"] + [
        m.name for m in pkgutil.walk_packages(mcdsolve.__path__, "mcdsolve.")
    ]
    assert "mcdsolve.dp" in names and "mcdsolve.examples" in names
    # typing may come in through importlib.resources, which examples reads
    assert set(loaded_by(*names)) <= {"typing"}


def test_cli_loads_no_dataclasses_inspect_or_typing():
    assert loaded_by("mcdsolve.cli") == []
