"""The package imports nothing outside the standard library."""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Modules loaded at interpreter startup (site hooks) are set aside, so the
# check sees only what importing the package pulls in; ``__mp_main__`` is
# the alias of ``__main__`` that importing multiprocessing registers.
_PROGRAM = """
import sys
before = set(sys.modules)
import repro, repro.api.session
added = sorted(
    name for name in set(sys.modules) - before
    if name.split(".")[0] not in sys.stdlib_module_names | {"repro", "__mp_main__"}
)
print("numpy" in sys.modules, added)
"""


def test_importing_repro_loads_only_the_standard_library():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False []"
