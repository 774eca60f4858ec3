"""The entry points import no third-party numerics.

The simulator, the matrix runner, the service and the CLI run on the
standard library alone; numpy in their import closure would cost every
process its import time and resident memory for nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_do_not_import_numpy() -> None:
    code = (
        "import sys\n"
        "import repro, repro.experiments.runner, repro.serve.service, "
        "repro.cli\n"
        "print(sorted(name for name in sys.modules "
        "if name.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]", done.stdout
