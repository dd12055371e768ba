"""Paths of the checkout under test.

The benchmark measures the ``bagcell`` sources that sit beside it, never an
installed copy, so it puts ``<checkout>/src`` first on ``sys.path`` and
refuses to run when those sources are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Scratch space for generated inputs, replay outputs and span dumps. It lives
# inside the checkout because the benchmark writes nowhere else.
RUN_DIR = ROOT / ".perfbench_run"


def use_checkout_src() -> None:
    """Make ``import bagcell`` load ``<checkout>/src/bagcell`` or exit non-zero."""
    package = SRC / "bagcell"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bagcell sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bagcell

    if Path(bagcell.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported bagcell from {bagcell.__file__}, not {package}")
