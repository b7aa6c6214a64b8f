"""Locating and calling the ``ncdim`` of the checkout the benchmark sits in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_ncdim():
    """Import ``ncdim`` (and its CLI) from this checkout's ``src/``, never from
    an installed copy; raise when the checkout has no sources."""
    if not (SRC / "ncdim" / "__init__.py").is_file():
        raise SystemExit(f"no ncdim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ncdim = importlib.import_module("ncdim")
    importlib.import_module("ncdim.cli")
    if Path(ncdim.__file__).resolve().parent != SRC / "ncdim":
        raise SystemExit(f"imported ncdim from {ncdim.__file__}, not from {SRC}")
    return ncdim


def call_cli(argv: list[str]) -> int:
    """``ncdim.cli.main(argv)`` as an exit code (argparse errors exit 2)."""
    try:
        return sys.modules["ncdim.cli"].main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
