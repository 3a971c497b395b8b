"""Self-tests import the benchmark modules and the library from source:
``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
