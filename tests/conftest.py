"""Keep bytecode out of the tree: no test, and no ``python -m ghzport`` or
harness child that a test starts, writes ``__pycache__`` under ``src/`` or
``perfbench/``. A timing taken in the working tree afterwards then compiles
the source as a fresh clone does, instead of reading stale ``.pyc`` files.

Pytest loads this file before any test module imports ``ghzport``.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
