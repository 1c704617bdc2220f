"""Put ``src/`` on the import path of the interpreters the tests start.

The in-process tests find the package through the ``pythonpath`` setting
in ``pyproject.toml``; the command-line tests run ``python -m aam.cli`` in
a child process, which reads ``PYTHONPATH`` instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
