"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR MODULE [MAPFILE ...]

Imports perispec from SRC_DIR and the operation layer MODULE
(``perispec.cli`` or ``perispec.suite``), loads every map file through
``load_map_file`` and prints the elapsed seconds. Exits 2 when perispec does
not come from SRC_DIR.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))

import importlib  # noqa: E402

import perispec  # noqa: E402

if Path(perispec.__file__).resolve().parent.parent != src:
    sys.stderr.write(f"perispec imported from {perispec.__file__}, not {src}\n")
    sys.exit(2)
importlib.import_module(sys.argv[2])
from perispec.mapfile import load_map_file  # noqa: E402

for path in sys.argv[3:]:
    load_map_file(path)
print(repr(time.perf_counter() - start))
