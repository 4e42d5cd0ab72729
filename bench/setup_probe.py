"""Set-up as a CLI user pays it: a fresh interpreter imports coli, loads each
KB file given as an argument and builds its initial configuration, then
prints 'ready'.  bench/run.py times the interval up to that line."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from coli import init_configuration, load_kb  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        init_configuration(load_kb(fh.read()))
print("ready", flush=True)
