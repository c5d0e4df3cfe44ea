"""Print the seconds that ``import lhbp`` plus parsing every model file take.

Usage: python3 perfbench/setup_probe.py MODEL_DIR   (with src/ on PYTHONPATH)

Nothing is imported before the clock starts, so the figure is the set-up a
fresh CLI process pays before its first job.
"""

import os
import sys
import time

t0 = time.perf_counter()
from lhbp.model import load_model  # noqa: E402  (imports the package)

folder = sys.argv[1]
for name in sorted(os.listdir(folder)):
    with open(os.path.join(folder, name)) as fh:
        load_model(fh.read())
print(repr(time.perf_counter() - t0))
