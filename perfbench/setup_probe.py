"""One set-up measurement in a fresh interpreter: ``import strainflow.cli``
plus the first ``make_model`` of a law (which estimates lambda). Prints the
seconds taken.

    python3 perfbench/setup_probe.py [LAW]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import strainflow.cli  # noqa: E402

if len(sys.argv) > 1 and sys.argv[1]:
    strainflow.cli.make_model(sys.argv[1])
print(repr(time.perf_counter() - t0))
