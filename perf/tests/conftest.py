"""Make ``ledger`` (perf/) and ``repro`` (src/) importable for the
harness self-tests: ``python -m pytest perf/tests -q``."""

import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

for path in (os.path.join(os.path.dirname(PERF_DIR), "src"), PERF_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
