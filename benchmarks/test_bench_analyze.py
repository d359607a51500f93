"""Meta-benchmark: the static analyzer's own speed.

Not a paper exhibit -- this establishes the perf baseline for the lint
pass itself: parsing and checking every rank program in the library
(``src/repro``) must stay cheap enough to run on each CI push.  The
single-file number isolates per-file overhead from tree-walk cost.
"""

import os

from repro.analyze import analyze_file, analyze_paths

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_TREE = os.path.join(REPO, "src", "repro")
ONE_FILE = os.path.join(SRC_TREE, "linalg", "cannon.py")


def test_bench_analyze_full_src_tree(benchmark):
    findings = benchmark(lambda: analyze_paths([SRC_TREE]))
    assert findings == []  # the whole package is inside the CI gate


def test_bench_analyze_single_program_file(benchmark):
    findings = benchmark(lambda: analyze_file(ONE_FILE))
    assert findings == []  # cannon ships clean (pre-posted shift recvs)


def test_bench_analyze_gated_trees(benchmark):
    """What CI actually runs: the examples and the whole package."""
    trees = [os.path.join(REPO, "examples"), SRC_TREE]
    findings = benchmark(lambda: analyze_paths(trees))
    assert findings == []
