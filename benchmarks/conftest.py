"""Benchmark-suite configuration.

Makes the in-tree ``_common`` helpers and the test oracles
(``tests.helpers``) importable and registers a summary hook so
`pytest benchmarks/ --benchmark-only` prints the experiment tables even
without -s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))
