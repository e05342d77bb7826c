"""Import the suite's modules (and ``repro`` from ``src/``) in its tests.

Run with ``pytest benchmarks/suite/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(SUITE))

import common  # noqa: E402

common.use_source()
