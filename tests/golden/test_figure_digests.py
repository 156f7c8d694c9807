"""Golden digests of figure output at full precision.

A figure function's returned points are rendered with ``repr`` (every
float at full precision) and hashed; the test asserts the sha256 recorded
below.  ``fig13`` prices all four designs of Section VI, so a change to a
cache simulation, a stage price or a timing rule that moves any of its
values fails here, also one below the two decimals a CLI dump prints.  The
digest does not depend on ``REPRO_EXECUTOR_WORKERS``.

Rewrite the recorded digest after an intended change to figure output
with:

    PYTHONPATH=src python tests/golden/test_figure_digests.py

A digest change is a contract change: record it in CHANGES.md, with the
reason the figures moved.
"""

import hashlib
import re
from pathlib import Path

from repro.analysis.experiments import ExperimentSetup, fig13_speedup

#: sha256 of the ``repr`` of fig13's points.
FIG13_SHA256 = "3dee0d66d8d2dec72e039c532caba45970435809367f3d3b1effaf39a1429734"


def fig13_digest() -> str:
    points = fig13_speedup(
        ExperimentSetup(num_batches=8), cache_fractions=(0.02, 0.10)
    )
    return hashlib.sha256(repr(points).encode()).hexdigest()


def test_fig13_digest():
    assert fig13_digest() == FIG13_SHA256


if __name__ == "__main__":
    path = Path(__file__)
    path.write_text(re.sub(
        r'FIG13_SHA256 = "[0-9a-f]{64}"',
        f'FIG13_SHA256 = "{fig13_digest()}"',
        path.read_text(),
    ))
