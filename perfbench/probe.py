"""Host-speed probe: a fixed piece of pure-Python work timed next to each sample.

The benchmark's host shares its cores with other machines, and its speed
drifts by up to 1.75x, within seconds and over minutes. A fixed piece of
work timed right before and right after a job tells how fast the host ran
during the job. The time metrics divide each wall time by that probe time
and multiply by ``REFERENCE_S``. They are seconds on a host that runs the
probe in ``REFERENCE_S``: about the unloaded speed of the 2-vCPU Xeon
(2.1 GHz) host the benchmark was sized on.

The work mirrors the two kinds of work that dominate the program: tuple
keys counted into a dict, as ``design.margins`` does, and numbers formatted
into labelled JSON, as the rendering does. Either part alone tracked the
jobs' slowdowns worse than the two together; a numpy kernel did worse still.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Probe time, in seconds, that the corrected times are scaled to.
REFERENCE_S = 0.012
KEYS = 30_000
LEVELS = 64
ENTRIES = 3_000


class Probe:
    """Times the fixed probe work; create one per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.keys = [tuple(int(v) for v in row) for row in rng.integers(0, LEVELS, size=(KEYS, 6))]
        self.labels = [tuple(int(v) for v in row) for row in rng.integers(0, 4, size=(ENTRIES, 4))]
        self.values = rng.random(ENTRIES).tolist()

    def time(self) -> float:
        start = time.perf_counter()
        table: dict[tuple[int, ...], int] = {}
        for key in self.keys:
            cell = (key[0], key[2], key[4])
            table[cell] = table.get(cell, 0) + 1
        entries = {"(" + ",".join(str(level) for level in label) + ")": f"{value:.12g}"
                   for label, value in zip(self.labels, self.values)}
        json.dumps(entries, indent=2)
        return time.perf_counter() - start


def corrected(wall_s: float, probe_s: float) -> float:
    """``wall_s`` rescaled to a host whose probe takes ``REFERENCE_S``."""
    return wall_s * REFERENCE_S / probe_s
