"""Seeded benchmark inputs and the measurement helpers every workload uses.

One benchmark seed expands into :data:`CAMPUSES` independent small
campuses.  Per-campus work is heavy-tailed (a few students generate
most of the traffic), so a single seeded campus makes run-to-run
figures swing with the seed; the median over many independent campuses
does not.  Each campus is one pre-pandemic weekday, when every student
is resident, so the work depends on who the students are and not on
when they leave.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Students per campus and campuses per benchmark seed.
CAMPUS_STUDENTS = 8
CAMPUSES = 24
#: The measured day: Tuesday 4 February 2020.
CAMPUS_DAY = (2020, 2, 4)


def sub_seed(seed: int, index: int) -> int:
    """Seed of campus ``index`` under benchmark seed ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def campus_configs(seed: int, count: Optional[int] = None,
                   students: Optional[int] = None,
                   first: int = 0) -> List[Any]:
    """Campuses ``first, first + 1, ...`` of a benchmark seed
    (:data:`CAMPUSES` of :data:`CAMPUS_STUDENTS` unless given)."""
    from repro.config import StudyConfig
    from repro.util.timeutil import DAY, utc_ts

    start = utc_ts(*CAMPUS_DAY)
    count = CAMPUSES if count is None else count
    students = CAMPUS_STUDENTS if students is None else students
    return [StudyConfig(n_students=students, seed=sub_seed(seed, index),
                        start_ts=start, end_ts=start + DAY,
                        visitor_min_days=1)
            for index in range(first, first + count)]


def save_config(config: Any, directory: str) -> None:
    """Write ``config.json`` the way ``repro run --out`` does."""
    import json

    from repro.reliability.atomic import write_text

    write_text(os.path.join(directory, "config.json"),
               json.dumps(config.to_payload(), indent=2, sort_keys=True)
               + "\n")


def load_config(directory: str) -> Any:
    import json

    from repro.config import StudyConfig

    with open(os.path.join(directory, "config.json")) as fileobj:
        return StudyConfig.from_payload(json.load(fileobj))


# -- measurement helpers ------------------------------------------------------

#: Duration of :func:`kernel_seconds` on the reference host (a 2-vCPU
#: x86-64 VM at 2.0 GHz, Python 3.11, numpy 2.4); see README.md.
KERNEL_REFERENCE_S = 0.005


def kernel_seconds() -> float:
    """Time a fixed CPU kernel (dict updates, a numpy sort, JSON).

    The host's speed drifts by tens of percent over seconds to minutes
    when neighbours load it; the kernel, timed next to each measured
    operation, tracks that drift so it can be divided out.
    """
    import json

    import numpy

    started = time.perf_counter()
    table: Dict[int, int] = {}
    for index in range(20000):
        table[index % 509] = table.get(index % 509, 0) + index
    numpy.sort(numpy.arange(40000)[::-1] * 7 % 40009)
    json.loads(json.dumps([[index, str(index)] for index in range(2000)]))
    return time.perf_counter() - started


class HostClock:
    """Seconds measured on the running host, rescaled to the reference host.

    ``timed(fn)`` runs ``fn`` between two kernel runs and returns its
    wall time times ``KERNEL_REFERENCE_S / kernel``, where ``kernel`` is
    the mean of the two runs; the raw and rescaled seconds and the
    kernel times are kept for the result record.
    """

    def __init__(self) -> None:
        self.kernels: List[float] = []
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def timed(self, fn: Any) -> Tuple[float, Any]:
        before = kernel_seconds()
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        # The host flips between a fast and a slow state within a
        # second, so an operation often spans both: the mean of the two
        # runs left the least noise between two runs of one campus (a
        # mean |log ratio| of 0.14, against 0.17 for the faster run and
        # 0.20 unscaled).
        kernel = (before + kernel_seconds()) / 2
        self.kernels.append(kernel)
        self.raw.append(elapsed)
        self.scaled.append(elapsed * KERNEL_REFERENCE_S / kernel)
        return self.scaled[-1], result


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w") as fileobj:
        fileobj.write("5")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of ``pid`` (default: this process) in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as fileobj:
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", fileobj.read())
    if match is None:
        raise RuntimeError(f"no VmHWM in {path}")
    return int(match.group(1)) / 1024.0


def quiesce() -> None:
    """Collect garbage left by the previous operation, outside timing."""
    gc.collect()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(pct * len(ordered))) // 100))
    return float(ordered[min(rank, len(ordered)) - 1])


def sha256_text(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def environment(root: str, seed: int) -> Dict[str, Any]:
    """Host and code facts recorded beside every result."""
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": sys.platform,
            "commit": _commit(root), "seed": seed}


def _commit(root: str) -> str:
    """HEAD of ``root`` when it is a git checkout, else ``unknown``."""
    # Git must not look for a repository above ``root``.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
