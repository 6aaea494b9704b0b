"""Process counters read from outside the program."""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Dict

_PAGE = os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class ProcSnapshot:
    cpu_s: float
    sys_s: float
    #: read()/write() system calls from /proc/self/io. File and pipe I/O
    #: only: socket send()/recv() do not pass through these counters.
    syscr: int
    syscw: int
    rss_bytes: int
    gen2_collections: int

    @classmethod
    def take(cls) -> "ProcSnapshot":
        io: Dict[str, int] = {}
        try:
            with open("/proc/self/io") as handle:
                for line in handle:
                    key, _, value = line.partition(":")
                    io[key] = int(value)
            with open("/proc/self/statm") as handle:
                rss = int(handle.read().split()[1]) * _PAGE
        except OSError:  # not Linux: the counters read 0
            rss = 0
        return cls(
            cpu_s=time.process_time(),
            sys_s=os.times().system,
            syscr=io.get("syscr", 0), syscw=io.get("syscw", 0),
            rss_bytes=rss,
            gen2_collections=gc.get_stats()[2]["collections"],
        )
