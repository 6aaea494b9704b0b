"""repro.bench: the deterministic benches behind the behaviour gate.

The benches answer one question: *did a change alter behaviour?* Each
drives a hot path — the :class:`~repro.sim.events.EventQueue`, the
:class:`~repro.sim.network.SimNetwork`, the Sequence Paxos commit loop,
the runtime codec, every sim protocol end to end, both runtime protocols
over live TCP — at one fixed size, and returns deterministic counters
(event/message/decided counts and decided-log digests) that must be
bit-identical for a given seed regardless of how fast the code runs.

Nothing here is timed; ``benchmarks/e2e`` measures performance.
``repro-bench`` (see :mod:`repro.tools.bench`) is the CLI front-end.
"""

from repro.bench.runner import load_json, save_json  # noqa: F401
from repro.bench.micro import run_micro_suite  # noqa: F401
from repro.bench.macro import run_macro, run_macro_suite  # noqa: F401
