"""Version compatibility shims.

The package supports Python 3.9+, but some CPython features we want on the
hot path arrived later. Shims live here so call sites stay clean.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

#: Keyword arguments adding ``__slots__`` to a ``@dataclass`` where the
#: interpreter supports it (3.10+). Usage::
#:
#:     @dataclass(frozen=True, **SLOTTED)
#:     class Prepare: ...
#:
#: On 3.9 this is empty and the classes fall back to ``__dict__`` — slower
#: but semantically identical, and `repro.encoding` writes ordered field
#: values, so neither behaviour nor any byte sent or stored depends on
#: the interpreter version.
SLOTTED: Dict[str, Any] = (
    {"slots": True} if sys.version_info >= (3, 10) else {}
)
