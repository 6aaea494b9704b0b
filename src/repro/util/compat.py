"""Version compatibility shims.

The package supports Python 3.9+, but some CPython features we want on the
hot path arrived later. Shims live here so call sites stay clean.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from typing import Any, Dict

#: Keyword arguments adding ``__slots__`` to a ``@dataclass`` where the
#: interpreter supports it (3.10+). Usage::
#:
#:     @dataclass(frozen=True, **SLOTTED)
#:     class Prepare: ...
#:
#: On 3.9 this is empty and the classes fall back to ``__dict__`` — slower
#: but semantically identical, so behaviour (and WAL record bodies) do
#: not depend on the interpreter version.
SLOTTED: Dict[str, Any] = (
    {"slots": True} if sys.version_info >= (3, 10) else {}
)


def fast_frozen_pickle(cls):
    """Class decorator: efficient pickling for frozen slotted dataclasses.

    The ``__getstate__`` / ``__setstate__`` pair dataclasses generates for
    ``frozen=True, slots=True`` classes calls :func:`dataclasses.fields` on
    every pickle round-trip. Only ``FileStorage`` pickles these classes
    (WAL record bodies; the TCP wire has its own codec), where that is
    measurable on every appended entry. This decorator installs
    equivalents with the field names precomputed at class-decoration
    time. Apply *above* the
    ``@dataclass`` decorator; works identically for non-slotted classes on
    3.9 (where ``object.__setattr__`` writes into the instance dict).
    """
    names = tuple(f.name for f in fields(cls))

    def __getstate__(self, _names=names):
        return tuple(getattr(self, n) for n in _names)

    def __setstate__(self, state, _names=names, _set=object.__setattr__):
        for n, v in zip(_names, state):
            _set(self, n, v)

    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
    return cls
