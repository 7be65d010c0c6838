"""Builtin rules; importing this package registers them.

Each module holds one rule (plus its helpers) and registers it into
:data:`repro.analysis.registry.RULES` via the ``@rule`` decorator at
import time.
"""

from repro.analysis.rules import (  # noqa: F401
    determinism,
    durability,
    hygiene,
    imports,
    locking,
    sql,
    taxonomy,
)
