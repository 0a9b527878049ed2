"""``python -m repro`` entry point.

Observability flags (``--trace``, ``--trace-json PATH``,
``--check-invariants``) are handled in :mod:`repro.cli` and apply to
every subcommand, e.g.::

    python -m repro --trace-json out.json place Rabe --dir work/

The process freezes the garbage collector's view twice: after the
imports, so collections during the run skip the module objects, and
before exiting, so the collection at interpreter shutdown skips
everything the run left alive (a process that is about to end gains
nothing from collecting cycles).  Only this entry does so; ``main``
called in-process leaves the collector alone.
"""

import gc
import sys

from repro.cli import main

gc.freeze()
status = main()
gc.freeze()
sys.exit(status)
