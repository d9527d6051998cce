"""Set-up of one workload in a fresh interpreter, timed by the caller.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports triweb from the checkout, generates the seed's inputs and builds
the web and config of the first op, then prints ``{"import_s": ...}``:
the part of the set-up spent importing ``triweb.cli``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports triweb, triweb.cli and numpy)

import_s = time.perf_counter() - t0
workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).prepare()
print(json.dumps({"import_s": import_s}))
