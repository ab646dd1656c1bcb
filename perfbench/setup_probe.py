"""Set-up cost every CLI invocation pays: import plus loading the inputs.

Usage: ``python setup_probe.py SRC ANNOTATIONS CORRELATES [CAPTIONS]``.
Run in a fresh interpreter; prints ``{"setup_s": ...}`` on stdout.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import iconcap  # noqa: E402
from iconcap.metrics import load_caption_map  # noqa: E402

iconcap.load_annotations(sys.argv[2])
iconcap.CorrelateStore.from_tsv(sys.argv[3])
if len(sys.argv) > 4:
    load_caption_map(sys.argv[4])
print(json.dumps({"setup_s": time.perf_counter() - start}))
