"""Record the reference verdicts of the pinned benchmark trials.

    python3 bench/record_reference.py

Runs every workload at seed offset 0, with the benchmark's thread
pinning, for trials 0..N-1 (N per workload below), applies the internal
consistency checks to each trial, and writes bench/reference.json.  The
gate in run.py compares every pinned trial against this file, so a change
that alters a reference must say why.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run

TRIALS = {"verify-5k": 16, "sandwich-500": 200, "oracle-14": 128}


def main() -> int:
    threads = run.BLAS_THREADS
    numpy_preloaded = "numpy" in sys.modules
    run.bootstrap(threads)
    from workloads import WORKLOADS

    out = {}
    for name, count in TRIALS.items():
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
            wl = WORKLOADS[name](workdir)
            wl.setup()
            trials = []
            for t in range(count):
                verdict, check = wl.trial(t)
                problems = check()
                if problems:
                    print(f"{name} trial {t}: {problems}", file=sys.stderr)
                    return 1
                trials.append(verdict)
            meta = run.provenance(wl, threads, seed=0, offset=0, numpy_preloaded=numpy_preloaded)
        out[name] = {"recorded_with": meta, "trials": trials}
        print(f"{name}: {count} trials recorded", flush=True)
    with open(run.REFERENCE_PATH, "w") as fh:
        fh.write(dumps(out))
    return 0


def dumps(reference: dict) -> str:
    """JSON with one trial per line, so a changed verdict shows as one changed line."""
    parts = []
    for name, entry in reference.items():
        trials = ",\n   ".join(json.dumps(t) for t in entry["trials"])
        parts.append(f' {json.dumps(name)}: {{\n  "recorded_with": {json.dumps(entry["recorded_with"])},\n'
                     f'  "trials": [\n   {trials}\n  ]\n }}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
