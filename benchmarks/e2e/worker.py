"""One pass of one workload in a fresh process (spawned by ``run.py``).

A fresh process per pass keeps ``ru_maxrss`` a clean per-pass peak and makes
every pass start from the same allocator and cache state.  ``numpy``,
``scipy`` and ``repro`` are imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.common import pin_threads  # noqa: E402

pin_threads(os.environ)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", required=True,
                        help="JSON object: input shapes and op counts of the pass")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    # Imported here, before the pass starts its set-up clock.
    import numpy
    import scipy
    from repro.sparse.backends import DEFAULT_BACKEND
    from repro.sparse.kernels import HAVE_NUMBA
    if args.workload in ("train_mem", "train_stream"):
        from benchmarks.e2e import wl_train as module
    elif args.workload == "eval_rank":
        from benchmarks.e2e import wl_eval as module
    elif args.workload == "serve_zipf":
        from benchmarks.e2e import wl_serve as module
    else:
        parser.error(f"unknown workload {args.workload!r}")

    load_start = list(os.getloadavg())
    result = module.run_pass(args.workload, json.loads(args.config), args.seed,
                             bool(args.trace), args.workdir)
    result["throughput_per_s"] = result["units"] / result["timed_s"]
    result["loadavg_start"], result["loadavg_end"] = load_start, list(os.getloadavg())
    result["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "HAVE_NUMBA": bool(HAVE_NUMBA),
                     "DEFAULT_BACKEND": DEFAULT_BACKEND}
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
