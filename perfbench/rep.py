"""One repetition of one workload, run by `run.py` in a fresh interpreter so
that peak RSS belongs to this repetition alone.

    python3 perfbench/rep.py --workload NAME --seed N --size full|tiny
                             [--trace]

Prints one JSON object: the end-to-end metrics, the per-layer metrics when
traced, the digest, the operation counts and the checks that failed. A
traced repetition also writes its spans to `out/spans-<workload>.npz` next
to this file. Run from the repository root; `bankftl` is imported from
`src/`.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def import_bankftl(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bankftl", "__init__.py")):
        raise SystemExit(f"no bankftl sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import bankftl
    if os.path.dirname(os.path.abspath(bankftl.__file__)) != os.path.join(src, "bankftl"):
        raise SystemExit(f"bankftl imported from {bankftl.__file__}, not {src}")


def _delta(after, before):
    out = {}
    for name, now in after.items():
        was = before.get(name, (now[0], 0, 0.0, 0.0, 0, 0))
        out[name] = (now[0],) + tuple(a - b for a, b in zip(now[1:], was[1:]))
    return out


def run_once(workload, seed, size, trace):
    from metrics import digest, end_to_end, failed_ops, per_layer
    from workloads import WORKLOADS

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()

    def section(name):
        return tracer.section(name) if tracer else contextlib.nullcontext()

    wl = WORKLOADS[workload](seed, size)
    t0 = time.perf_counter()
    with section("setup"):
        wl.setup()
    setup_s = time.perf_counter() - t0
    dev_before = vars(wl.device.device_stats())
    totals_before = tracer.totals() if tracer else None
    t1 = time.perf_counter()
    with section("window"):
        wl.run()
    wall_s = time.perf_counter() - t1
    dev_after = vars(wl.device.device_stats())
    totals_after = tracer.totals() if tracer else None
    if tracer:
        tracer.uninstall()
    result = wl.check()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "workload": workload, "seed": seed, "size": size, "trace": bool(trace),
        "digest": digest(result),
        "attempted": result["attempted"],
        "failed": failed_ops(result),
        "stale_reads": result["stale_reads"],
        "problems": result["problems"],
        "end_to_end": end_to_end(result, wall_s, setup_s, peak_rss_mb),
        "phases_s": result["phases_s"],
    }
    if tracer:
        device_delta = {k: dev_after[k] - dev_before[k]
                        for k in ("pages_written", "read_units", "blocks_erased")}
        out["per_layer"] = per_layer(result, totals_before,
                                     _delta(totals_after, totals_before),
                                     device_delta, wall_s)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}.npz"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    import_bankftl(os.getcwd())
    out = run_once(args.workload, args.seed, args.size, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
