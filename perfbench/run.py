"""Host-time benchmark of the bankftl simulator.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--pin]

Run from the repository root. Each repetition runs in a fresh interpreter
(`rep.py`), one at a time, on one OS thread, so its peak RSS is its own.
Repetitions repeat until `--seconds` would be overrun, with at least
MIN_REPS. All repetitions use the seed's inputs, so their simulated results
must agree exactly; the digest of those results must also match the one
pinned in `golden.json` for that workload and seed, when one is pinned.

`--trace 0` reports the end-to-end metrics (host metrics as the median over
repetitions). `--trace 1` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus the tracing overhead
(traced minus untraced `wall_s`). The metrics printed in the last line are
those `BENCHMARK.json` lists; the lines above it print every metric by name
with its unit. `--pin` records the digest in `golden.json`.

Exit status: 0 when every check passed, 1 when a check failed (the result
line still prints, with "correct": false), 2 when the run could not start.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from rep import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("overwrite-npgc", "thinktime-adaptive", "mixed-restart-card512")
MIN_REPS = 3          # untraced repetitions per run
MIN_PAIRS = 1         # untraced + traced pairs per traced run
REP_TIMEOUT_S = 150   # one repetition
RUN_LIMIT_S = 170     # all repetitions of one workload
# numpy asks for transparent huge pages on large arrays; whether the kernel
# grants them depends on how fragmented the host's memory is, so card512
# runs could drift with the state of the host. Repetitions use 4 KiB pages.
REP_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
GOLDEN = os.path.join(HERE, "golden.json")


def git_sha(root):
    """HEAD of the checkout, read from `.git` without leaving the tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(root),
    }


class RepetitionFailed(Exception):
    pass


def run_rep(root, workload, seed, size, trace, deadline_s):
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, min(REP_TIMEOUT_S, deadline_s))
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, **REP_ENV), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"repetition timed out after {timeout:.0f} s: "
                               f"{' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise RepetitionFailed(f"repetition failed (exit {proc.returncode}): "
                               f"{' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def check_digests(workload, seed, size, reps, pin):
    """Returns (ok, messages). Every repetition must reproduce the same
    digest, and it must match the pinned one when there is one."""
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        return False, [f"DIGEST MISMATCH between repetitions: {sorted(digests)}"]
    (value,) = digests
    if size != "full":
        return True, [f"digest {workload} seed={seed} {value} (size {size}: not pinned)"]
    golden = load_golden()
    pinned = golden.get(workload, {}).get(str(seed))
    if pin:
        golden.setdefault(workload, {})[str(seed)] = value
        with open(GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return True, [f"digest {workload} seed={seed} {value} pinned"]
    if pinned is None:
        return True, [f"digest {workload} seed={seed} {value} (no pinned digest "
                      "for this seed; checked for repeatability only)"]
    if pinned != value:
        return False, [f"DIGEST MISMATCH {workload} seed={seed}: got {value}, "
                       f"pinned {pinned}; simulated results changed"]
    return True, [f"digest {workload} seed={seed} {value} matches pinned"]


def run_reps(root, name, args, log):
    """Untraced (and, when tracing, traced) repetitions until `--seconds`
    would be overrun. Returns (untraced, traced, problems); a repetition
    that crashes or times out ends the loop with a problem."""
    start = time.perf_counter()
    budget_end = start + args.seconds
    untraced, traced = [], []
    try:
        while True:
            t0 = time.perf_counter()
            untraced.append(run_rep(root, name, args.seed, args.size, False,
                                    RUN_LIMIT_S - (t0 - start)))
            if args.trace:
                traced.append(run_rep(root, name, args.seed, args.size, True,
                                      RUN_LIMIT_S - (time.perf_counter() - start)))
            took = time.perf_counter() - t0
            done = len(traced) if args.trace else len(untraced)
            rep = untraced[-1]["end_to_end"]
            log(f"rep {len(untraced)} {name} seed={args.seed} "
                f"wall_s={rep['wall_s']:.4f} setup_s={rep['setup_s']:.4f} "
                f"digest={untraced[-1]['digest'][:16]}")
            if done >= (MIN_PAIRS if args.trace else MIN_REPS) \
                    and time.perf_counter() + took > budget_end:
                break
    except RepetitionFailed as exc:
        return untraced, traced, [str(exc)]
    return untraced, traced, []


def run_workload(root, name, args, listed, units, log):
    untraced, traced, problems = run_reps(root, name, args, log)
    reps = untraced + traced
    for r in reps:
        problems += [f"{name} seed={args.seed} trace={int(r['trace'])}: {p}"
                     for p in r["problems"]]
    metrics = {}
    table = units["per_layer" if args.trace else "end_to_end"]
    if untraced and (traced or not args.trace):
        ok, messages = check_digests(name, args.seed, args.size, reps, args.pin)
        if ok:
            for m in messages:
                log(m)
        else:
            problems += messages
        first = untraced[0]
        e2e = dict(first["end_to_end"])
        for metric in units["host"]:
            e2e[metric] = statistics.median(r["end_to_end"][metric] for r in untraced)
        if args.trace:
            metrics = {metric: statistics.median(r["per_layer"][metric] for r in traced)
                       for metric in traced[0]["per_layer"]}
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - e2e["wall_s"]
        else:
            metrics = e2e
        for metric in table:
            log(f"{name} {metric} {metrics[metric]!r} {table[metric]}")
        log(f"{name} stale_reads {first['stale_reads']} count")
    for p in problems:
        log(f"CHECK FAILED {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {metric: {"value": metrics[metric], "unit": table[metric]}
                    for metric in listed if metric in metrics},
    }
    record = {"env": environment(root), "workload": name,
              "seed": args.seed, "size": args.size, "trace": args.trace,
              "seconds": args.seconds, "problems": problems,
              "all_metrics": metrics, "repetitions": reps, "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-"
                                 f"trace{int(args.trace)}-{args.size}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bankftl", "__init__.py")):
        print(f"no bankftl sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from metrics import END_TO_END, HOST_METRICS, PER_LAYER
    units = {"end_to_end": END_TO_END, "per_layer": PER_LAYER, "host": HOST_METRICS}
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    def log(line):
        print(line, flush=True)

    env = environment(root)
    log("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    status = 0
    for name in (WORKLOADS if args.workload == "all" else (args.workload,)):
        result = run_workload(root, name, args, listed, units, log)
        if not result["correct"]:
            print(f"CHECK FAILED for {name}; see the lines above", file=sys.stderr)
            status = 1
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
