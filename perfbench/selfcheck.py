"""Fast self-check of the benchmark at a tiny size (about a minute).

    python3 perfbench/selfcheck.py

Run from the repository root. For every workload it confirms that
- the result line carries exactly the metrics `BENCHMARK.json` lists, each
  with its unit, and the lines above it print every metric with its unit;
- the digest repeats across the repetitions of a run, across two runs, and
  across two PYTHONHASHSEED values;
- the traced run reproduces the untraced digest.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

SEED = 3


def bench(workload, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, env=env, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}")
    result = json.loads(lines[-1])
    digests = [line.split()[3] for line in lines if line.startswith("digest ")]
    return result, lines[:-1], digests


def check_metrics(spec, section, workload, result, lines):
    problems = []
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{workload}: result metrics {sorted(got.items())} "
                        f"!= BENCHMARK.json {section} {sorted(want.items())}")
    printed = {tuple(line.split()[1:4:2]) for line in lines
               if line.startswith(workload + " ")}
    for name, unit in want.items():
        if (name, unit) not in printed:
            problems.append(f"{workload}: {name} [{unit}] not printed by name")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{workload}: {name} is not a number")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{workload}: run reported correct={result['correct']} "
                        f"attempted={result['attempted']}")
    return problems


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        runs = [bench(workload, 0, 1), bench(workload, 0, 2), bench(workload, 1, 1)]
        for (result, lines, _), section in zip(
                runs, ("end_to_end", "end_to_end", "per_layer")):
            problems += check_metrics(spec, section, workload, result, lines)
        digests = {d for _, _, ds in runs for d in ds}
        if len(digests) != 1:
            problems.append(f"{workload}: digests differ: {sorted(digests)}")
        print(f"{workload}: digest {sorted(digests)[0][:16]} over "
              f"{sum(len(ds) for _, _, ds in runs)} runs", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
