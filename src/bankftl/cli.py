"""Command-line bench harness: run / preset / inject-aging / report."""

import argparse
import json
import sys
from dataclasses import asdict

from . import bench
from .engine import Engine, EngineConfig
from .errors import AuditError, ConfigurationError, EngineStateError
from .gc_engine import GcPolicy
from .io_engine import EngineParams
from .sim_flash import PROFILES


def _policy_from(name, threads):
    return GcPolicy(kind=name, max_gc_threads=threads)


def _engine_params(args):
    if args.config:
        with open(args.config) as fh:
            params = EngineParams.from_text(fh.read())
    else:
        params = EngineParams()
    if args.queues:
        params.num_queues = args.queues
    return params


def cmd_run(args):
    if args.preset == "queue-scaling":
        rows = bench.run_queue_scaling(seed=args.seed)
        print("num_queues,throughput_mb_per_s")
        for q, mbs in rows:
            print(f"{q},{mbs:.2f}")
        return 0
    if args.preset == "init-scan":
        result = bench.run_init_scan(seed=args.seed)
        for key, value in result.items():
            print(f"{key}: {value}")
        return 0
    if args.preset:
        policy = _policy_from(args.policy, args.gc_threads) if args.policy else None
        report = bench.run_preset(args.preset, seed=args.seed, policy=policy,
                                  queues=args.queues or None)
    else:
        spec = bench.WorkloadSpec(
            num_client_threads=args.clients, region_lpns=args.region,
            rounds=args.rounds, pattern=args.pattern, seed=args.seed,
            think_small_us=args.think_small_us, think_large_us=args.think_large_us)
        config = EngineConfig(
            profile=args.profile, io=_engine_params(args),
            policy=_policy_from(args.policy or "PLLGC", args.gc_threads),
            seed=args.seed, image_path=args.image)
        report = bench.run(spec, config)
    paths = bench.emit_report(report, args.out)
    with open(paths["summary"]) as fh:
        print(fh.read().rstrip())
    print(f"report files in {args.out}")
    return 1 if report.errors else 0


def cmd_preset(args):
    bundle = bench.preset(args.name, seed=args.seed)
    out = {
        "name": bundle.name,
        "profile": bundle.profile,
        "geometry": asdict(PROFILES[bundle.profile]),
        "workload": asdict(bundle.workload),
        "engine": bundle.io.__dict__,
        "aging": asdict(bundle.aging) if bundle.aging else None,
        "policy": bundle.policy.__dict__,
        "alt_policy": bundle.alt_policy.__dict__ if bundle.alt_policy else None,
        "notes": bundle.notes,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_inject_aging(args):
    config = EngineConfig(
        profile=args.profile, image_path=args.image,
        policy=_policy_from("PLLGC", 1), seed=args.seed)
    eng = Engine.start(config)
    spec = bench.AgingSpec(
        free_mean=args.free_mean, free_spread=args.free_spread,
        valid_mean=args.valid_mean, valid_spread=args.valid_spread,
        seed=args.seed)
    try:
        info = bench.inject_aging(eng, spec)
    except (ConfigurationError, EngineStateError) as exc:
        # a spec that cannot be aged, or an image that already holds data:
        # leave the image as it is
        eng.abort()
        print(f"cannot age {args.image}: {exc}", file=sys.stderr)
        return 2
    try:
        checked = bench.aged_read_check(eng)
        eng.shutdown(clean=True)
    except AuditError as exc:
        print(f"aging audit failed: {exc}", file=sys.stderr)
        return 1
    print(f"aged image at {args.image}: {info['mapped']} lpns mapped, "
          f"{info['occupied_blocks']} occupied blocks, {checked} spot reads ok")
    return 0


def cmd_report(args):
    report = bench.RunReport.from_json(args.json)
    paths = bench.emit_report(report, args.out)
    print("\n".join(f"{k}: {v}" for k, v in paths.items()))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bankftl",
        description="Bank-parallel FTL simulator benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or a custom workload")
    run_p.add_argument("--preset", choices=["npgc-vs-pllgc", "adaptive-vs-pllgc",
                                            "queue-scaling", "init-scan"])
    run_p.add_argument("--profile", default="desk8", choices=sorted(PROFILES))
    run_p.add_argument("--image", default=None, help="flash image file to use")
    run_p.add_argument("--config", default=None, help="engine config file")
    run_p.add_argument("--policy", choices=["NPGC", "PLLGC", "PLLGC_ADAPTIVE"])
    run_p.add_argument("--gc-threads", type=int, default=1)
    run_p.add_argument("--queues", type=int, default=0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="bench-out")
    run_p.add_argument("--clients", type=int, default=1)
    run_p.add_argument("--region", type=int, default=1024)
    run_p.add_argument("--rounds", type=int, default=1)
    run_p.add_argument("--pattern", default="sequential",
                       choices=["sequential", "random"])
    run_p.add_argument("--think-small-us", type=int, default=0)
    run_p.add_argument("--think-large-us", type=int, default=0)
    run_p.set_defaults(func=cmd_run)

    preset_p = sub.add_parser("preset", help="print a preset bundle")
    preset_p.add_argument("name", choices=["npgc-vs-pllgc", "adaptive-vs-pllgc",
                                           "queue-scaling", "init-scan"])
    preset_p.add_argument("--seed", type=int, default=0)
    preset_p.set_defaults(func=cmd_preset)

    aging_p = sub.add_parser("inject-aging", help="age a flash image file")
    aging_p.add_argument("--image", required=True)
    aging_p.add_argument("--profile", default="desk8", choices=sorted(PROFILES))
    aging_p.add_argument("--free-mean", type=float, default=12.0)
    aging_p.add_argument("--free-spread", type=float, default=3.0)
    aging_p.add_argument("--valid-mean", type=float, default=32.0)
    aging_p.add_argument("--valid-spread", type=float, default=14.0)
    aging_p.add_argument("--seed", type=int, default=1)
    aging_p.set_defaults(func=cmd_inject_aging)

    report_p = sub.add_parser("report", help="re-emit CSVs from a report JSON")
    report_p.add_argument("--json", required=True)
    report_p.add_argument("--out", default="bench-out")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
