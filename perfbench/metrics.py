"""Metric names, units and their computation from one repetition.

"virt" metrics are simulated time and counts: a fixed seed reproduces them
exactly, and the golden digest pins them. Every other time is host time.
"""

import hashlib
import json

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_op_ratio": "ratio",
    "virt_elapsed_s": "s",
    "virt_write_p50_us": "us",
    "virt_write_p999_us": "us",
    "virt_read_p50_us": "us",
    "virt_read_p999_us": "us",
    "virt_over_2ms": "count",
    "write_amplification": "ratio",
    "virt_restart_s": "s",
}

# host-time metrics vary run to run; the rest must repeat exactly
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")

LAYERS = ("sched", "sim_flash", "ftl_state", "oob", "io_engine", "gc_engine",
          "checkpoint", "engine", "bench")

PER_LAYER = {
    "sched.steps": "count",
    "sched.steps_per_sector": "count",
    "sched.events_created": "count",
    "sched.self_s": "s",
    "sched.us_per_step": "us",
    "sched.core_charges": "count",
    "sched.charge_us_per_call": "us",
    "sim_flash.construct_s": "s",
    "sim_flash.write_page.calls": "count",
    "sim_flash.write_page.us_per_call": "us",
    "sim_flash.read_page.calls": "count",
    "sim_flash.read_page.us_per_call": "us",
    "sim_flash.erase_block.calls": "count",
    "sim_flash.erase_block.us_per_call": "us",
    "sim_flash.self_s": "s",
    "sim_flash.pages_written": "count",
    "sim_flash.read_units": "count",
    "sim_flash.blocks_erased": "count",
    "ftl_state.construct_s": "s",
    "ftl_state.map_update.calls": "count",
    "ftl_state.map_update.us_per_call": "us",
    "ftl_state.mark.calls": "count",
    "ftl_state.mark.us_per_call": "us",
    "ftl_state.alloc_page.calls": "count",
    "ftl_state.alloc_page.us_per_call": "us",
    "ftl_state.self_s": "s",
    "oob.calls": "count",
    "oob.us_per_call": "us",
    "oob.self_s": "s",
    "io_engine.self_s": "s",
    "io_engine.us_per_sector": "us",
    "io_engine.cache_hit_ratio": "ratio",
    "io_engine.read_hit_ratio": "ratio",
    "io_engine.evictions": "count",
    "io_engine.merges": "count",
    "io_engine.space_waits": "count",
    "gc_engine.self_s": "s",
    "gc_engine.select_victim.calls": "count",
    "gc_engine.select_victim.us_per_call": "us",
    "gc_engine.victim_found_ratio": "ratio",
    "gc_engine.round_hit_ratio": "ratio",
    "gc_engine.collect_block.calls": "count",
    "gc_engine.host_ms_per_block": "ms",
    "gc_engine.copy_useful_ratio": "ratio",
    "gc_engine.busy_virt_s": "s",
    "checkpoint.self_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.scan_s": "s",
    "checkpoint.load_reads": "count",
    "checkpoint.scan_reads": "count",
    "checkpoint.scan_to_load_ratio": "ratio",
    "engine.self_s": "s",
    "engine.start_s": "s",
    "bench.self_s": "s",
    "bench.inject_aging_s": "s",
    "bench.client_self_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

def percentile(values, q):
    """Nearest-rank percentile of integer samples, q in tenths of a
    percent (0 for no samples)."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 1000)) - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def failed_ops(result):
    return (result["request_errors"] + result["bad_reads"]
            + result["restore_mismatches"])


def digest(result):
    """SHA-256 over the run's simulated outcome: virtual elapsed time,
    every latency sample, the io/gc/device counters, the read checks and
    the restore results. Host times are left out."""
    keys = ("elapsed_us", "write_latencies_us", "read_latencies_us", "io", "gc",
            "device", "write_amplification", "attempted", "request_errors",
            "stale_reads", "bad_reads", "restore_mismatches", "restore")
    blob = json.dumps({k: result[k] for k in keys}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def end_to_end(result, wall_s, setup_s, peak_rss_mb):
    writes = result["write_latencies_us"]
    reads = result["read_latencies_us"]
    restore = result["restore"] or {}
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "failed_op_ratio": _ratio(failed_ops(result), result["attempted"]),
        "virt_elapsed_s": result["elapsed_us"] / 1e6,
        "virt_write_p50_us": percentile(writes, 500),
        "virt_write_p999_us": percentile(writes, 999),
        "virt_read_p50_us": percentile(reads, 500),
        "virt_read_p999_us": percentile(reads, 999),
        "virt_over_2ms": sum(1 for v in writes if v > 2000)
                         + sum(1 for v in reads if v > 2000),
        "write_amplification": result["write_amplification"],
        "virt_restart_s": restore.get("load_us", 0) / 1e6,
    }


def per_layer(result, setup, window, device_delta, wall_s):
    """Layer metrics of a traced repetition. `setup` and `window` map each
    traced operation to (layer, spans, inclusive s, self s, invocations,
    hits) accumulated over the set-up and over the timed window."""

    def get(name, field):
        index = ("layer", "spans", "incl", "self", "calls", "hits").index(field)
        return window.get(name, (None, 0, 0.0, 0.0, 0, 0))[index]

    def calls(*names):
        return sum(get(n, "spans") for n in names)

    def us_per_call(*names):
        return _ratio(sum(get(n, "incl") for n in names), calls(*names)) * 1e6

    def setup_incl(name):
        return setup.get(name, (None, 0, 0.0))[2]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    client_self = steps = 0
    for name, (layer, spans, _, own, _, _) in window.items():
        if layer in layer_self:
            layer_self[layer] += own
        if name.startswith("actor "):
            steps += spans
            if layer == "bench":
                client_self += own
    io, gc = result["io"], result["gc"]
    restore = result["restore"] or {}
    sectors = io["user_sectors_written"] + io["user_sectors_read"]
    select_calls = calls("GcController.select_victim")
    rounds = get("GcController.gc_worker_round", "calls")
    construct = {k: setup_incl(k) + get(k, "incl")
                 for k in ("SimFlashDevice.__init__", "FtlState.__init__")}
    out = {
        "sched.steps": steps,
        "sched.steps_per_sector": _ratio(steps, sectors),
        "sched.events_created": calls("Scheduler.event"),
        "sched.self_s": layer_self["sched"],
        "sched.us_per_step": _ratio(layer_self["sched"], steps) * 1e6,
        "sched.core_charges": calls("CorePool.charge"),
        "sched.charge_us_per_call": us_per_call("CorePool.charge"),
        "sim_flash.construct_s": construct["SimFlashDevice.__init__"],
        "sim_flash.self_s": layer_self["sim_flash"],
        "sim_flash.pages_written": device_delta["pages_written"],
        "sim_flash.read_units": device_delta["read_units"],
        "sim_flash.blocks_erased": device_delta["blocks_erased"],
        "ftl_state.construct_s": construct["FtlState.__init__"],
        "ftl_state.map_update.calls": calls("FtlState.map_update_locked",
                                            "FtlState.map_update_if"),
        "ftl_state.map_update.us_per_call": us_per_call(
            "FtlState.map_update_locked", "FtlState.map_update_if"),
        "ftl_state.mark.calls": calls("FtlState.mark_valid", "FtlState.mark_invalid"),
        "ftl_state.mark.us_per_call": us_per_call("FtlState.mark_valid",
                                                  "FtlState.mark_invalid"),
        "ftl_state.alloc_page.calls": calls("FtlState.alloc_page_in_bank"),
        "ftl_state.alloc_page.us_per_call": us_per_call("FtlState.alloc_page_in_bank"),
        "ftl_state.self_s": layer_self["ftl_state"],
        "oob.calls": calls("bankftl.oob.encode_spare", "bankftl.oob.decode_spare"),
        "oob.us_per_call": us_per_call("bankftl.oob.encode_spare",
                                       "bankftl.oob.decode_spare"),
        "oob.self_s": layer_self["oob"],
        "io_engine.self_s": layer_self["io_engine"],
        "io_engine.us_per_sector": _ratio(layer_self["io_engine"], sectors) * 1e6,
        "io_engine.cache_hit_ratio": _ratio(io["cache_hits"],
                                            io["cache_hits"] + io["cache_misses"]),
        "io_engine.read_hit_ratio": _ratio(io["read_hits"],
                                           io["read_hits"] + io["read_misses"]),
        "io_engine.evictions": io["evictions"],
        "io_engine.merges": io["merges"],
        "io_engine.space_waits": io["space_waits"],
        "gc_engine.self_s": layer_self["gc_engine"],
        "gc_engine.select_victim.calls": select_calls,
        "gc_engine.select_victim.us_per_call": us_per_call("GcController.select_victim"),
        "gc_engine.victim_found_ratio": _ratio(
            get("GcController.select_victim", "hits"), select_calls),
        "gc_engine.round_hit_ratio": _ratio(
            get("GcController.gc_worker_round", "hits"), rounds),
        "gc_engine.collect_block.calls": get("GcController.collect_block", "calls"),
        "gc_engine.host_ms_per_block": _ratio(
            get("GcController.collect_block", "incl"), gc["blocks_collected"]) * 1e3,
        "gc_engine.copy_useful_ratio": _ratio(
            gc["valid_pages_copied"], gc["valid_pages_copied"] + gc["wasted_copies"]),
        "gc_engine.busy_virt_s": gc["busy_us"] / 1e6,
        "checkpoint.self_s": layer_self["checkpoint"],
        "checkpoint.save_s": get("Checkpointer.save", "incl"),
        "checkpoint.load_s": result["phases_s"].get("load", 0.0),
        "checkpoint.scan_s": result["phases_s"].get("scan", 0.0),
        "checkpoint.load_reads": restore.get("load_reads", 0),
        "checkpoint.scan_reads": restore.get("scan_reads", 0),
        "checkpoint.scan_to_load_ratio": _ratio(restore.get("scan_reads", 0),
                                                restore.get("load_reads", 0)),
        "engine.self_s": layer_self["engine"],
        "engine.start_s": setup_incl("Engine.start"),
        "bench.self_s": layer_self["bench"],
        "bench.inject_aging_s": setup_incl("bankftl.bench.inject_aging"),
        "bench.client_self_s": client_self,
        "unattributed_s": get("window", "self"),
        "trace.wall_s": wall_s,
    }
    for op in ("write_page", "read_page", "erase_block"):
        name = f"SimFlashDevice.{op}"
        out[f"sim_flash.{op}.calls"] = calls(name)
        out[f"sim_flash.{op}.us_per_call"] = us_per_call(name)
    return out
