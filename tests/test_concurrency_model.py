"""Every actor runs on one cooperative scheduler and takes no lock. Two rules
replace the paper's per-bank locks: a page is allocated and programmed in one
scheduler step, and no module touches OS threads, so the `Engine` facade is
driven from one."""

import ast
import random
from pathlib import Path

import pytest

from bankftl.errors import AuditError
from bankftl.gc_engine import GcLevel, GcPolicy
from bankftl.io_engine import IoRequest

from conftest import TINY, sector_payload, tiny_engine

SRC = Path(__file__).resolve().parent.parent / "src" / "bankftl"
SPP = TINY.sectors_per_page
POLICY_KINDS = ("NPGC", "PLLGC", "PLLGC_ADAPTIVE")


def watch_alloc_program_steps(eng):
    """Patch the engine's tables and device so that every page handed out
    by alloc_page_in_bank is paired with its program. Returns the pages
    allocated but not yet programmed, and the (alloc step, program step)
    pairs seen so far."""
    g = eng.device.geometry
    alloc, write = eng.state.alloc_page_in_bank, eng.device.write_page
    pending, pairs = {}, []

    def alloc_page_in_bank(bank, reserve=0):
        ppn = alloc(bank, reserve)
        if ppn is not None:
            pending[ppn] = eng.sched.events_processed
        return ppn

    def write_page(addr, *args, **kwargs):
        ppn = g.ppn(addr.bank, addr.block, addr.page)
        if ppn in pending:
            pairs.append((pending.pop(ppn), eng.sched.events_processed))
        return write(addr, *args, **kwargs)

    eng.state.alloc_page_in_bank = alloc_page_in_bank
    eng.device.write_page = write_page
    return pending, pairs


def hammer(eng, writers, writes_each, lpns, seed):
    """Run `writers` client actors at once, each overwriting random sectors
    of the first `lpns` logical pages."""
    rng = random.Random(seed)

    def client(cid):
        for i in range(writes_each):
            lsn = rng.randrange(lpns * SPP)
            req = IoRequest("write", lsn,
                            sector_payload((cid, i), TINY.read_unit))
            eng.submit(req)
            yield req.done
            assert req.error is None, req.error

    actors = [eng.sched.spawn(client(c), f"client-{c}") for c in range(writers)]
    for actor in actors:
        eng.sched.join(actor)


def hammer_engine(policy):
    """A `tiny` engine on which `hammer` keeps collection busy."""
    return tiny_engine(policy=policy, queues=16, buffers=4, export_ratio=0.6,
                       levels=[GcLevel(6, 0), GcLevel(4, 2), GcLevel(2, 4)])


def check_alloc_and_program_share_a_step(policy):
    eng = hammer_engine(policy)
    pending, pairs = watch_alloc_program_steps(eng)
    hammer(eng, writers=24, writes_each=120, lpns=200, seed=7)
    eng.flush()
    assert eng.gc.stats.valid_pages_copied > 0       # GC copies were covered
    assert eng.io.counters["user_pages_flushed"] > 0
    assert len(pairs) > 300
    assert [p for p in pairs if p[0] != p[1]] == []
    assert pending == {}
    eng.audit(deep=True)
    eng.shutdown(clean=True)


def test_pllgc_allocates_and_programs_in_one_step():
    check_alloc_and_program_share_a_step(GcPolicy(kind="PLLGC", max_gc_threads=8))


def test_npgc_allocates_and_programs_in_one_step():
    check_alloc_and_program_share_a_step(GcPolicy(kind="NPGC"))


@pytest.mark.xfail(strict=True, raises=AuditError, reason=(
    "ROADMAP item 11: GC erases a block while a user page in it is in "
    "flight, so the flush maps its LPN into an erased or reused page"))
@pytest.mark.parametrize("policy,seed", [
    (GcPolicy(kind="PLLGC", max_gc_threads=8), 2),
    (GcPolicy(kind="NPGC"), 36),
    (GcPolicy(kind="PLLGC_ADAPTIVE", max_gc_threads=8), 1)],
    ids=["PLLGC-2", "NPGC-36", "PLLGC_ADAPTIVE-1"])
def test_hammered_map_names_each_lpn_in_its_spare(policy, seed):
    """The `hammer` workload at seeds where a collection races a user
    program: after `flush`, the deep audit passes, which also requires
    every mapped LPN's spare to decode to that LPN."""
    eng = hammer_engine(policy)
    hammer(eng, writers=24, writes_each=120, lpns=200, seed=seed)
    eng.flush()
    eng.audit(deep=True)


def _os_thread_uses(tree):
    """Names of the OS-thread facilities a module's syntax tree uses."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names
                         if a.name.split(".")[0] == "threading")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "threading":
                found.add("threading")
            if node.module == "time" and any(a.name == "sleep" for a in node.names):
                found.add("time.sleep")
        elif (isinstance(node, ast.Attribute) and node.attr == "sleep"
              and isinstance(node.value, ast.Name) and node.value.id == "time"):
            found.add("time.sleep")
    return found


def _policy_mentions(tree):
    """(enclosing class/function path, name) for each GC policy kind literal
    and each `policy_kind` identifier in a module's syntax tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Constant) and node.value in POLICY_KINDS:
            found.append((".".join(scope), node.value))
        for attr in ("id", "attr", "arg"):
            if getattr(node, attr, None) == "policy_kind":
                found.append((".".join(scope), "policy_kind"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_gc_controller_knows_the_gc_policy():
    """The IO engine asks the GC controller whether to collect inline; the
    facade names a policy only to validate its config."""
    mentions = {name: _policy_mentions(ast.parse((SRC / name).read_text(), name))
                for name in ("io_engine.py", "engine.py")}
    assert mentions["io_engine.py"] == []
    assert {scope for scope, _ in mentions["engine.py"]} == {"EngineConfig.validate"}


def test_no_module_uses_os_threads():
    uses = {path.name: _os_thread_uses(ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py"))}
    assert "engine.py" in uses
    assert {name: found for name, found in uses.items() if found} == {}


def test_only_the_io_engine_queues_a_client_write():
    """The bench client hands each write to `IoEngine.write_run`, which
    decides whether it is served in the client's step or queued: the
    client builds no request and submits none itself."""
    tree = ast.parse((SRC / "bench.py").read_text(), "bench.py")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names if a.name == "IoRequest")
        elif isinstance(node, ast.Attribute) and node.attr in ("IoRequest",
                                                               "submit"):
            found.add(node.attr)
    assert found == set()


def test_only_aging_synthesizes_blocks():
    """`SimFlashDevice.program_block` moves no device clock, so only the
    aging synthesis in `bench` may call it: user IO and GC program pages
    through the timed `write_page`."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "program_block"):
                callers.add(path.name)
    assert callers == {"bench.py"}


def test_every_device_request_is_timed_on_its_callers_scheduler():
    """Every `write_page`, `read_page` and `erase_block` call in `src` passes
    `submit_us=`, so its wait runs from its caller's scheduler clock. A
    check that must not move the model looks pages up with `peek_page`."""
    requests = ("write_page", "read_page", "erase_block")
    seen, untimed = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in requests:
                seen.add(name)
                if not any(k.arg == "submit_us" for k in node.keywords):
                    untimed.append(f"{path.name}:{node.lineno} {name}")
    assert seen == set(requests)
    assert untimed == []
