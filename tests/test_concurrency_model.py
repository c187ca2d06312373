"""Every actor runs on one cooperative scheduler and takes no lock. Two rules
replace the paper's per-bank locks: a page is allocated and programmed in one
scheduler step, and only the `Engine` facade touches OS threads."""

import ast
import random
from pathlib import Path

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


def check_alloc_and_program_share_a_step(policy):
    eng = tiny_engine(policy=policy, queues=16, buffers=4, export_ratio=0.6,
                      levels=[GcLevel(6, 0), GcLevel(4, 2), GcLevel(2, 4)])
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


def test_only_the_engine_facade_uses_os_threads():
    uses = {path.name: _os_thread_uses(ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py"))}
    assert uses.pop("engine.py") == {"threading"}    # its pump lock
    assert {name: found for name, found in uses.items() if found} == {}
