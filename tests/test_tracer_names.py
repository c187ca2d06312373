"""The benchmark's traced run wraps bankftl functions by name; a rename of
any of them must fail here rather than crash the traced benchmark."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for owner, attr, raw in patched:
            assert vars(owner)[attr] is not raw
    finally:
        tracer.uninstall()
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw
