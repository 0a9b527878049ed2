"""The outside tracer: resolve, wrap, rebind aliases, restore."""

import sys
import types

import pytest

import adapter
import layers
import spans


@pytest.fixture
def fakeprog():
    core = types.ModuleType("fakeprog.core")
    exec(
        "def f(x):\n    return x + 1\n"
        "class K:\n    def m(self, x):\n        return f(x) * 2\n",
        core.__dict__,
    )
    user = types.ModuleType("fakeprog.user")
    user.alias = core.f  # what ``from fakeprog.core import f as alias`` leaves
    user.call = lambda x: user.alias(x)
    pkg = types.ModuleType("fakeprog")
    mods = {"fakeprog": pkg, "fakeprog.core": core, "fakeprog.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        del sys.modules[name]


def test_rebinding_reaches_from_imported_alias_and_restores(fakeprog):
    core, user = fakeprog
    original_f, original_m = core.f, core.K.__dict__["m"]
    rec = spans.SpanRecorder()
    tracing = adapter.install_tracing(
        rec,
        {"fn": ["fakeprog.core:f"], "meth": ["fakeprog.core:K.m", "fakeprog.core:gone"]},
        prefix="fakeprog",
    )
    assert tracing.unbound == ["fakeprog.core:gone"]
    assert user.alias is not original_f and user.alias is core.f
    assert user.call(1) == 2  # through the alias
    assert core.K().m(1) == 4  # method, which calls f by its module name
    out = spans.self_times(rec.to_dict())
    assert out["fn"][1] == 2 and out["meth"][1] == 1

    tracing.restore()
    assert core.f is original_f and user.alias is original_f
    assert core.K.__dict__["m"] is original_m
    before = len(rec.layer)
    user.call(1)
    assert len(rec.layer) == before


def test_unresolvable_names_never_raise():
    rec = spans.SpanRecorder()
    tracing = adapter.install_tracing(
        rec, {"x": ["no.such.module:f", "json:no_such_function", "json:decoder.nope.f"]},
        prefix="no.such",
    )
    assert len(tracing.unbound) == 3
    tracing.restore()


def test_every_entry_point_resolves_on_this_commit():
    rec = spans.SpanRecorder()
    tracing = adapter.install_tracing(rec)
    try:
        assert tracing.unbound == []
        import repro.place.bonnplace as bonnplace
        import repro.legalize.detailed as detailed

        # ``from repro.legalize.detailed import detailed_place`` call site
        assert bonnplace.detailed_place is detailed.detailed_place
        assert bonnplace.detailed_place.__wrapped__.__module__ == "repro.legalize.detailed"
    finally:
        tracing.restore()
    assert not hasattr(bonnplace.detailed_place, "__wrapped__")
    assert layers.STARTUP not in layers.ENTRY_POINTS
