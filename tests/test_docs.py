import re
from pathlib import Path

import pushpull_mac

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def library_surface_names():
    """Backticked bare (dotted) identifiers in the README "Library surface"
    section; code spans with any other character are examples, not names."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    return [span for span in re.findall(r"`([^`]+)`", section) if IDENTIFIER.fullmatch(span)]


def resolves(name):
    obj = pushpull_mac
    parts = name.split(".")
    for part in parts[1:] if parts[0] == "pushpull_mac" else parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_library_surface_names_resolve():
    names = library_surface_names()
    # the section names the package's main entry points and record fields
    assert {"simulate_cff", "MetricsRecord.latency_slots", "RcsResult.frames"} <= set(names)
    assert [name for name in names if not resolves(name)] == []


def test_library_surface_names_every_export():
    # a test-only export cannot come back unnoticed: it would need a line here
    names = set(library_surface_names())
    assert [name for name in pushpull_mac.__all__ if name != "__version__" and name not in names] == []


def test_unresolvable_names_are_caught():
    assert not resolves("RcsResult.record")
    assert not resolves("MetricsRecord.extend_deliveries")
    assert not resolves("mac_rcs.FrameLog")
    assert resolves("pushpull_mac") and resolves("mac_rcs.RcsResult")
