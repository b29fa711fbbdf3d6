import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import pushpull_mac

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
SUBMODULES = {module.name for module in pkgutil.iter_modules(pushpull_mac.__path__)}
# the README's numpy names, resolved against numpy
FOREIGN = {"np": np, "bit_generator": np.random.default_rng(0).bit_generator}
FILE_SUFFIXES = {"py", "json", "md", "csv", "toml"}


def library_surface_names():
    """Backticked bare (dotted) identifiers in the README "Library surface"
    section; code spans with any other character are examples, not names."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    return [span for span in re.findall(r"`([^`]+)`", section) if IDENTIFIER.fullmatch(span)]


def readme_module_names():
    """Backticked dotted identifiers anywhere in the README, outside code
    blocks, whose first part is lowercase: module-qualified names.  File
    names such as ``harness.py`` are skipped."""
    text = FENCE.sub("", README.read_text(encoding="utf-8"))
    return [
        span
        for span in re.findall(r"`([^`]+)`", text)
        if IDENTIFIER.fullmatch(span) and "." in span and span[0].islower()
        and span.rsplit(".", 1)[1] not in FILE_SUFFIXES
    ]


def resolves(name, obj=pushpull_mac):
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


def module_name_resolves(name):
    """``<module>.<name>`` is an attribute of the ``pushpull_mac`` submodule
    ``<module>``; ``np.`` and ``bit_generator.`` names resolve in numpy."""
    head, _, rest = name.partition(".")
    if head in FOREIGN:
        return resolves(rest, FOREIGN[head])
    if head == "pushpull_mac":
        return resolves(name)
    return head in SUBMODULES and resolves(rest, importlib.import_module(f"pushpull_mac.{head}"))


def test_readme_module_names_resolve():
    names = readme_module_names()
    print(f"  {len(set(names))} module-qualified names in the README")
    assert {"mac_cff.sample_arrival_offsets", "core.SLOT_LIMIT", "metrics.slot_budget"} <= set(names)
    assert [name for name in names if not module_name_resolves(name)] == []


def test_unresolvable_module_names_are_caught():
    assert not module_name_resolves("traffic.sample_arrival_offsets")
    assert not module_name_resolves("mac_rcs.PushTrigger")
    assert not module_name_resolves("np.no_such_function")
    assert module_name_resolves("cli.main") and module_name_resolves("bit_generator.random_raw")
