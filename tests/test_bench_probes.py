"""Every probe of the end-to-end benchmark names an attribute that exists.

``e2ebench/tracing.py`` skips a probe whose target is gone and reports
its per-layer metrics as missing, so a renamed function would silently
turn them into ``null``; this catches the rename in the fast suite.
"""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "e2ebench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("e2ebench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracing  # its dataclasses look their module up
_SPEC.loader.exec_module(tracing)


def test_every_probe_target_resolves():
    missing = []
    for probe in tracing.PROBES:
        try:
            owner, attr = tracing._resolve(probe.target)
        except (ImportError, AttributeError):
            missing.append(probe.target)
            continue
        # A method must be defined on the named class itself, as the
        # installer looks it up.
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(probe.target)
    assert tracing.PROBES
    assert missing == []
