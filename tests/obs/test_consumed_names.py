"""`repro doctor` and `repro top` read metric families and flight events
by name; every name they read is one the serving modules declare.

A rename on the declaring side leaves a doctor count at zero or a top
table empty, with no error anywhere.  That holds for any rename, not only
one that leaves the ``convgpu_*`` or dotted ``subsystem.verb`` naming
conventions, so the check is on the names the readers use.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
import repro.core.scheduler.daemon  # noqa: F401 -- declares every serving family and event
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER

_PACKAGE = Path(repro.__file__).parent
READERS = (_PACKAGE / "cli.py", _PACKAGE / "obs" / "doctor.py")


def _names_read(pattern: str) -> set[str]:
    return {
        name for path in READERS for name in re.findall(pattern, path.read_text())
    }


def test_every_metric_family_doctor_and_top_read_is_declared():
    read = _names_read(r'"(convgpu_[a-z0-9_]+)"')
    assert "convgpu_stage_seconds" in read
    assert {name for name in read if REGISTRY.get(name) is None} == set()


def test_every_event_doctor_counts_is_declared():
    read = _names_read(r'event_counts\.get\("([^"]+)"')
    assert "io.frame_error" in read
    assert read - set(RECORDER.registry()) == set()
