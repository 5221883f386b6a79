"""Every numeric-policy field must be read by the library; a setting that
nothing reads fails here instead of lingering in the policy record."""

import dataclasses
import re
from pathlib import Path

from spinpulse.policy import NumericPolicy

SRC = Path(__file__).resolve().parents[1] / "src" / "spinpulse"


def test_every_policy_field_is_read():
    text = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py"))
                     if path.name != "policy.py")
    unread = [f.name for f in dataclasses.fields(NumericPolicy)
              if not re.search(rf"\.{f.name}\b", text)]
    assert not unread
