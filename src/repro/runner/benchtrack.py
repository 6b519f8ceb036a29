"""Where a measurement was taken: :func:`host_info` stamps benchmark
output (``perfbench/run.py``) with the host and the commit, so numbers
from different machines or commits are never compared blind."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any

__all__ = ["host_info"]


def host_info() -> dict[str, Any]:
    """Cpu count, platform, python and git sha of this run.
    ``git_sha`` is ``None`` outside a work tree (e.g. an installed
    sdist)."""
    sha: str | None = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            sha = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": sha,
    }
