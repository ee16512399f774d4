"""The error a checked replay raises.

Both replays raise :exc:`ReplayDivergence`: the AMP one
(:mod:`repro.trace.replay`) and the shared-memory one
(:mod:`repro.trace.shm_replay`).  It lives apart from both so that
catching it loads neither kernel.
"""

from __future__ import annotations

from ..core.exceptions import ModelViolation


class ReplayDivergence(ModelViolation):
    """The re-executed protocol departed from the recorded run."""
