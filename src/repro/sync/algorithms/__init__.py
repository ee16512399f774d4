"""Synchronous algorithms: flooding, coloring, MIS, locality, consensus."""

from ... import _exports

_EXPORTS = {
    "aggregate": (
        "AggregateFlooding", "ColumnarAggregateFlooding", "make_aggregate_flooders",
    ),
    "coloring": (
        "ColeVishkinColoring", "cv_iterations", "expected_rounds", "log_star",
        "make_ring_colorers", "verify_proper_coloring", "verify_ring_coloring",
    ),
    "consensus": ("FloodSetConsensus", "make_floodset"),
    "early_stopping": ("EarlyStoppingConsensus", "make_early_stopping"),
    "flooding": (
        "MODES", "DeltaMessage", "FloodingAlgorithm", "identity_vector",
        "make_flooders",
    ),
    "leader": ("FloodMaxLeader", "make_flood_max"),
    "local": (
        "LocalityVerdict", "classify_algorithm", "classify_run",
        "ring_coloring_lower_bound",
    ),
    "luby": ("LubyMIS", "make_luby"),
    "mis": ("ColorToMIS", "GreedyColorByID", "verify_mis"),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
