"""Exception types shared across the package, and :func:`require`, the one
way a settings rule is stated.

Each class carries the CLI exit code it ends in: 2 for bad settings or
data (and the base class), 3 for divergence, 4 for a checkpoint that does
not fit the data, 5 for predictions that do not match the annotations.
This module imports nothing, so every other module can use it.
"""

from __future__ import annotations


class MomentlocError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class DataError(MomentlocError):
    """Malformed or inconsistent input data (annotations, features, tokens)."""


class ConfigError(MomentlocError):
    """Invalid or unknown configuration key/value."""


def require(ok, key: str, rule: str, value) -> None:
    """Raise ``ConfigError("<key> must <rule>, got <value>")`` unless ``ok``.

    ``key`` names the setting as its user writes it (``"[train] tau"``,
    ``"--tau-eval"``). Write ``ok`` in the positive (``value > 0``, not
    ``not value <= 0``), so that a NaN fails every rule it meets.
    """
    if not ok:
        raise ConfigError(f"{key} must {rule}, got {value!r}")


class CheckpointMismatchError(MomentlocError):
    """Checkpoint is incompatible with the data or requested model setup."""

    exit_code = 4

    def __init__(self, field: str, expected, actual):
        super().__init__(
            f"checkpoint/config mismatch on '{field}': checkpoint has {expected!r}, got {actual!r}"
        )
        self.field = field
        self.expected = expected
        self.actual = actual


class TrainingDivergedError(MomentlocError):
    """Non-finite loss or gradient encountered; names the offending batch."""

    exit_code = 3

    def __init__(self, epoch: int, batch_index: int, video_ids: list[str]):
        super().__init__(
            f"non-finite loss or gradient at epoch {epoch}, batch {batch_index} "
            f"(videos: {', '.join(video_ids)})"
        )
        self.epoch = epoch
        self.batch_index = batch_index
        self.video_ids = list(video_ids)


class PredictionsMismatchError(MomentlocError):
    """Prediction records that cannot be matched against the annotations."""

    exit_code = 5

    def __init__(self, unmatched: list[str]):
        super().__init__(f"{len(unmatched)} unmatched prediction record(s)")
        self.unmatched = list(unmatched)
