"""Exception types shared across the package."""

from __future__ import annotations


class MomentlocError(Exception):
    """Base class for all package-specific errors."""


class DataError(MomentlocError):
    """Malformed or inconsistent input data (annotations, features, tokens)."""


class ConfigError(MomentlocError):
    """Invalid or unknown configuration key/value."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class CheckpointMismatchError(MomentlocError):
    """Checkpoint is incompatible with the data or requested model setup."""

    def __init__(self, field: str, expected, actual):
        super().__init__(
            f"checkpoint/config mismatch on '{field}': checkpoint has {expected!r}, got {actual!r}"
        )
        self.field = field
        self.expected = expected
        self.actual = actual


class TrainingDivergedError(MomentlocError):
    """Non-finite loss or gradient encountered; names the offending batch."""

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

    def __init__(self, unmatched: list[str]):
        super().__init__(f"{len(unmatched)} unmatched prediction record(s)")
        self.unmatched = list(unmatched)
