"""prefaudit: simulate Bradley-Terry preference annotations, fit linear
reward models, and audit them against social-choice style axioms and a
worst-case distortion metric.

The voters travel between every layer as one read-only ``Voters``, and
the labelled comparisons as one columnar, read-only ``Dataset``."""

__version__ = "0.1.0"

from .errors import ConfigError, InputError, NumericError, PrefAuditError
from .model import (
    Dataset,
    RewardModel,
    Voters,
    btl_prob,
    feature_vector,
)

__all__ = [
    "__version__",
    "PrefAuditError",
    "InputError",
    "ConfigError",
    "NumericError",
    "feature_vector",
    "Voters",
    "Dataset",
    "RewardModel",
    "btl_prob",
]
