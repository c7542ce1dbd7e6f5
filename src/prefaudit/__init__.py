"""prefaudit: simulate Bradley-Terry preference annotations, fit linear
reward models, and audit them against social-choice style axioms and a
worst-case distortion metric.

The labelled comparisons travel between every layer as one columnar,
read-only ``Dataset``; it replaces the list of per-record
``ComparisonRecord`` objects that earlier versions passed around."""

__version__ = "0.1.0"

from .errors import ConfigError, InputError, NumericError, PrefAuditError
from .model import (
    Dataset,
    RewardModel,
    VoterParams,
    btl_prob,
    feature_vector,
    proxy_reward,
    reward,
)

__all__ = [
    "__version__",
    "PrefAuditError",
    "InputError",
    "ConfigError",
    "NumericError",
    "feature_vector",
    "VoterParams",
    "Dataset",
    "RewardModel",
    "reward",
    "proxy_reward",
    "btl_prob",
]
