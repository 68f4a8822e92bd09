"""Evaluation metrics matching the paper's Table II columns.

* :mod:`repro.metrics.privacy` — mutual information (MI); linking
  accuracies come from :mod:`repro.attacks.linkage`;
* :mod:`repro.metrics.utility` — INF, DE, TE, FFP;
* :mod:`repro.metrics.patterns` — the frequent-pattern miner FFP uses;
* :mod:`repro.metrics.recovery` — route precision/recall/F1, RMF, and
  point-based accuracy for the recovery attack.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.metrics.privacy": ("mutual_information",),
    "repro.metrics.utility": (
        "diameter_error", "frequent_pattern_f1", "information_loss",
        "trip_error",
    ),
    "repro.metrics.recovery": ("RecoveryMetrics", "score_recovery"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
