"""Attack models used in the paper's evaluation.

* :mod:`repro.attacks.linkage` — the re-identification (linking) attack
  of [3], with spatial / temporal / spatiotemporal / sequential
  signature variants (the LA columns of Table II);
* :mod:`repro.attacks.hmm` — Newson-Krumm HMM map matching [34];
* :mod:`repro.attacks.recovery` — the recovery attack: reconstructing
  original road paths from anonymized trajectories via map matching.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.attacks.linkage": ("LinkageAttack", "LinkageResult"),
    "repro.attacks.hmm": ("HmmMapMatcher",),
    "repro.attacks.recovery": ("RecoveryAttack",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
