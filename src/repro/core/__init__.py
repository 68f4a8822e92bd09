"""The paper's primary contribution: frequency-based DP randomization.

* :mod:`repro.core.laplace` — zero- and non-zero-mean Laplace mechanism
  (Definitions 1-3, Theorem 2);
* :mod:`repro.core.accounting` — the composition ledger every draw is
  recorded in (Theorem 1);
* :mod:`repro.core.signature` — PF/TF signature extraction (Section III-B1);
* :mod:`repro.core.global_mechanism` — Algorithm 1;
* :mod:`repro.core.local_mechanism` — Algorithm 2;
* :mod:`repro.core.edits` / :mod:`repro.core.modification` — trajectory
  edit operations with utility-loss costs and the intra-/inter-trajectory
  modification optimisers (Section IV);
* :mod:`repro.core.pipeline` — the published anonymizers PureG, PureL, GL.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.laplace": ("LaplaceMechanism", "laplace_noise"),
    "repro.core.signature": ("SignatureExtractor", "SignatureIndex"),
    "repro.core.global_mechanism": ("GlobalTFMechanism",),
    "repro.core.local_mechanism": ("LocalPFMechanism",),
    "repro.core.pipeline": ("GL", "FrequencyAnonymizer", "PureG", "PureL"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
