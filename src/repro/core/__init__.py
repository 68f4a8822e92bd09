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

from repro.core.laplace import LaplaceMechanism, laplace_noise
from repro.core.signature import SignatureExtractor, SignatureIndex
from repro.core.global_mechanism import GlobalTFMechanism
from repro.core.local_mechanism import LocalPFMechanism
from repro.core.pipeline import GL, FrequencyAnonymizer, PureG, PureL

__all__ = [
    "FrequencyAnonymizer",
    "GL",
    "GlobalTFMechanism",
    "LaplaceMechanism",
    "LocalPFMechanism",
    "PureG",
    "PureL",
    "SignatureExtractor",
    "SignatureIndex",
    "laplace_noise",
]
