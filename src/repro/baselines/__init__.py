"""Every baseline the paper compares against (Table II).

* k-anonymity family: :class:`~repro.baselines.w4m.W4M`,
  :class:`~repro.baselines.glove.Glove`, :class:`~repro.baselines.klt.KLT`;
* signature family: :class:`~repro.baselines.signature_closure.SignatureClosure`
  (SC) and :class:`~repro.baselines.signature_closure.RadiusSignatureClosure`
  (RSC-α);
* generative DP family: :class:`~repro.baselines.dpt.DPT`,
  :class:`~repro.baselines.adatrace.AdaTrace`.

All expose ``anonymize(dataset) -> TrajectoryDataset`` like the
frequency-based models in :mod:`repro.core.pipeline`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.baselines.signature_closure": (
        "RadiusSignatureClosure", "SignatureClosure",
    ),
    "repro.baselines.w4m": ("W4M",),
    "repro.baselines.glove": ("Glove",),
    "repro.baselines.klt": ("KLT",),
    "repro.baselines.dpt": ("DPT",),
    "repro.baselines.adatrace": ("AdaTrace",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
