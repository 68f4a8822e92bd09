"""Real-dataset workloads: streaming ingestion, preprocessing, registry.

The synthetic generator (:mod:`repro.datagen`) covers the paper's
controlled experiments; this package covers the *real-data* path the
roadmap's millions-of-users workload needs:

* :mod:`repro.data.stream` — lazy, memory-bounded readers for raw
  T-Drive files (``taxi_id,datetime,longitude,latitude``) and planar
  ``object_id,t,x,y`` CSVs, plus projection and chunking helpers;
* :mod:`repro.data.preprocess` — the raw-to-clean pipeline (timestamp
  sorting/dedup, gap-splitting into trips, bbox and min-length
  filtering, optional resampling), streaming end to end;
* :mod:`repro.data.registry` — named dataset sources with cached,
  versioned preprocessed artifacts on disk.

Formats, artifact schema, and every preprocessing knob are documented
in ``docs/data.md``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.data.preprocess": (
        "IngestStats", "PreprocessConfig", "preprocess_stream",
    ),
    "repro.data.registry": (
        "DatasetRegistry", "IngestResult", "is_artifact", "load_dataset",
        "stream_dataset",
    ),
    "repro.data.stream": (
        "RawRecord", "chunked", "stream_tdrive_records", "stream_trajectories",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
