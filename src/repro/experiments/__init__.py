"""Experiment harness regenerating every table and figure of the paper.

* :mod:`repro.experiments.table2` — Table II (effectiveness of all 14
  methods across privacy / utility / recovery metrics);
* :mod:`repro.experiments.fig4` — Figure 4 (impact of the privacy
  budget ε on PureG / PureL / GL);
* :mod:`repro.experiments.fig5` — Figure 5 (efficiency of the index
  search strategies, and local vs global modification cost).

Each module exposes ``run(config)`` returning plain dictionaries and a
``main()`` that prints the paper-style rows; ``python -m
repro.experiments.table2`` (etc.) runs them from the shell.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.experiments.config": ("ExperimentConfig",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
