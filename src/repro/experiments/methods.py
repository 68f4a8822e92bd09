"""Method specs for every method Table II compares.

Since the :mod:`repro.api` registry became the one front door, this
module is a thin, *ordered* view over it: ``table2_specs`` maps the
paper's method labels (Table II column order) to declarative
:class:`~repro.api.spec.MethodSpec` values derived from an
:class:`ExperimentConfig`, and ``our_model_specs`` covers just the
frequency-based models for the ε sweep of Figure 4. The drivers run
each spec with :func:`repro.api.run`.

``SYNTHETIC_METHODS`` marks the generative models whose outputs carry
no record-level truthfulness (the paper skips temporal-linkage and
recovery metrics for them); it is derived from the registry's
``synthetic`` flags.
"""

from __future__ import annotations

from repro.api import MethodSpec, method_info
from repro.experiments.config import ExperimentConfig

#: Table II labels, in the paper's column order, with the registry
#: kind each resolves to (RSC expands to one column per radius).
TABLE2_ORDER = (
    ("SC", "sc"),
    ("RSC", "rsc"),
    ("W4M", "w4m"),
    ("GLOVE", "glove"),
    ("KLT", "klt"),
    ("DPT", "dpt"),
    ("AdaTrace", "adatrace"),
    ("PureG", "pureg"),
    ("PureL", "purel"),
    ("GL", "gl"),
)

#: Methods whose output is synthetic (no record-level pairing),
#: straight from the registry metadata.
SYNTHETIC_METHODS = frozenset(
    label for label, kind in TABLE2_ORDER if method_info(kind).synthetic
)


def table2_specs(config: ExperimentConfig) -> dict[str, MethodSpec]:
    """All Table II methods as specs, in the paper's column order."""
    m = config.signature_size
    specs: dict[str, MethodSpec] = {}

    specs["SC"] = MethodSpec("sc", {"signature_size": m})
    for radius in config.rsc_radii:
        specs[f"RSC-{radius / 1000:g}"] = MethodSpec(
            "rsc", {"signature_size": m, "radius": radius}
        )

    specs["W4M"] = MethodSpec("w4m", {"k": config.k_anonymity})
    specs["GLOVE"] = MethodSpec("glove", {"k": config.k_anonymity})
    specs["KLT"] = MethodSpec(
        "klt",
        {
            "k": config.k_anonymity,
            "l_diversity": config.l_diversity,
            "t_closeness": config.t_closeness,
        },
    )

    generative = {"epsilon": config.epsilon, "seed": config.seed}
    specs["DPT"] = MethodSpec("dpt", generative)
    specs["AdaTrace"] = MethodSpec("adatrace", generative)

    specs["PureG"] = MethodSpec(
        "pureg", config.model_params(config.epsilon / 2.0)
    )
    specs["PureL"] = MethodSpec(
        "purel", config.model_params(config.epsilon / 2.0)
    )
    specs["GL"] = MethodSpec("gl", config.model_params())
    return specs


def our_model_specs(config: ExperimentConfig) -> dict[str, MethodSpec]:
    """Just the frequency-based models (for the ε sweep of Figure 4)."""
    return {
        "PureG": MethodSpec("pureg", config.model_params()),
        "PureL": MethodSpec("purel", config.model_params()),
        "GL": MethodSpec("gl", config.model_params()),
    }

