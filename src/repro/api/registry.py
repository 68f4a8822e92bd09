"""The method table: the eleven built-in anonymizers behind one door.

Each entry maps a ``kind`` (``"gl"``, ``"adatrace"``, ...) to a
:class:`MethodInfo` holding a factory whose *signature* is the public
parameter contract of the method — :func:`build` binds a
:class:`~repro.api.spec.MethodSpec`'s params against it, so unknown
or malformed parameters fail fast with the accepted names listed.

The table is fixed: the paper's models (GL / PureG / PureL, plus the
raw ``frequency`` pipeline, the canonical kind of
:meth:`~repro.core.pipeline.FrequencyAnonymizer.spec`) and every
Table II baseline, in the order ``repro methods`` lists them.

Factories import their implementation modules lazily, so importing
``repro.api`` stays cheap and the registry itself is a leaf above
:mod:`repro.api.spec` only.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.api.spec import MethodSpec

#: Method families, for listings and engine routing: only the
#: ``frequency`` family supports the batch engine / report pipeline.
FAMILIES = ("frequency", "signature", "k-anonymity", "generative")


@dataclass(frozen=True)
class MethodInfo:
    """Registry metadata for one anonymization method."""

    kind: str
    factory: Callable[..., Any]
    summary: str
    family: str
    #: Output is synthetic — no record-level pairing with the input
    #: (Table II skips temporal-linkage/recovery metrics for these).
    synthetic: bool = False

    @property
    def signature(self) -> inspect.Signature:
        """The method's parameter contract."""
        return inspect.signature(self.factory)

    def default_params(self) -> dict[str, Any]:
        """Declared parameters and their defaults (no-default omitted)."""
        return {
            name: parameter.default
            for name, parameter in self.signature.parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }


_REGISTRY: dict[str, MethodInfo] = {}


def _builtin(
    kind: str, *, summary: str, family: str, synthetic: bool = False
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Enter the decorated factory in the table as method ``kind``."""

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        _REGISTRY[kind] = MethodInfo(kind, factory, summary, family, synthetic)
        return factory

    return decorator


def method_names() -> tuple[str, ...]:
    """Every method kind, in table order."""
    return tuple(_REGISTRY)


def method_info(kind: str) -> MethodInfo:
    """Metadata for ``kind``; raises listing the alternatives."""
    try:
        return _REGISTRY[kind.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown method {kind!r}; registered methods: "
            f"{', '.join(method_names())}"
        ) from None


def build(spec: MethodSpec | str):
    """Construct the anonymizer a spec describes.

    Accepts a :class:`MethodSpec` or a bare kind (default params).
    Parameters are validated against the factory signature before the
    factory runs, so a typo'd name fails with the accepted ones listed.
    """
    if isinstance(spec, str):
        spec = MethodSpec(spec)
    info = method_info(spec.kind)
    try:
        bound = info.signature.bind(**dict(spec.params))
    except TypeError as exc:
        accepted = ", ".join(info.signature.parameters) or "(none)"
        raise ValueError(
            f"invalid parameters for method {spec.kind!r}: {exc}; "
            f"accepted: {accepted}"
        ) from None
    return info.factory(*bound.args, **bound.kwargs)


# -- built-in methods -----------------------------------------------------------
#
# Factory signatures mirror the underlying constructors exactly; they
# are the declared public contract that tools/check_api.py snapshots
# and tests/test_api.py verifies against the classes.


@_builtin(
    "frequency",
    summary="FrequencyAnonymizer with an explicit epsilon_global/epsilon_local"
    " split (the engine's canonical payload)",
    family="frequency",
)
def _frequency(
    epsilon_global: float | None = 0.5,
    epsilon_local: float | None = 0.5,
    signature_size: int = 10,
    seed: int | None = None,
):
    from repro.core.pipeline import FrequencyAnonymizer

    return FrequencyAnonymizer(
        epsilon_global=epsilon_global,
        epsilon_local=epsilon_local,
        signature_size=signature_size,
        seed=seed,
    )


@_builtin(
    "gl",
    summary="GL: global + local frequency randomization, eps split evenly"
    " (the paper's full model)",
    family="frequency",
)
def _gl(
    epsilon: float = 1.0,
    signature_size: int = 10,
    seed: int | None = None,
):
    from repro.core.pipeline import GL

    return GL(
        epsilon=epsilon,
        signature_size=signature_size,
        seed=seed,
    )


@_builtin(
    "pureg",
    summary="PureG: global TF randomization only (eps = eps_G)",
    family="frequency",
)
def _pureg(
    epsilon: float = 0.5,
    signature_size: int = 10,
    seed: int | None = None,
):
    from repro.core.pipeline import PureG

    return PureG(
        epsilon=epsilon,
        signature_size=signature_size,
        seed=seed,
    )


@_builtin(
    "purel",
    summary="PureL: local PF randomization only (eps = eps_L)",
    family="frequency",
)
def _purel(
    epsilon: float = 0.5,
    signature_size: int = 10,
    seed: int | None = None,
):
    from repro.core.pipeline import PureL

    return PureL(
        epsilon=epsilon,
        signature_size=signature_size,
        seed=seed,
    )


@_builtin(
    "sc",
    summary="SC: drop every signature location (signature-closure baseline)",
    family="signature",
)
def _sc(signature_size: int = 10):
    from repro.baselines.signature_closure import SignatureClosure

    return SignatureClosure(signature_size=signature_size)


@_builtin(
    "rsc",
    summary="RSC-alpha: drop all points within a radius of any signature"
    " location",
    family="signature",
)
def _rsc(signature_size: int = 10, radius: float = 1000.0):
    from repro.baselines.signature_closure import RadiusSignatureClosure

    return RadiusSignatureClosure(signature_size=signature_size, radius=radius)


@_builtin(
    "w4m",
    summary="W4M: (k, delta)-anonymity via trajectory clustering",
    family="k-anonymity",
)
def _w4m(
    k: int = 5,
    delta: float = 300.0,
    band: int = 32,
    prefilter_factor: int = 4,
):
    from repro.baselines.w4m import W4M

    return W4M(k=k, delta=delta, band=band, prefilter_factor=prefilter_factor)


@_builtin(
    "glove",
    summary="GLOVE: k-anonymity via spatiotemporal generalization",
    family="k-anonymity",
)
def _glove(k: int = 5, cell_size: float = 500.0, time_window: float = 1800.0):
    from repro.baselines.glove import Glove

    return Glove(k=k, cell_size=cell_size, time_window=time_window)


@_builtin(
    "klt",
    summary="KLT: k-anonymity + l-diversity + t-closeness generalization",
    family="k-anonymity",
)
def _klt(
    k: int = 5,
    l_diversity: int = 3,
    t_closeness: float = 0.1,
    n_categories: int = 8,
    cell_size: float = 500.0,
    time_window: float = 1800.0,
):
    from repro.baselines.klt import KLT

    return KLT(
        k=k,
        l_diversity=l_diversity,
        t_closeness=t_closeness,
        n_categories=n_categories,
        cell_size=cell_size,
        time_window=time_window,
    )


@_builtin(
    "dpt",
    summary="DPT: DP synthesis via hierarchical-reference Markov models",
    family="generative",
    synthetic=True,
)
def _dpt(
    epsilon: float = 1.0,
    grid: int = 24,
    order: int = 1,
    sampling_interval: float = 186.0,
    seed: int | None = None,
):
    from repro.baselines.dpt import DPT

    return DPT(
        epsilon=epsilon,
        grid=grid,
        order=order,
        sampling_interval=sampling_interval,
        seed=seed,
    )


@_builtin(
    "adatrace",
    summary="AdaTrace: utility-aware DP trajectory synthesis",
    family="generative",
    synthetic=True,
)
def _adatrace(
    epsilon: float = 1.0,
    top_grid: int = 6,
    refine_factor: int = 2,
    refine_threshold: float = 0.02,
    sampling_interval: float = 186.0,
    seed: int | None = None,
):
    from repro.baselines.adatrace import AdaTrace

    return AdaTrace(
        epsilon=epsilon,
        top_grid=top_grid,
        refine_factor=refine_factor,
        refine_threshold=refine_threshold,
        sampling_interval=sampling_interval,
        seed=seed,
    )
