"""The string-keyed method registry: every anonymizer behind one door.

Each entry maps a ``kind`` (``"gl"``, ``"adatrace"``, ...) to a
:class:`MethodInfo` holding a factory whose *signature* is the public
parameter contract of the method — :func:`build` binds a
:class:`~repro.api.spec.MethodSpec`'s params against it, so unknown
or malformed parameters fail fast with the accepted names listed.

Built-in registrations cover the paper's models (GL / PureG / PureL,
plus the raw ``frequency`` pipeline, the canonical kind of
:meth:`~repro.core.pipeline.FrequencyAnonymizer.spec`) and every
Table II baseline. Third-party
packages can plug in via the ``repro.methods`` entry-point group:
each entry point is loaded on first registry miss (or listing) and
may either call :func:`register` itself at import time or simply *be*
a factory callable, which is then registered under the entry-point
name.

Factories import their implementation modules lazily, so importing
``repro.api`` stays cheap and the registry itself is a leaf above
:mod:`repro.api.spec` only.
"""

from __future__ import annotations

import inspect
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable

from repro.api.spec import MethodSpec

#: Entry-point group scanned for third-party method plugins.
ENTRY_POINT_GROUP = "repro.methods"

#: Method families, for listings and engine routing: only the
#: ``frequency`` family supports the batch engine / report pipeline.
FAMILIES = ("frequency", "signature", "k-anonymity", "generative", "plugin")


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
    #: ``"builtin"`` or ``"plugin:<entry point value>"``.
    source: str = "builtin"

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
_PLUGINS_LOADED = False
#: Guards the one-shot plugin scan: the serving daemon's job threads
#: call :func:`build` concurrently (each new spec builds an engine),
#: so concurrent first lookups must not race the scan.
_PLUGINS_LOCK = threading.Lock()
#: The thread running the scan, while it runs: a lookup made from a
#: plugin's own import sees the registry as it stands instead of
#: waiting on the lock its own thread holds.
_PLUGINS_SCANNER: int | None = None


def register(
    kind: str,
    *,
    summary: str,
    family: str,
    synthetic: bool = False,
    source: str = "builtin",
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering ``factory`` as method ``kind``.

    The factory's keyword parameters (with defaults) are the method's
    public parameter contract; it returns a configured object exposing
    ``anonymize(dataset) -> TrajectoryDataset``. Registering an
    existing kind raises unless ``replace=True``.
    """
    key = kind.strip().lower()
    if not key or not key.replace("_", "").replace("-", "").isalnum():
        raise ValueError(f"method kind must be an identifier, got {kind!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        if key in _REGISTRY and not replace:
            raise ValueError(f"method {key!r} is already registered")
        _REGISTRY[key] = MethodInfo(
            kind=key,
            factory=factory,
            summary=summary,
            family=family,
            synthetic=synthetic,
            source=source,
        )
        return factory

    return decorator


def _load_plugins() -> None:
    """Load ``repro.methods`` entry points, once, tolerating failures.

    Other threads wait for a running scan to finish, so none misses a
    plugin it is still loading. The scan is marked done even when it
    fails: it is not worth re-running on every registry miss.
    """
    global _PLUGINS_LOADED, _PLUGINS_SCANNER
    if _PLUGINS_LOADED or _PLUGINS_SCANNER == threading.get_ident():
        return
    with _PLUGINS_LOCK:
        if _PLUGINS_LOADED:
            return
        _PLUGINS_SCANNER = threading.get_ident()
        try:
            _load_plugins_locked()
        finally:
            _PLUGINS_LOADED = True
            _PLUGINS_SCANNER = None


def _load_plugins_locked() -> None:
    """The actual entry-point scan; callers hold ``_PLUGINS_LOCK``."""
    try:
        from importlib import metadata

        try:
            entry_points = metadata.entry_points(group=ENTRY_POINT_GROUP)
        except TypeError:  # pre-3.10 selectable API
            entry_points = metadata.entry_points().get(ENTRY_POINT_GROUP, ())
    except Exception:  # pragma: no cover - importlib.metadata missing
        return
    for entry_point in entry_points:
        try:
            loaded = entry_point.load()
        except Exception as exc:  # a broken plugin must not break the API
            warnings.warn(
                f"repro method plugin {entry_point.name!r} failed to load: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        if entry_point.name.lower() in _REGISTRY:
            continue  # the module registered itself at import time
        if callable(loaded):
            try:
                register(
                    entry_point.name,
                    summary=(inspect.getdoc(loaded) or "").split("\n")[0]
                    or f"plugin method {entry_point.name}",
                    family="plugin",
                    source=f"plugin:{entry_point.value}",
                )(loaded)
            except ValueError as exc:  # bad name/duplicate: skip, don't break
                warnings.warn(
                    f"repro method plugin {entry_point.name!r} rejected: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )


def method_names() -> tuple[str, ...]:
    """Every registered kind, in registration order (builtins first)."""
    _load_plugins()
    return tuple(_REGISTRY)


def method_info(kind: str) -> MethodInfo:
    """Metadata for ``kind``; raises listing the alternatives."""
    key = kind.strip().lower()
    if key not in _REGISTRY:
        _load_plugins()
    try:
        return _REGISTRY[key]
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


@register(
    "frequency",
    summary="FrequencyAnonymizer with an explicit epsilon_global/epsilon_local"
    " split (the engine's canonical payload)",
    family="frequency",
)
def _frequency(
    epsilon_global: float | None = 0.5,
    epsilon_local: float | None = 0.5,
    signature_size: int = 10,
    candidate_source: str = "incremental",
    seed: int | None = None,
):
    from repro.core.pipeline import FrequencyAnonymizer

    return FrequencyAnonymizer(
        epsilon_global=epsilon_global,
        epsilon_local=epsilon_local,
        signature_size=signature_size,
        candidate_source=candidate_source,
        seed=seed,
    )


@register(
    "gl",
    summary="GL: global + local frequency randomization, eps split evenly"
    " (the paper's full model)",
    family="frequency",
)
def _gl(
    epsilon: float = 1.0,
    signature_size: int = 10,
    candidate_source: str = "incremental",
    seed: int | None = None,
):
    from repro.core.pipeline import GL

    return GL(
        epsilon=epsilon,
        signature_size=signature_size,
        candidate_source=candidate_source,
        seed=seed,
    )


@register(
    "pureg",
    summary="PureG: global TF randomization only (eps = eps_G)",
    family="frequency",
)
def _pureg(
    epsilon: float = 0.5,
    signature_size: int = 10,
    candidate_source: str = "incremental",
    seed: int | None = None,
):
    from repro.core.pipeline import PureG

    return PureG(
        epsilon=epsilon,
        signature_size=signature_size,
        candidate_source=candidate_source,
        seed=seed,
    )


@register(
    "purel",
    summary="PureL: local PF randomization only (eps = eps_L)",
    family="frequency",
)
def _purel(
    epsilon: float = 0.5,
    signature_size: int = 10,
    candidate_source: str = "incremental",
    seed: int | None = None,
):
    from repro.core.pipeline import PureL

    return PureL(
        epsilon=epsilon,
        signature_size=signature_size,
        candidate_source=candidate_source,
        seed=seed,
    )


@register(
    "sc",
    summary="SC: drop every signature location (signature-closure baseline)",
    family="signature",
)
def _sc(signature_size: int = 10):
    from repro.baselines.signature_closure import SignatureClosure

    return SignatureClosure(signature_size=signature_size)


@register(
    "rsc",
    summary="RSC-alpha: drop all points within a radius of any signature"
    " location",
    family="signature",
)
def _rsc(signature_size: int = 10, radius: float = 1000.0):
    from repro.baselines.signature_closure import RadiusSignatureClosure

    return RadiusSignatureClosure(signature_size=signature_size, radius=radius)


@register(
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


@register(
    "glove",
    summary="GLOVE: k-anonymity via spatiotemporal generalization",
    family="k-anonymity",
)
def _glove(k: int = 5, cell_size: float = 500.0, time_window: float = 1800.0):
    from repro.baselines.glove import Glove

    return Glove(k=k, cell_size=cell_size, time_window=time_window)


@register(
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


@register(
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


@register(
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
