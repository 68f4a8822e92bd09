"""Dependency-free SVG rendering of networks, trajectories, datasets."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.viz.svg": ("SvgCanvas", "render_comparison", "render_fleet"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
