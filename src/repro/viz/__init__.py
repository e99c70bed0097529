"""Visualisation: dependency-free SVG maps and charts.

Exports load on first use, so the community palette the text tables
name their colours from comes without the map renderers.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "COMMUNITY_COLOURS": ".palette",
    "MapProjection": ".map_render",
    "SvgCanvas": ".svg",
    "colour_hex": ".palette",
    "colour_name": ".palette",
    "render_candidate_map": ".map_render",
    "render_community_map": ".map_render",
    "render_dendrogram": ".dendrogram",
    "render_profile_chart": ".charts",
    "render_selected_map": ".map_render",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(_EXPORTS)
