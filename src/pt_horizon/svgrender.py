"""Minimal SVG rendering of slice grids: one rect per inside cell plus
boundary polylines (W solid, Q dashed, P dotted).  No plotting dependency."""
from __future__ import annotations

from .topology import SliceGrid, trace_boundary

_STYLES = {
    "W": 'stroke="#000000"',
    "Q": 'stroke="#B03030" stroke-dasharray="6,4"',
    "P": 'stroke="#3050B0" stroke-dasharray="1.5,3"',
}


WIDTH = 720  # pixels; the height follows the window's aspect


def render_slice_svg(grid: SliceGrid) -> str:
    spec = grid.spec
    u0, u1 = spec.u_range
    v0, v1 = spec.v_range
    scale = WIDTH / (u1 - u0)
    height = (v1 - v0) * scale

    def sx(u):
        return (u - u0) * scale

    def sy(v):
        return (v1 - v) * scale  # flip: SVG y grows downward

    res = spec.resolution
    hu = (u1 - u0) / res
    hv = (v1 - v0) / res
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {WIDTH:.0f} {height:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        '<g fill="#7fb2d9" stroke="none">',
    ]
    ii, jj = grid.membership.nonzero()
    w_cell = hu * scale
    h_cell = hv * scale
    # x depends on i only and y on j only: format each once, join per cell
    heads = [f'<rect x="{sx(u - hu / 2):.2f}" y="' for u in grid.u.tolist()]
    tails = [f'{sy(v + hv / 2):.2f}" width="{w_cell:.2f}" height="{h_cell:.2f}"/>'
             for v in grid.v.tolist()]
    parts.extend(heads[i] + tails[j] for i, j in zip(ii.tolist(), jj.tolist()))
    parts.append("</g>")
    for name, style in _STYLES.items():
        curves = trace_boundary(grid, name)
        parts.append(f'<g fill="none" {style} stroke-width="1.2">')
        for curve in curves:
            pts = " ".join(f"{sx(u):.2f},{sy(v):.2f}" for u, v in curve.polyline)
            tag = "polygon" if curve.closed else "polyline"
            parts.append(f'<{tag} points="{pts}"/>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
