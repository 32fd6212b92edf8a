"""Command-line surface: classify points, export slices, count components,
sweep the figure sequence, run the identity suite, and compare spectra.

All artifacts are deterministic for fixed flags and seed; floats are written
with 17 significant digits (`FLOAT_FORMAT`) so they round-trip exactly.
Slice CSVs are streamed to their file one block of rows per u value; the
bytes are those of one row per sample.  u and v are formatted once each.
W, Q and P go through `floattext.float_fields`, a numpy kernel equal to
`FLOAT_FORMAT % x` for every double, which itself formats the values whose
rounding it cannot prove (zero, NaN, inf, extreme magnitudes, near-ties).
About `_CSV_BLOCK_ROWS` rows (whole u values) are laid out at once in a
zero-padded byte matrix, whose nonzero bytes are the text.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import identities, model, oracle, topology
from .errors import InvalidInputError, NumericalFailureError
from .floattext import FIELD_WIDTH, FLOAT_FORMAT, float_fields, text_rows
from .spectrum import sort_key
from .svgrender import render_slice_svg

DEFAULT_SWEEP_B = (
    math.sqrt(5) - 0.01,
    math.sqrt(5) - 0.5,
    math.sqrt(5) - 1.0,
    1.01,
    1.0,
    0.999,
    0.6,
    0.4,
    0.2,
    0.1,
)


CSV_HEADER = "u,v,W,Q,P,inside,component"
# Rows laid out at once by `slice_csv_lines`, rounded down to whole u values
# (at least one).  It bounds the working memory of a block, about 0.7 kB a
# row: the kernel's temporaries for three floats, the row matrix (~180 bytes,
# FIELD_WIDTH per float) and the text.  At 2^12 rows tracemalloc reads a
# 2.3-2.8 MB peak per thread at res 64, 300 and 1600.  Blocks of 2^14 rows
# read 12 MB, raised the sweep's peak RSS by 8-15 MB and were no faster.
_CSV_BLOCK_ROWS = 1 << 12


def fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-15:
        return fmt(z.real)
    return f"{fmt(z.real)}{'+' if z.imag >= 0 else '-'}{fmt(abs(z.imag))}j"


@dataclass
class RunConfig:
    subcommand: str
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    fix_axis: Optional[str] = None
    fix_value: float = 0.0
    ranges: dict = field(default_factory=dict)
    resolution: Optional[int] = None  # None: the spec's own default
    eta: float = 0.0
    mode: topology.Mode = topology.Mode.STRICT_SIMPLE
    box: bool = False
    factors: Optional[tuple] = None  # None: the box's own default
    out: Optional[str] = None
    svg: Union[str, bool, None] = None  # slice: the SVG path; sweep: whether to write SVGs
    b_list: tuple = DEFAULT_SWEEP_B
    seed: int = identities.DEFAULT_SEED
    as_json: bool = False


def _parse_fix(text: str):
    try:
        axis, value = text.split("=", 1)
        axis = axis.strip()
        value = float(value)
    except ValueError as exc:
        raise InvalidInputError(f"--fix expects axis=value, got {text!r}") from exc
    if axis not in topology.AXES:
        raise InvalidInputError(f"--fix axis must be one of a,b,c, got {axis!r}")
    if not math.isfinite(value):
        raise InvalidInputError("--fix value must be finite")
    return axis, value


def _parse_range(text: str):
    try:
        axis, rng = text.split("=", 1)
        lo, hi = rng.split(":", 1)
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise InvalidInputError(f"--range expects axis=min:max, got {text!r}") from exc
    if axis not in topology.AXES:
        raise InvalidInputError(f"--range axis must be one of a,b,c, got {axis!r}")
    return axis, (lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pt-horizon",
        description="Map where the four-site loop lattice keeps a real, "
                    "non-degenerate spectrum.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_point_flags(p):
        for axis in topology.AXES:
            p.add_argument(f"--{axis}", type=float, required=True)

    def add_grid_flags(p):
        p.add_argument("--range", action="append", default=[], metavar="AXIS=MIN:MAX")
        p.add_argument("--res", type=int, default=None,
                       help="samples per axis (default: 800 for slices, 160 for --box)")
        p.add_argument("--eta", type=float, default=0.0)
        p.add_argument("--mode", choices=["strict", "real"], default="strict")

    p = sub.add_parser("classify", help="membership verdict for one point")
    add_point_flags(p)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--mode", choices=["strict", "real"], default="strict")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectrum", help="closed-form vs oracle eigenvalues")
    add_point_flags(p)

    p = sub.add_parser("slice", help="sample one 2-D slice to CSV (and SVG)")
    p.add_argument("--fix", required=True, metavar="AXIS=VALUE")
    add_grid_flags(p)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--svg", default=None, help="optional SVG path")

    p = sub.add_parser("components", help="connected components of a slice or box")
    p.add_argument("--fix", default=None, metavar="AXIS=VALUE")
    p.add_argument("--box", action="store_true", help="full 3-D box")
    add_grid_flags(p)
    p.add_argument("--factors", default=None,
                   help="comma-separated subset of W,Q,P for --box (default: all three)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="slice sweep over a list of b values")
    p.add_argument("--b-list", default=None,
                   help="comma-separated b values (default: the figure sequence)")
    add_grid_flags(p)
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--seed", type=int, default=identities.DEFAULT_SEED)
    p.add_argument("--out", default=None)
    return parser


def config_from_args(args) -> RunConfig:
    """The run configuration of parsed flags; a field whose flag the
    subcommand lacks or leaves unset keeps `RunConfig`'s default."""
    opts = {name: value for name, value in vars(args).items() if value is not None}
    same_name = ("subcommand", "a", "b", "c", "eta", "out", "svg", "seed", "box")
    cfg = RunConfig(**{name: opts[name] for name in same_name if name in opts},
                    resolution=opts.get("res"), as_json=opts.get("json", False))
    if "mode" in opts:
        cfg.mode = topology.Mode(opts["mode"])
    if opts.get("fix"):
        cfg.fix_axis, cfg.fix_value = _parse_fix(opts["fix"])
    cfg.ranges = dict(_parse_range(spec) for spec in opts.get("range", []))
    if "factors" in opts:
        cfg.factors = tuple(f.strip().upper() for f in opts["factors"].split(",") if f.strip())
    if opts.get("b_list"):
        try:
            cfg.b_list = tuple(float(x) for x in opts["b_list"].split(","))
        except ValueError as exc:
            raise InvalidInputError(f"--b-list expects comma-separated floats") from exc
    for name in ("a", "b", "c", "eta"):
        v = getattr(cfg, name)
        if not math.isfinite(v):
            raise InvalidInputError(f"--{name} must be finite")
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(cfg: RunConfig) -> int:
    p = model.CouplingPoint(cfg.a, cfg.b, cfg.c)
    tri = model.eval_discriminants(p)
    tol = 1e-6 * (1.0 + p.norm() ** 4)
    status = {}
    for name, val in zip(("W", "Q", "P"), tri):
        if val > cfg.eta + tol:
            status[name] = "pass"
        elif val < cfg.eta - tol:
            status[name] = "fail"
        else:
            status[name] = "boundary"
    closed = model.energies(p)
    orc = oracle.eigenvalues(model.build_circular(p))
    if all(s == "pass" for s in status.values()):
        verdict = "inside"
        code = 0
    else:
        flagged = [n if status[n] == "fail" else f"{n}-boundary"
                   for n in ("W", "Q", "P") if status[n] != "pass"]
        kind = "outside" if any(s == "fail" for s in status.values()) else "boundary"
        verdict = f"{kind}({','.join(flagged)})"
        code = 1
    if cfg.mode is topology.Mode.REAL_ONLY and code == 1:
        if topology.membership(p, cfg.eta, topology.Mode.REAL_ONLY):
            verdict += " [admitted: real spectrum]"
    payload = {
        "point": {"a": cfg.a, "b": cfg.b, "c": cfg.c},
        "W": tri.W, "Q": tri.Q, "P": tri.P,
        "closed_form_energies": [[z.real, z.imag] for z in closed.values],
        "oracle_energies": [[z.real, z.imag] for z in orc.values],
        "classification": orc.classification.value,
        "verdict": verdict,
    }
    if cfg.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"W = {fmt(tri.W)}  Q = {fmt(tri.Q)}  P = {fmt(tri.P)}")
        print("closed-form energies:", "  ".join(fmt_complex(z) for z in sort_key(closed.values)))
        print("oracle energies:     ", "  ".join(fmt_complex(z) for z in sort_key(orc.values)))
        print(f"oracle classification: {orc.classification.value}")
        print(f"verdict: {verdict}")
    return code


def cmd_spectrum(cfg: RunConfig) -> int:
    p = model.CouplingPoint(cfg.a, cfg.b, cfg.c)
    closed = model.energies(p)
    orc = oracle.eigenvalues(model.build_circular(p))
    dev = float(np.max(np.abs(sort_key(closed.values) - sort_key(orc.values))))
    payload = {
        "point": {"a": cfg.a, "b": cfg.b, "c": cfg.c},
        "closed_form": [[z.real, z.imag] for z in sort_key(closed.values)],
        "oracle": [[z.real, z.imag] for z in sort_key(orc.values)],
        "closed_form_classification": closed.classification.value,
        "oracle_classification": orc.classification.value,
        "max_deviation": dev,
        "min_gap": orc.min_gap,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _resolution(cfg: RunConfig, spec_cls) -> int:
    return spec_cls.resolution if cfg.resolution is None else cfg.resolution


def _slice_spec(cfg: RunConfig, fixed_axis: str, fixed_value: float) -> topology.SliceSpec:
    fu, fv = topology.free_axes(fixed_axis)
    return topology.SliceSpec(
        fixed_axis=fixed_axis,
        fixed_value=fixed_value,
        u_range=cfg.ranges.get(fu),
        v_range=cfg.ranges.get(fv),
        resolution=_resolution(cfg, topology.SliceSpec),
        eta=cfg.eta,
        mode=cfg.mode,
    )


def _cells(texts: list, end: str) -> np.ndarray:
    """`texts` as zero-padded uint8 rows, each closed by the byte `end`."""
    rows = text_rows(texts, max(map(len, texts)) + 1)
    rows[:, -1] = ord(end)
    return rows


def _block_rows(grid: topology.SliceGrid, labels: np.ndarray, block: slice,
                v_cells: np.ndarray) -> np.ndarray:
    """The CSV rows of the u values in `block` as a (rows, width) uint8
    matrix whose nonzero bytes, row after row, are the text."""
    u_cells = _cells([fmt(u) for u in grid.u[block].tolist()], ",")
    ids, which = np.unique(labels[block], return_inverse=True)
    label_cells = _cells([str(i) for i in ids.tolist()], "\n")
    n_u, n_v = len(u_cells), len(v_cells)
    widths = np.cumsum([0, u_cells.shape[1], v_cells.shape[1],
                        3 * (FIELD_WIDTH + 1), 2, label_cells.shape[1]])
    rows = np.empty((n_u, n_v, widths[-1]), np.uint8)
    rows[:, :, widths[0]:widths[1]] = u_cells[:, None]
    rows[:, :, widths[1]:widths[2]] = v_cells
    floats = rows[:, :, widths[2]:widths[3]].reshape(n_u, n_v, 3, FIELD_WIDTH + 1)
    values = np.stack([grid.W[block], grid.Q[block], grid.P[block]], axis=-1)
    floats[..., :FIELD_WIDTH] = float_fields(values).reshape(n_u, n_v, 3, FIELD_WIDTH)
    floats[..., FIELD_WIDTH] = ord(",")
    rows[:, :, widths[3]] = grid.membership[block] + np.uint8(ord("0"))
    rows[:, :, widths[3] + 1] = ord(",")
    rows[:, :, widths[4]:] = label_cells[which.reshape(n_u, n_v)]
    return rows.reshape(n_u * n_v, -1)


def slice_csv_lines(grid: topology.SliceGrid, labels: np.ndarray):
    """The header, then one newline-joined block of rows per u value.

    `"\\n".join(items) + "\\n"` is the CSV file.  Rows run over v within a
    block.  u and v are formatted once each; W, Q and P by `float_fields`.
    The rows of about `_CSV_BLOCK_ROWS` samples (whole u values) are laid
    out at once by `_block_rows`, then split back into one block per u value.
    """
    yield CSV_HEADER
    n_v = len(grid.v)
    v_cells = _cells([fmt(v) for v in grid.v.tolist()], ",")
    step = max(1, _CSV_BLOCK_ROWS // n_v)
    for i0 in range(0, len(grid.u), step):
        # the row matrix is freed as soon as its bytes are copied out
        text = _block_rows(grid, labels, slice(i0, i0 + step), v_cells).tobytes()
        text = text.translate(None, b"\0")
        # the newline that ends each u value's last row closes its block
        ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))[n_v - 1::n_v]
        text = text.decode("ascii")
        yield from (text[a + 1:b] for a, b in zip([-1, *ends[:-1].tolist()], ends.tolist()))


def write_slice_csv(fh, grid: topology.SliceGrid, labels: np.ndarray) -> None:
    """Write the slice CSV to an open text file as its row blocks come."""
    fh.writelines(block + "\n" for block in slice_csv_lines(grid, labels))


def _run_slice(cfg: RunConfig, fixed_axis: str, fixed_value: float):
    spec = _slice_spec(cfg, fixed_axis, fixed_value)
    grid = topology.sample_slice(spec)
    report = topology.components2d(grid)
    return grid, report, report.labels


def cmd_slice(cfg: RunConfig) -> int:
    if cfg.fix_axis is None:
        raise InvalidInputError("slice requires --fix axis=value")
    grid, report, labels = _run_slice(cfg, cfg.fix_axis, cfg.fix_value)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            write_slice_csv(fh, grid, labels)
    else:
        write_slice_csv(sys.stdout, grid, labels)
    if cfg.svg:
        with open(cfg.svg, "w") as fh:
            fh.write(render_slice_svg(grid))
    print(f"# components: {report.count}", file=sys.stderr)
    return 0


def _report_payload(report: topology.ComponentReport) -> dict:
    return {
        "count": report.count,
        "lower_bound": report.lower_bound,
        "certified": report.certified,
        "components": [
            {"id": s.id, "samples": s.samples, "bbox": s.bbox, "area": s.area}
            for s in report.components
        ],
    }


def cmd_components(cfg: RunConfig) -> int:
    if cfg.box == (cfg.fix_axis is not None):
        raise InvalidInputError("components needs exactly one of --fix or --box")
    if cfg.factors is not None and not cfg.box:
        raise InvalidInputError("--factors applies to --box only; slices use W,Q,P")
    if cfg.box:
        factors = {} if cfg.factors is None else {"factors": cfg.factors}
        box = topology.BoxSpec(
            a_range=cfg.ranges.get("a", topology.DEFAULT_RANGES["a"]),
            b_range=cfg.ranges.get("b", topology.DEFAULT_RANGES["b"]),
            c_range=cfg.ranges.get("c", topology.DEFAULT_RANGES["c"]),
            resolution=_resolution(cfg, topology.BoxSpec),
            eta=cfg.eta,
            mode=cfg.mode,
            **factors,
        )
        report = topology.components3d(box)
    else:
        _, report, _ = _run_slice(cfg, cfg.fix_axis, cfg.fix_value)
    text = json.dumps(_report_payload(report), indent=2)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)

    def one(bval: float):
        local = RunConfig(subcommand="slice", resolution=cfg.resolution,
                          eta=cfg.eta, mode=cfg.mode, ranges=dict(cfg.ranges))
        grid, report, labels = _run_slice(local, "b", bval)
        stem = f"slice_b={fmt(bval)}"
        csv_path = os.path.join(cfg.out, stem + ".csv")
        with open(csv_path, "w") as fh:
            write_slice_csv(fh, grid, labels)
        if cfg.svg:
            with open(os.path.join(cfg.out, stem + ".svg"), "w") as fh:
                fh.write(render_slice_svg(grid))
        return bval, report.count

    workers = topology.thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, cfg.b_list))
    else:
        results = [one(b) for b in cfg.b_list]
    summary = {fmt(b): count for b, count in results}
    with open(os.path.join(cfg.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = identities.run_all(seed=cfg.seed)
    text = identities.report_json(results)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if identities.has_failures(results) else 0


HANDLERS = {
    "classify": cmd_classify,
    "spectrum": cmd_spectrum,
    "slice": cmd_slice,
    "components": cmd_components,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
        return HANDLERS[cfg.subcommand](cfg)
    except (InvalidInputError, NumericalFailureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())
