"""Span tracing of pt_horizon from outside the package.

`Tracer` replaces, for the duration of a `with` block, the public functions
each module calls with wrappers that record one span per call, at the name
the caller looks up (`topology` calls `segments.factor_positive_mask`, so the
attribute of `segments` is wrapped; `topology` calls `eval_w` through its own
namespace, so `topology.eval_w` is wrapped).  Nothing under `src/` is edited
and every original is put back on exit.

A span is `[name, start, end, parent, thread_id, attrs, overhead]`.  Spans
live in one list per thread; `parent` is the index of the enclosing span in
the same list, or -1.  `overhead` is the wrapper's own time outside
`[start, end]` (making the span, the attribute hooks); `layer_metrics` takes
it out of every enclosing span and turns the spans into the per-layer numbers.
"""
from __future__ import annotations

import functools
import gzip
import json
import threading
import time
import types

import numpy as np

PHASES = ("axis", "r2", "rescue")

def is_seconds(metric: str) -> bool:
    """Per-layer metrics in seconds vary run to run; all others are counts."""
    return metric.endswith(("_s", ".s"))


def segment_phase(p0, p1, step) -> str:
    """Phase of a batch from its first segment's offset in grid steps.

    One axis step is `axis`, a Chebyshev offset of at most 2 is `r2`, and
    anything larger is `rescue`.  Every call from topology carries a single
    offset, so the first row stands for the batch.
    """
    k = np.abs(np.rint((p1[0] - p0[0]) / step))
    if k.sum() == 1:
        return "axis"
    return "r2" if k.max() <= 2 else "rescue"


class Tracer:
    """Record spans around pt_horizon's inter-module calls while installed."""

    def __init__(self):
        self._threads = []          # per-thread span lists, in creation order
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []            # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "spans"):
            st.spans, st.stack = [], []
            st.step = None          # grid step of the labelling in progress
            st.phase = None         # phase of the latest segment batch
            st.batch = {}           # factor -> (p0, ok) of the current triple
            with self._lock:
                self._threads.append((threading.get_ident(), st.spans))
        return st

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            st = tracer._state()
            rec = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1,
                   threading.get_ident(), None, 0.0]
            st.spans.append(rec)
            st.stack.append(len(st.spans) - 1)
            if before is not None:
                before(st, args)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                st.stack.pop()
            if after is not None:
                rec[5] = after(st, args, out)
            rec[6] = rec[1] - t_in + time.perf_counter() - rec[2]
            return out
        return wrapper

    def _wrap_generator(self, name, fn):
        """Span from the first item to exhaustion; attrs hold bytes written."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def consume():
                # not pushed on the stack: the consumer runs between items
                st = tracer._state()
                rec = [name, time.perf_counter(), 0.0,
                       st.stack[-1] if st.stack else -1, threading.get_ident(), None, 0.0]
                st.spans.append(rec)
                nbytes = 0
                try:
                    for line in inner:
                        nbytes += len(line) + 1
                        yield line
                finally:
                    rec[2] = time.perf_counter()
                    rec[5] = {"bytes": nbytes}
            return consume()
        return wrapper

    # -- per-call attributes -------------------------------------------

    @staticmethod
    def _box_step(st, args):
        box = args[0]
        st.step = np.array([(r[1] - r[0]) / box.resolution
                            for r in (box.a_range, box.b_range, box.c_range)])
        st.phase = None

    @staticmethod
    def _slice_step(st, args):
        spec = args[0].spec
        step = {spec.fixed_axis: 1.0}   # the fixed axis never moves
        for axis, rng in ((spec.u_axis, spec.u_range), (spec.v_axis, spec.v_range)):
            step[axis] = (rng[1] - rng[0]) / spec.resolution
        st.step = np.array([step["a"], step["b"], step["c"]])
        st.phase = None

    @staticmethod
    def _factor_attrs(st, args, out):
        name, p0, p1 = args[0], args[1], args[2]
        ok = out[0]
        n = len(ok)
        attrs = {"factor": name, "n": n, "accepted": int(np.count_nonzero(ok))}
        if n:
            attrs["phase"] = st.phase = segment_phase(p0, p1, st.step)
        if name == "W":
            attrs["w_plane"] = int(np.count_nonzero((p0[:, 1] == 0.0) & (p1[:, 1] == 0.0)))
        # topology tests W, Q, P in turn on the same arrays; by the time P
        # returns, W's mask holds its final (REAL_ONLY-relaxed) verdicts
        st.batch[name] = (p0, ok)
        if name == "P":
            w, q = st.batch.get("W"), st.batch.get("Q")
            if w is not None and q is not None and w[0] is p0 and q[0] is p0:
                attrs["linked"] = int(np.count_nonzero(w[1] & q[1] & ok))
            st.batch = {}
        return attrs

    @staticmethod
    def _points(st, args, out):
        return {"points": int(np.size(out))}

    @staticmethod
    def _labelling_attrs(st, args, out):
        return {"n": int(out[0]), "phase": st.phase}

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        from pt_horizon import cli, oracle as orc, segments as seg, svgrender as svg, topology as topo
        w = self._wrap
        self._patch(seg, "factor_positive_mask",
                    w("segments.factor_positive_mask", seg.factor_positive_mask,
                      after=self._factor_attrs))
        self._patch(seg, "segment_minimum",
                    w("segments.segment_minimum", seg.segment_minimum))
        self._patch(seg, "exact_positive_on_segment",
                    w("segments.exact_positive_on_segment", seg.exact_positive_on_segment,
                      after=lambda st, a, out: {"factor": a[0]}))
        for short in ("eval_w", "eval_q", "eval_p"):
            self._patch(topo, short, w("model." + short, getattr(topo, short), after=self._points))
        # trace_boundary evaluates through this table, bound at import time
        self._patch(topo, "_FACTOR_EVAL",
                    {f: w("model." + fn.__name__, fn, after=self._points)
                     for f, fn in topo._FACTOR_EVAL.items()})
        self._patch(orc, "real_spectrum_batch",
                    w("oracle.real_spectrum_batch", orc.real_spectrum_batch,
                      after=lambda st, a, out: {"points": int(len(a[0]))}))
        csgraph = topo.csgraph
        proxy = types.SimpleNamespace(**{k: getattr(csgraph, k) for k in dir(csgraph)
                                         if not k.startswith("__")})
        proxy.connected_components = w("topology.connected_components",
                                       csgraph.connected_components,
                                       after=self._labelling_attrs)
        self._patch(topo, "csgraph", proxy)
        self._patch(topo, "components3d",
                    w("topology.components3d", topo.components3d, before=self._box_step))
        self._patch(topo, "components2d",
                    w("topology.components2d", topo.components2d, before=self._slice_step))
        self._patch(topo, "sample_slice", w("topology.sample_slice", topo.sample_slice))
        self._patch(topo, "thread_count",
                    w("topology.thread_count", topo.thread_count,
                      after=lambda st, a, out: {"threads": out}))
        self._patch(svg, "trace_boundary", w("topology.trace_boundary", svg.trace_boundary))
        self._patch(cli, "slice_csv_lines",
                    self._wrap_generator("cli.slice_csv_lines", cli.slice_csv_lines))
        self._patch(cli, "render_slice_svg",
                    w("svgrender.render_slice_svg", cli.render_slice_svg,
                      after=lambda st, a, out: {"bytes": len(out)}))

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- output ----------------------------------------------------------

    def thread_spans(self):
        with self._lock:
            return list(self._threads)

    def write(self, path):
        """Write every span as gzipped JSON: [{"thread": id, "spans": [...]}]."""
        payload = [{"thread": tid, "spans": spans} for tid, spans in self.thread_spans()]
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and seconds from the recorded spans.

    Times are sums over threads.  A span's time is its duration less the
    tracer's overhead in the spans below it; self time is that less the time
    of its direct children, computed within its own thread.
    """
    m = {k: 0 for k in (
        "segments.calls", "segments.segs", "segments.float_s", "segments.exact_s",
        "segments.w_plane", "topology.label_s", "topology.boundary_s",
        "topology.self_s", "model.eval_points", "model.eval_s", "oracle.points",
        "oracle.s", "cli.csv_s", "cli.csv_bytes", "cli.threads", "svgrender.svg_s",
        "svgrender.svg_bytes")}
    for f in ("W", "Q", "P"):
        for k in ("tested", "accepted", "exact"):
            m[f"segments.{f}.{k}"] = 0
    for ph in PHASES:
        m[f"segments.{ph}.tested"] = m[f"segments.{ph}.linked"] = 0
        m[f"segments.{ph}.s"] = 0.0
        m[f"topology.{ph}.components"] = 0

    for _, spans in tracer.thread_spans():
        # a child starts after its parent, so walking backwards sums each
        # span's subtree before its parent needs it
        below = [0.0] * len(spans)          # overhead of the wrappers below
        for i in range(len(spans) - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0:
                below[parent] += below[i] + spans[i][6]
        net = [t1 - t0 - below[i] for i, (_, t0, t1, *_rest) in enumerate(spans)]
        child_time = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child_time[span[3]] += net[i]
        labelling = {}   # index of a components2d/3d span -> [(phase, n), ...]
        for i, (name, _, _, parent, _, attrs, _) in enumerate(spans):
            dur = net[i]
            self_s = dur - child_time[i]
            if name.startswith("topology."):   # scipy labelling included
                m["topology.self_s"] += self_s
            if name == "segments.factor_positive_mask":
                f = attrs["factor"]
                m["segments.calls"] += 1
                m["segments.segs"] += attrs["n"]
                m[f"segments.{f}.tested"] += attrs["n"]
                m[f"segments.{f}.accepted"] += attrs["accepted"]
                m["segments.w_plane"] += attrs.get("w_plane", 0)
                if "phase" in attrs:
                    m[f"segments.{attrs['phase']}.s"] += dur
                    if "linked" in attrs:
                        m[f"segments.{attrs['phase']}.tested"] += attrs["n"]
                        m[f"segments.{attrs['phase']}.linked"] += attrs["linked"]
            elif name == "segments.segment_minimum":
                m["segments.float_s"] += dur
            elif name == "segments.exact_positive_on_segment":
                m["segments.exact_s"] += dur
                m[f"segments.{attrs['factor']}.exact"] += 1
            elif name.startswith("model."):
                m["model.eval_points"] += attrs["points"]
                m["model.eval_s"] += dur
            elif name == "oracle.real_spectrum_batch":
                m["oracle.points"] += attrs["points"]
                m["oracle.s"] += dur
            elif name == "topology.connected_components":
                top = parent
                while top >= 0 and spans[top][0] not in ("topology.components2d",
                                                         "topology.components3d"):
                    top = spans[top][3]
                labelling.setdefault(top, []).append((attrs["phase"], attrs["n"]))
            elif name in ("topology.components2d", "topology.components3d"):
                m["topology.label_s"] += dur
            elif name == "topology.trace_boundary":
                m["topology.boundary_s"] += dur
            elif name == "topology.thread_count":
                m["cli.threads"] = max(m["cli.threads"], attrs["threads"])
            elif name == "cli.slice_csv_lines":
                m["cli.csv_s"] += dur
                m["cli.csv_bytes"] += attrs["bytes"]
            elif name == "svgrender.render_slice_svg":
                m["svgrender.svg_s"] += self_s
                m["svgrender.svg_bytes"] += attrs["bytes"]
        for calls in labelling.values():
            # the first labelling follows the axis pass; a later one belongs to
            # the phase of the segments tested just before it; a phase that
            # added no candidates keeps the previous count
            counts = {"axis": calls[0][1]}
            for phase, n in calls[1:]:
                counts[phase] = n
            counts.setdefault("r2", counts["axis"])
            counts.setdefault("rescue", counts["r2"])
            for ph in PHASES:
                m[f"topology.{ph}.components"] += counts[ph]

    m["segments.batch_mean"] = m["segments.segs"] / m["segments.calls"] if m["segments.calls"] else 0.0
    del m["segments.segs"]
    return m
