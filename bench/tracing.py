"""Per-layer spans and counts, recorded by wrapping minkpack's public functions.

Nothing inside ``src/`` is changed: `Tracer.install` replaces each layer
function in the module namespaces that call it with a timing wrapper and
`Tracer.uninstall` puts the originals back.  Spans (name, start, end,
parent) and counters live in memory and are written as one JSON file at
the end of the run.

`ConvexDisc.gauge_many` is the one exception to "one span per call": the
pentagon search calls it ~10^5 times per disc, so its calls are folded
into the enclosing span (time, calls, vectors) instead of being recorded
one by one.  They still count as child time of that span.
"""

from __future__ import annotations

import json
import os
import weakref
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans = []  # [name, start, end, parent index or -1, child seconds]
        self.stack = []
        self.counts = defaultdict(float)
        self.self_s = defaultdict(float)
        self._saved = []
        self.packings = {}  # id -> weakref of each packing seen by the contact layer

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, perf_counter() - self.t0, 0.0, parent, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def _exit(self, rec):
        rec[2] = perf_counter() - self.t0
        self.stack.pop()
        dur = rec[2] - rec[1]
        self.self_s[rec[0]] += dur - rec[4]
        if rec[3] >= 0:
            self.spans[rec[3]][4] += dur

    def span(self, fn, name, after=None):
        """Wrap fn so each call is a span; after(tracer, result, args) adds counts."""
        tracer = self
        name_of = name if callable(name) else (lambda args: name)

        def wrapper(*args, **kwargs):
            rec = tracer._enter(name_of(args))
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if after is not None:
                after(tracer, res, args)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, fn, name):
        """Wrap a hot leaf: time, calls and vectors are added to the enclosing span."""
        tracer = self

        def wrapper(*args, **kwargs):
            t = perf_counter()
            res = fn(*args, **kwargs)
            dt = perf_counter() - t
            owner = tracer.spans[tracer.stack[-1]] if tracer.stack else None
            tracer.self_s[name] += dt
            tracer.counts[name + ".calls"] += 1
            tracer.counts[name + ".vectors"] += res.size
            if owner is not None:
                owner[4] += dt
                tracer.counts[owner[0] + ".gauge_vectors"] += res.size
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def install(self, mp):
        """Wrap every traced layer function of the minkpack package `mp`."""
        cli, ext, geo, pk = mp.cli, mp.extremal, mp.geometry, mp.packing

        self.patch(geo.ConvexDisc, "gauge_many",
                   self.leaf(geo.ConvexDisc.gauge_many, "geometry.gauge"))

        delta = self.span(ext.max_triangle_area, "extremal.delta")
        for mod in (ext, cli, pk):
            self.patch(mod, "max_triangle_area", delta)
        self.patch(ext, "max_kgon_area", self.span(
            ext.max_kgon_area, lambda args: "extremal.f%d" % args[1]))
        for attr in ("max_triangle_candidates", "max_parallelogram_candidates",
                     "max_hexagon_candidates"):
            self.patch(pk, attr, self.span(getattr(pk, attr), "extremal.candidates"))

        for attr in ("six_neighbour_lattice", "four_neighbour_lattice",
                     "three_neighbour_honeycomb", "mixed_strip_packing"):
            wrapped = self.span(getattr(pk, attr), "packing.generate", _count_centers)
            self.patch(pk, attr, wrapped)
            self.patch(cli, attr, wrapped)

        validate = self.span(pk.validate_packing, "contact.validate", _count_validate)
        graph = _cached_call(self, pk.neighbour_graph, "contact.graph",
                             lambda p: "graph" in p._cache, _count_graph)
        subdivision = _cached_call(self, pk.build_subdivision, "subdivision",
                                   lambda p: ("subdivision", None) in p._cache,
                                   _count_subdivision)
        stats = self.span(pk.measure_stats, "stats", _count_stats)
        for mod in (pk, cli):
            self.patch(mod, "validate_packing", validate)
            self.patch(mod, "neighbour_graph", graph)
            self.patch(mod, "build_subdivision", subdivision)
            self.patch(mod, "measure_stats", stats)

        self.patch(cli, "save_packing", self.span(pk.save_packing, "io.save", _count_bytes))
        self.patch(cli, "save_disc", self.span(geo.save_disc, "io.save"))
        self.patch(cli, "load_packing", self.span(pk.load_packing, "io.load"))
        self.patch(cli, "load_disc", self.span(geo.load_disc, "io.load"))
        self.patch(cli, "theorem_lower_bound", self.span(mp.bounds.theorem_lower_bound, "bounds"))
        self.patch(cli, "main", self.span(cli.main, "cli"))

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics; times and counts are per round unless named otherwise."""
        s, c = self.self_s, self.counts
        r = float(max(rounds, 1))
        packings = max(c["contact.packings"], 1.0)
        stats_calls = c["stats.calls"]
        pairs = c["contact.pairs_checked"]
        out = {
            "geometry.gauge_calls": (c["geometry.gauge.calls"] / r, "count"),
            "geometry.gauge_vectors": (c["geometry.gauge.vectors"] / r, "count"),
            "geometry.gauge_s": (s["geometry.gauge"] / r, "s"),
            "extremal.delta_s": (s["extremal.delta"] / r, "s"),
            "extremal.f4_s": (s["extremal.f4"] / r, "s"),
            "extremal.f5_s": (s["extremal.f5"] / r, "s"),
            "extremal.f6_s": (s["extremal.f6"] / r, "s"),
            "extremal.f5_gauge_vectors": (c["extremal.f5.gauge_vectors"] / r, "count"),
            "extremal.candidates_s": (s["extremal.candidates"] / r, "s"),
            "packing.generate_s": (s["packing.generate"] / r, "s"),
            "packing.centers": (c["packing.centers"] / r, "count"),
            "contact.validate_s": (s["contact.validate"] / r, "s"),
            "contact.graph_s": (s["contact.graph"] / r, "s"),
            "contact.passes": (c["contact.passes"] / packings, "count"),
            "contact.pairs_checked": (pairs / r, "count"),
            "contact.edges": (c["contact.edges"] / r, "count"),
            "contact.touch_ratio": (c["contact.edges"] / pairs if pairs else 0.0, "ratio"),
            "subdivision.s": (s["subdivision"] / r, "s"),
            "subdivision.faces": (c["subdivision.faces"] / r, "count"),
            "subdivision.boundary_faces": (c["subdivision.boundary_faces"] / r, "count"),
            "subdivision.half_edges": (c["subdivision.half_edges"] / r, "count"),
            "stats.s_per_radius": (s["stats"] / stats_calls if stats_calls else 0.0, "s"),
            "stats.calls": (stats_calls / r, "count"),
            "io.save_s": (s["io.save"] / r, "s"),
            "io.load_s": (s["io.load"] / r, "s"),
            "io.packing_bytes": (c["io.packing_bytes"] / r, "bytes"),
            "bounds.s": (s["bounds"] / r, "s"),
            "cli.self_s": (s["cli"] / r, "s"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}

    def write(self, path: str, meta: dict, metrics: dict) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        doc = dict(meta)
        doc["spans"] = [[n, round(a, 9), round(b, 9), p] for n, a, b, p, _ in self.spans]
        doc["counts"] = dict(self.counts)
        doc["self_s"] = dict(self.self_s)
        doc["metrics"] = metrics
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _cached_call(tracer, fn, name, is_cached, after):
    """Span for a packing-cached function; a call answered from the cache gets no counts."""
    inner = tracer.span(fn, name)

    def wrapper(p, *args, **kwargs):
        hit = not args and not kwargs and is_cached(p)
        res = inner(p, *args, **kwargs)
        if not hit:
            after(tracer, res, (p,) + args)
        return res

    wrapper.__wrapped__ = fn
    return wrapper


def _count_centers(tracer, p, args):
    tracer.counts["packing.centers"] += len(p.centers)


def _count_validate(tracer, rep, args):
    tracer.counts["contact.passes"] += 1
    tracer.counts["contact.pairs_checked"] += rep["pairs_checked"]
    _note_packing(tracer, args[0])


def _count_graph(tracer, g, args):
    tracer.counts["contact.passes"] += 1
    tracer.counts["contact.edges"] += len(g.edges)
    _note_packing(tracer, args[0])


def _note_packing(tracer, p):
    # ids of dead packings are reused, so forget each id when its packing dies
    if id(p) not in tracer.packings:
        tracer.packings[id(p)] = weakref.ref(p, lambda _, key=id(p): tracer.packings.pop(key, None))
        tracer.counts["contact.packings"] += 1


def _count_subdivision(tracer, sub, args):
    tracer.counts["subdivision.faces"] += len(sub.faces)
    tracer.counts["subdivision.boundary_faces"] += int(sub.boundary.sum())
    tracer.counts["subdivision.half_edges"] += int(sub.sides.sum())


def _count_stats(tracer, st, args):
    tracer.counts["stats.calls"] += 1


def _count_bytes(tracer, _res, args):
    tracer.counts["io.packing_bytes"] += os.path.getsize(args[1])
