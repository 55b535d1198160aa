"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions and constructors of each
trusskit layer named in ``SPANS`` and rebinds every module-level alias of a
wrapped function (``tower``, ``serialize`` and ``oracles`` import
``total_space`` by name, for example), so calls between layers are seen too.
``Tracer.uninstall`` puts the originals back.

A span records its name, start, end, parent span and the benchmark op that
was running.  Spans stay in memory (compact arrays) and are written once, at
the end.  Self time is a span's duration minus the time of its child spans.
Counters that need no span (``FinPoset.le`` calls, ``DeltaMap`` values
made) are plain counting wrappers.  Only calls made while a benchmark op runs
are recorded; the checks between ops call the library untraced.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

from trusskit import bundle, layout, mesh, ordinal, poset, serialize, strata, tower

# (span name, owner, attribute); an owner that is a class gets its method
# (or constructor, for "__init__") wrapped in place.
SPANS = (
    ("ordinal.enumerate_delta_maps", ordinal, "enumerate_delta_maps"),
    ("ordinal.compose_delta", ordinal, "compose_delta"),
    ("ordinal.dual_delta_to_nabla", ordinal, "dual_delta_to_nabla"),
    ("poset.FinPoset", poset.FinPoset, "__init__"),
    ("poset.FinPoset.from_covers", poset.FinPoset, "from_covers"),
    ("poset.FinPoset.covers", poset.FinPoset, "covers"),
    ("poset.FinPoset.linear_extension", poset.FinPoset, "linear_extension"),
    ("poset.PosetMap", poset.PosetMap, "__init__"),
    ("strata.hom_strata", strata, "hom_strata"),
    ("strata.fiber_over_ordinal", strata, "fiber_over_ordinal"),
    ("strata.fiber_over_map", strata, "fiber_over_map"),
    ("strata.factorization_poset", strata, "factorization_poset"),
    ("bundle.functor_table", bundle, "functor_table"),
    ("bundle.DeltaDiagram", bundle.DeltaDiagram, "__init__"),
    ("bundle.total_space", bundle, "total_space"),
    ("bundle.classify", bundle, "classify"),
    ("bundle.Labeling", bundle.Labeling, "__init__"),
    ("bundle.LabelCategory", bundle.LabelCategory, "__init__"),
    ("tower.TrussTower", tower.TrussTower, "__init__"),
    ("tower.pullback_tower", tower, "pullback_tower"),
    ("tower.compose_bordisms_audited", tower, "compose_bordisms_audited"),
    ("tower.truss_label_category", tower, "truss_label_category"),
    ("tower.pack", tower, "pack"),
    ("tower.unpack", tower, "unpack"),
    ("tower.constant_inclusion", tower, "constant_inclusion"),
    ("mesh.realize_bundle", mesh, "realize_bundle"),
    ("mesh.reg_extract", mesh, "reg_extract"),
    ("mesh.sing_extract", mesh, "sing_extract"),
    ("mesh.interpolated_heights", mesh, "interpolated_heights"),
    ("layout.layout_2truss", layout, "layout_2truss"),
    ("layout.scene_to_svg", layout, "scene_to_svg"),
    ("serialize.dumps", serialize, "dumps"),
    ("serialize.parse", serialize, "parse"),
)

COUNTERS = (
    ("poset.FinPoset.le.calls", poset.FinPoset, "le"),
    ("ordinal.DeltaMap.made", ordinal.DeltaMap, "__post_init__"),
)

def _utf8_len(text) -> int:
    return len(text.encode("utf-8"))


def _hook_finposet(extra, args, result, made):
    p = args[0]
    extra["poset.FinPoset.elements"] += len(p.elements)
    extra["poset.FinPoset.relations"] += len(p.leq)


def _hook_hom(extra, args, result, made):
    extra["strata.hom_strata.maps"] += len(result)
    extra["strata.hom_strata.made"] += made


def _hook_label_category(extra, args, result, made):
    generators = args[1] if len(args) > 1 else ()
    initial = set(result.identity.values()) | set(generators)
    extra["tower.truss_label_category.new"] += len(result.morphisms) - len(initial)
    extra["tower.truss_label_category.composes"] += len(result.compose)


def _hook_bytes(name, which):
    def hook(extra, args, result, made):
        extra[name] += _utf8_len(result if which == "result" else args[0])
    return hook


HOOKS = {
    "poset.FinPoset": _hook_finposet,
    "strata.hom_strata": _hook_hom,
    "tower.truss_label_category": _hook_label_category,
    "layout.scene_to_svg": _hook_bytes("layout.scene_to_svg.bytes", "result"),
    "serialize.dumps": _hook_bytes("serialize.dumps.bytes", "result"),
    "serialize.parse": _hook_bytes("serialize.parse.bytes", "arg"),
}

EXTRAS = (
    "poset.FinPoset.elements",
    "poset.FinPoset.relations",
    "strata.hom_strata.maps",
    "strata.hom_strata.made",
    "tower.truss_label_category.new",
    "tower.truss_label_category.composes",
    "layout.scene_to_svg.bytes",
    "serialize.dumps.bytes",
    "serialize.parse.bytes",
)


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.extra = {name: 0 for name in EXTRAS}
        self.op = -1
        # one entry per span
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, idx, fn):
        name = self.names[idx]
        hook = HOOKS.get(name)
        made_key = "ordinal.DeltaMap.made"
        counts = self.counts
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op < 0:  # library calls made by the checks are not traced
                return fn(*args, **kwargs)
            span = len(starts)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            made0 = counts[made_key]
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[span] = t1
                stack.pop()
                dur = t1 - t0
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                h0 = perf_counter()
                hook(tracer.extra, args, return_value, counts[made_key] - made0)
                if stack:
                    stack[-1][1] += perf_counter() - h0
            return return_value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))
            return
        # a module-level function: rebind it wherever trusskit imported it
        orig = getattr(owner, attr)
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "trusskit" or mod_name.startswith("trusskit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._restore.append((mod, key, orig))

    def install(self):
        for idx, (name, owner, attr) in enumerate(SPANS):
            self._patch(owner, attr, lambda fn, idx=idx: self._span(idx, fn))
        for name, owner, attr in COUNTERS:
            self._patch(owner, attr, lambda fn, name=name: self._counter(name, fn))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Raw sums; ratios are formed after summing over workers."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": dict(self.counts),
            "extra": dict(self.extra),
            "spans": len(self.span_start),
        }

    def write_spans(self, path):
        """One CSV line per span: id, name, parent id, op id, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,op,start,end\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_op[i]},{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )


# captured before any wrapping, so the cache statistics stay readable
CACHES = (
    ("bundle.total_space", bundle.total_space),
    ("strata.validate_stratum_map", strata.validate_stratum_map),
)


def cache_counts() -> dict:
    """Hits and misses of the library's two in-process caches; reading them
    costs nothing, so untraced runs record them too."""
    return {
        name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
        for name, fn in CACHES
    }
