"""The benchmark's three workloads: seeded inputs and the checked op sequences.

Every workload draws its inputs from fixed pools.  A pool is a finite list of
items per *slot*; a slot fixes the cost-relevant shape of an input (tower
depth and top-space size, ordinal sizes, oracle family stratum), so that every
round of a workload has the same size profile whatever the seed.  The seed
chooses which pool items fill the slots of each round and in which order.
Because the pools are finite, the canonical outputs of every item can be
recorded once (``record.py``) and compared by digest on every run.

A task runs one or more ops through a ``Recorder``: each op is timed on its
own, then checked against its law and, where it has canonical output, against
the recorded digest.  Checks run outside the op timings.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter
from time import perf_counter

import trusskit as tk
from trusskit import oracles
from tracing import cache_counts

LABEL_NAMES = ("a", "b", "c")


def digest(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:12]


class Recorder:
    """Times ops, collects their checks and compares digests.

    ``reference`` maps ``"<task id>/<op>"`` to a digest; with ``reference``
    None the recorder collects digests instead (recording mode).
    """

    def __init__(self, reference, tracer=None):
        self.reference = reference
        self.tracer = tracer
        self.speed = None  # a speed.Speed normalizing the op times
        self.ops = []  # [task id, op name, raw s, ok], then normalized s (speed.py)
        self.recorded = {}
        self.mismatches = []
        self.audits = []
        self.caches = {name: {"hits": 0, "misses": 0} for name in cache_counts()}

    def call(self, task_id, name, fn, *args):
        if self.speed is not None and self.speed.due():
            self.speed.close()
        op_id = len(self.ops)
        if self.tracer is not None:
            self.tracer.op = op_id
        c0 = cache_counts()
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.op = -1
            for cache, counts in cache_counts().items():
                for k, v in counts.items():
                    self.caches[cache][k] += v - c0[cache][k]
            self.ops.append([task_id, name, dt, False])
        self.ops[-1][3] = True
        return out

    def check(self, ok, canonical=None):
        """Attach the law check (and the digest of the canonical output, if
        any) to the last op."""
        op = self.ops[-1]
        if canonical is not None:
            key = f"{op[0]}/{op[1]}"
            got = digest(canonical)
            if self.reference is None:
                self.recorded[key] = got
            elif self.reference.get(key) != got:
                self.mismatches.append(key)
                ok = False
        op[3] = op[3] and bool(ok)
        return op[3]


class Task:
    """One input with its op sequence.  ``items`` counts the output items the
    task contributes when all of its ops pass."""

    id = ""
    items = 0

    def run(self, rec: Recorder):
        """Run and check the ops; may return {"id", "size"}, a point of the
        workload's scaling curve (the worker adds the op times)."""
        raise NotImplementedError


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _pick(seed, slot, pool_size, count):
    """Seeded distinct pool indices for one slot across the rounds of a run."""
    idx = list(range(pool_size))
    _rng("pick", seed, slot).shuffle(idx)
    return idx[:count]


def _rounds(name, slots, seed, rounds):
    """Fill the given round numbers from the slot pools.  Slot entries are
    (slot name, per-round count, pool).  Pool items are never repeated
    within a run, so rounds past the smallest pool's capacity are dropped.
    Returns [(round number, tasks)]."""
    capacity = min(len(pool) // per_round for _, per_round, pool in slots)
    rounds = [r for r in rounds if r < capacity]
    top = max(rounds) + 1 if rounds else 0
    out = {r: [] for r in rounds}
    for slot, per_round, pool in slots:
        chosen = _pick(seed, f"{name}/{slot}", len(pool), per_round * top)
        for r in rounds:
            out[r].extend(pool[i] for i in chosen[r * per_round:(r + 1) * per_round])
    for r in rounds:
        _rng("order", seed, name, r).shuffle(out[r])
    return [(r, out[r]) for r in rounds]


# ---------------------------------------------------------------------------
# large-towers


def _levels(x):
    """Root element and per-stage strata of an iterated total-space element."""
    strata = []
    while isinstance(x, tuple):
        strata.append(x[1])
        x = x[0]
    return x, strata[::-1]


def _weight(root, flags, root_w, weights) -> int:
    """A monotone integer function on the total space: the root weight on the
    upper end of the arrow plus the weights of the regular levels.  Both the
    root projection and "this level is regular" are monotone, so any
    nonnegative combination is."""
    v = root_w if root == "1" else 0
    return v + sum(w for w, f in zip(weights, flags) if f)


def _element_weight(x, root_w, weights) -> int:
    root, strata = _levels(x)
    return _weight(root, [e.is_regular for e in strata], root_w, weights)


def _random_values(rng, a, b):
    return tuple(sorted(rng.randint(0, b) for _ in range(a + 1)))


class TowerSpec:
    """Pure data for one tower or bordism: per stage, a functor on a chain
    pulled back along a monotone weight, so every stage is functorial."""

    def __init__(self, kind, stages, label_w, constant=None):
        self.kind = kind  # "point" or "arrow"
        self.stages = stages  # [(root_w, weights, ordinals, map values)]
        self.label_w = label_w  # (root_w, weights)
        self.constant = constant  # (ordinals or map values, label) for constant_inclusion

    def key(self):
        return repr((self.kind, self.stages, self.label_w, self.constant))


def _top_size(kind, stages):
    roots = ("pt",) if kind == "point" else ("0", "1")
    groups = Counter({(r, ()): 1 for r in roots})
    for root_w, weights, ords, _ in stages:
        nxt = Counter()
        for (root, flags), c in groups.items():
            o = ords[_weight(root, flags, root_w, weights)]
            nxt[(root, flags + (True,))] += c * (o + 1)
            nxt[(root, flags + (False,))] += c * o
        groups = nxt
    return sum(groups.values())


def _tower_shape(rng, kind, depth, lo, hi, max_ord):
    """Per stage (root weight, level weights, chain ordinals), with the top
    space inside [lo, hi].  The shape fixes the size and most of the cost."""
    while True:
        shape = []
        for k in range(depth):
            weights = tuple(rng.randint(0, 1) for _ in range(k))
            root_w = rng.randint(0, 1) if kind == "arrow" else 0
            h = root_w + sum(weights)
            ords = tuple(rng.randint(0 if k else 1, max_ord) for _ in range(h + 1))
            shape.append((root_w, weights, ords, ()))
        if lo <= _top_size(kind, shape) <= hi:
            return shape


def _tower_spec(rng, kind, shape):
    """A tower of the given shape with seeded chain maps and labels."""
    stages = [
        (root_w, weights, ords,
         tuple(_random_values(rng, ords[j], ords[j + 1]) for j in range(len(ords) - 1)))
        for root_w, weights, ords, _ in shape
    ]
    label_w = (1 if kind == "arrow" else 0, tuple(rng.randint(0, 1) for _ in shape))
    return TowerSpec(kind, stages, label_w)


def _constant_shape(rng, kind, depth, lo, hi, max_ord):
    """Ordinals (over the point) or (source, target) pairs (over the arrow)."""
    while True:
        if kind == "point":
            shape = tuple(rng.randint(1, max_ord) for _ in range(depth))
            size = 1
            for n in shape:
                size *= 2 * n + 1
        else:
            shape = tuple((rng.randint(0, max_ord), rng.randint(0, max_ord)) for _ in range(depth))
            s0 = s1 = 1
            for a, b in shape:
                s0 *= 2 * a + 1
                s1 *= 2 * b + 1
            size = s0 + s1
        if lo <= size <= hi:
            return shape


def _constant_spec(rng, kind, shape):
    if kind == "point":
        data = tuple(rng.sample(shape, len(shape)))
        label = rng.choice(LABEL_NAMES)
    else:
        data = tuple((a, b, _random_values(rng, a, b)) for a, b in shape)
        lo_label = rng.randrange(len(LABEL_NAMES))
        hi_label = rng.randrange(lo_label, len(LABEL_NAMES))
        label = f"{LABEL_NAMES[lo_label]}<={LABEL_NAMES[hi_label]}"
    return TowerSpec(kind, [], None, constant=(data, label))


class TowerTask(Task):
    """Build a tower or bordism, then dumps, parse, (end restriction and
    compose with that end's identity | layout and SVG at depth 2), pack and
    unpack."""

    def __init__(self, task_id, spec, end):
        self.id = task_id
        self.spec = spec
        self.end = end
        self.kind = spec.kind
        self.items = 0
        self.cat = None

    def prepare(self, cat):
        """Turn the spec into library inputs (ordinals, maps, chain composites)."""
        self.cat = cat
        spec = self.spec
        if spec.constant is not None:
            data, self.label = spec.constant
            if spec.kind == "point":
                self.data = [tk.Ordinal(n) for n in data]
            else:
                self.data = [tk.DeltaMap(a, b, vs) for a, b, vs in data]
            return self
        self.stage_inputs = []
        for root_w, weights, ords, maps in spec.stages:
            o = [tk.Ordinal(n) for n in ords]
            chain = [tk.DeltaMap(ords[j], ords[j + 1], vs) for j, vs in enumerate(maps)]
            comp = {}
            for i in range(len(o)):
                f = tk.DeltaMap.identity(o[i])
                comp[(i, i)] = f
                for j in range(i, len(chain)):
                    f = tk.compose_delta(f, chain[j])
                    comp[(i, j + 1)] = f
            self.stage_inputs.append((root_w, weights, o, comp))
        return self

    def build(self):
        if self.spec.constant is not None:
            return tk.constant_inclusion(self.data, self.label, self.cat)
        cur = tk.point_poset() if self.kind == "point" else tk.arrow_poset()
        base = cur
        stages = []
        for root_w, weights, o, comp in self.stage_inputs:
            w = {x: _element_weight(x, root_w, weights) for x in cur.elements}
            d = tk.DeltaDiagram(
                cur,
                {x: o[w[x]] for x in cur.elements},
                {(u, v): comp[(w[u], w[v])] for (u, v) in cur.covers()},
            )
            stages.append(d)
            cur = tk.total_space(d).carrier
        root_w, weights = self.spec.label_w
        obj = {x: LABEL_NAMES[min(_element_weight(x, root_w, weights), 2)] for x in cur.elements}
        rel = {(u, v): f"{obj[u]}<={obj[v]}" for (u, v) in cur.covers()}
        labels = tk.Labeling(cur, self.cat, obj, rel)
        cls = tk.TrussTower if self.kind == "point" else tk.Bordism
        return cls(base, stages, labels)

    def _compose_with_identity(self, t, e):
        ident = tk.identity_bordism(e)
        if self.end == 1:
            return tk.compose_bordisms_audited(t, ident)
        return tk.compose_bordisms_audited(ident, t)

    def _layout(self, t):
        return tk.scene_to_svg(tk.layout_2truss(t))

    def run(self, rec):
        i = self.id
        t = rec.call(i, "build", self.build)
        top = len(t.top.elements)
        rec.check(t.depth >= 1)
        text = rec.call(i, "dumps", tk.dumps, t)
        rec.check(True, text)
        back = rec.call(i, "parse", tk.parse, text)
        rec.check(back == t and tk.dumps(back) == text)
        if self.kind == "arrow":
            e = rec.call(i, "restrict", tk.restrict_bordism, t, self.end)
            rec.check(e.base == tk.point_poset(), tk.dumps(e))
            composite, audit = rec.call(i, "compose", self._compose_with_identity, t, e)
            rec.audits.append(audit)
            rec.check(composite == t, f"{audit.crossings} {audit.alternatives}")
        elif t.depth == 2:
            svg = rec.call(i, "layout", self._layout, t)
            # one region, wire or node per top element, except regular
            # strata over singular levels
            drawn = sum(1 for x, e in t.top.elements if x[1].is_regular or not e.is_regular)
            rec.check(svg.count("\n  <") == drawn, svg)
        packed = rec.call(i, "pack", tk.pack, t)
        rec.check(packed.depth == t.depth - 1, tk.dumps(packed))
        back = rec.call(i, "unpack", tk.unpack, packed)
        rec.check(back == t)
        self.items = top
        return {"id": i, "size": top}


# slot name, kind, depth, top-space band, largest ordinal, constant_inclusion?
TOWER_SLOTS = (
    ("p2-16", "point", 2, 14, 18, 3, False),
    ("b2-30", "arrow", 2, 26, 34, 2, False),
    ("c3-45", "point", 3, 45, 45, 2, True),
    ("p2-40", "point", 2, 36, 44, 3, False),
    ("p3-60", "point", 3, 54, 66, 2, False),
    ("c2-b60", "arrow", 2, 50, 70, 3, True),
    ("b3-70", "arrow", 3, 64, 76, 2, False),
    ("b2-85", "arrow", 2, 80, 90, 4, False),
    ("p3-100", "point", 3, 92, 108, 2, False),
)
TOWER_POOL = 12


def tower_pool(slot):
    """Distinct specs of one shape for one slot; the pool index fixes the
    spec.  A slot may hold fewer than TOWER_POOL specs if its shape allows
    fewer distinct ones."""
    name, kind, depth, lo, hi, max_ord, constant = slot
    rng = _rng("large-towers", name)
    if constant:
        shape = _constant_shape(rng, kind, depth, lo, hi, max_ord)
        make = _constant_spec
    else:
        shape = _tower_shape(rng, kind, depth, lo, hi, max_ord)
        make = _tower_spec
    end = rng.randint(0, 1)  # which end a bordism restricts to and composes at
    out, seen = [], set()
    for _ in range(50 * TOWER_POOL):
        spec = make(rng, kind, shape)
        if spec.key() not in seen:
            seen.add(spec.key())
            out.append(TowerTask(f"{name}#{len(out)}", spec, end))
            if len(out) == TOWER_POOL:
                break
    return out


def large_tower_slots(seed):
    chain = tk.FinPoset.from_covers(list(LABEL_NAMES), [("a", "b"), ("b", "c")])
    cat = tk.LabelCategory.from_poset(chain)
    return [(s[0], 1, [t.prepare(cat) for t in tower_pool(s)]) for s in TOWER_SLOTS]


# ---------------------------------------------------------------------------
# desk-oracles

FAMILY_SEEDS = 4


class LawTask(Task):
    """One law check of an oracle family as one op; ``items`` counts the
    equations it checks."""

    def __init__(self, task_id, op, fn, args, items=1):
        self.id = task_id
        self.op = op
        self.fn = fn
        self.args = args
        self.items = items

    def run(self, rec):
        self.fn(rec, self.id, self.op, *self.args)
        return None


def _law_pack(rec, i, op, t):
    def roundtrip(t):
        p = tk.pack(t)
        return p, tk.unpack(p)
    packed, back = rec.call(i, op, roundtrip, t)
    rec.check(back == t, tk.dumps(packed))


def _law_identity(rec, i, op, b):
    def both(b):
        return (tk.compose_bordisms(tk.identity_bordism(b.end(0)), b),
                tk.compose_bordisms(b, tk.identity_bordism(b.end(1))))
    left, right = rec.call(i, op, both, b)
    rec.check(left == b and right == b)


def _law_assoc(rec, i, op, b1, b2, b3):
    def both(b1, b2, b3):
        left = tk.compose_bordisms_audited(tk.compose_bordisms(b1, b2), b3)
        right = tk.compose_bordisms_audited(b1, tk.compose_bordisms(b2, b3))
        return left, right
    (left, al), (right, ar) = rec.call(i, op, both, b1, b2, b3)
    rec.audits.extend((al, ar))
    rec.check(left == right, f"{al.crossings} {al.alternatives} {ar.crossings} {ar.alternatives}")


def _law_classify(rec, i, op, d):
    def roundtrip(d):
        return tk.classify(tk.total_space(d))
    rec.check(rec.call(i, op, roundtrip, d) == d)


def _law_mesh(rec, i, op, d):
    def extract(d):
        m = tk.realize_bundle(d)
        return m, tk.reg_extract(m), tk.sing_extract(m)
    m, reg, sing = rec.call(i, op, extract, d)
    ok = reg == d and all(
        sing.arrow[cov] == tk.dual_delta_to_nabla(d.arrow[cov]) == m.sing[cov]
        for cov in d.base.covers()
    )
    rec.check(ok, tk.dumps(m))


TRIPLE_POOL = 800
DIAGRAM_POOL = 2700


def desk_pools(fam):
    """Slots of the desk-oracles workload for one family seed."""
    towers = [t for t in oracles.tower_family(fam) if t.depth >= 1]
    bordisms = oracles.bordism_family(fam)
    triples = oracles.composable_triples(bordisms, TRIPLE_POOL, random.Random(fam))
    diagrams = [d for p in oracles.all_posets(3) for d in oracles.all_diagrams(p, 2)]
    # disjoint samples, so no diagram is an input twice in a run
    chosen = _rng("desk-oracles", "diagrams").sample(range(len(diagrams)), 2 * DIAGRAM_POOL)
    halves = {"classify": chosen[:DIAGRAM_POOL], "mesh": chosen[DIAGRAM_POOL:]}
    pools = {"pack-large": [], "pack-small": [], "identity": [], "assoc": [],
             "classify": [], "mesh": []}
    for j, t in enumerate(towers):
        large = t.depth == 2 and len(t.top.elements) > 9
        pools["pack-large" if large else "pack-small"].append(
            LawTask(f"f{fam}/tower{j}", "pack", _law_pack, (t,)))
    for j, b in enumerate(bordisms):
        pools["identity"].append(
            LawTask(f"f{fam}/bordism{j}", "identity", _law_identity, (b,), items=2))
    for j, tr in enumerate(triples):
        pools["assoc"].append(LawTask(f"f{fam}/triple{j}", "assoc", _law_assoc, tr))
    for j in sorted(halves["classify"]):
        pools["classify"].append(LawTask(f"diagram{j}", "classify", _law_classify, (diagrams[j],)))
    for j in sorted(halves["mesh"]):
        pools["mesh"].append(LawTask(f"diagram{j}", "mesh", _law_mesh, (diagrams[j],)))
    return pools


# slot, law checks per round
DESK_SLOTS = (
    ("pack-large", 3),
    ("pack-small", 1),
    ("identity", 2),
    ("assoc", 6),
    ("classify", 24),
    ("mesh", 24),
)


def desk_slots(seed):
    """The oracle families are built for ``seed mod FAMILY_SEEDS``, so that
    every item a run can draw has a recorded digest."""
    pools = desk_pools(seed % FAMILY_SEEDS)
    return [(s, k, pools[s]) for s, k in DESK_SLOTS]


# ---------------------------------------------------------------------------
# strata-enum


def hom_count(x, y) -> int:
    """|hom(x, y)| counted independently of the library: weakly increasing
    sequences v_0 <= ... <= v_n in [0, m] with the stratum constraint at
    index i (regular: v_i = j; singular: v_i <= j and v_(i+1) >= j, or > j
    into a singular target), by dynamic programming over positions."""
    n, m, i, j = x.n, y.n, x.index, y.index
    lo, hi = [0] * (n + 1), [m] * (n + 1)
    if x.is_regular:
        if not y.is_regular:
            return 0
        lo[i] = hi[i] = j
    else:
        hi[i] = min(hi[i], j)
        lo[i + 1] = max(lo[i + 1], j if y.is_regular else j + 1)
    ways = [1 if lo[0] <= v <= hi[0] else 0 for v in range(m + 1)]
    for k in range(1, n + 1):
        acc, nxt = 0, []
        for v in range(m + 1):
            acc += ways[v]
            nxt.append(acc if lo[k] <= v <= hi[k] else 0)
        ways = nxt
    return sum(ways)


class HomTask(Task):
    def __init__(self, task_id, x, y):
        self.id, self.x, self.y = task_id, x, y

    def run(self, rec):
        maps = rec.call(self.id, "hom", tk.hom_strata, self.x, self.y)
        values = [m.underlying.values for m in maps]
        ok = (values == sorted(set(values)) and len(maps) == hom_count(self.x, self.y)
              and all(m.src == self.x and m.dst == self.y for m in maps))
        rec.check(ok, "\n".join(str(m) for m in maps))
        self.items = len(maps)


def _poset_text(p) -> str:
    key = tk.element_key
    return "\n".join(
        [" ".join(key(e) for e in p.elements)]
        + [f"{key(a)} < {key(b)}" for a, b in p.covers()]
    )


def _tagged_key(el):
    tag, s = el
    return f"{tag}:{s}"


class FiberTask(Task):
    def __init__(self, task_id, over):
        self.id, self.over = task_id, over

    def run(self, rec):
        if isinstance(self.over, int):
            n = self.over
            p = rec.call(self.id, "fiber", tk.fiber_over_ordinal, n)
            want = sorted(
                [(tk.Stratum.singular(i, n), tk.Stratum.regular(i, n)) for i in range(n)]
                + [(tk.Stratum.singular(i, n), tk.Stratum.regular(i + 1, n)) for i in range(n)],
                key=lambda c: (c[0].sort_key(), c[1].sort_key()),
            )
            ok = len(p.elements) == 2 * n + 1 and list(p.covers()) == want
            rec.check(ok, _poset_text(p))
        else:
            a = self.over
            p = rec.call(self.id, "fiber-map", tk.fiber_over_map, a)
            ok = len(p.elements) == 2 * (a.src.n + a.dst.n) + 2
            rec.check(ok, "\n".join(
                [" ".join(_tagged_key(e) for e in p.elements)]
                + [f"{_tagged_key(u)} < {_tagged_key(v)}" for u, v in p.covers()]))
        self.items = len(p.elements)
        # the scaling curve of this workload: fiber_over_ordinal against n
        return {"id": self.id, "size": self.items} if isinstance(self.over, int) else None


class FactorTask(Task):
    """Every factorization poset over one composable triangle (alpha, beta)."""

    def __init__(self, task_id, alpha, beta):
        self.id, self.alpha, self.beta = task_id, alpha, beta

    def _instances(self, alpha, beta):
        h = tk.compose_delta(alpha, beta)
        out = []
        for x in tk.strata.fiber_objects(alpha.src.n):
            for z in tk.strata.fiber_objects(beta.dst.n):
                if tk.validate_stratum_map(x, z, h):
                    out.append(tk.factorization_poset(x, z, tk.StratumMap(x, z, h), alpha, beta))
        return out

    def run(self, rec):
        posets = rec.call(self.id, "factor", self._instances, self.alpha, self.beta)
        ok = all(p.elements and p.is_connected() for p in posets)
        rec.check(ok, "\n--\n".join(_poset_text(p) for p in posets))
        self.items = len(posets)


def _hom_pool(ns, ms, size, typical):
    """``size`` stratum pairs over the given ambients; with ``typical``, the
    pairs whose hom-set size is closest to the median nonempty one, so that
    every item of the slot emits about as many maps as it filters."""
    pairs = [
        (x, y)
        for n in ns for x in tk.strata.fiber_objects(n)
        for m in ms for y in tk.strata.fiber_objects(m)
    ]
    _rng("strata-enum", "hom", ns, ms).shuffle(pairs)
    if typical:
        counts = {p: hom_count(*p) for p in pairs}
        nonzero = sorted(c for c in counts.values() if c)
        median = nonzero[len(nonzero) // 2]
        pairs = sorted((p for p in pairs if counts[p]), key=lambda p: abs(math.log(counts[p] / median)))
    return [HomTask(f"hom/{x}/{y}", x, y) for x, y in pairs[:size]]


def _fiber_pool(lo, hi):
    return [FiberTask(f"fiber/{n}", n) for n in range(lo, hi + 1)]


def _fiber_map_pool(name, lo, hi, size):
    rng = _rng("strata-enum", name)
    out = []
    for k in range(size):
        n, m = rng.randint(lo, hi), rng.randint(lo, hi)
        a = tk.DeltaMap(n, m, _random_values(rng, n, m))
        out.append(FiberTask(f"{name}/{k}", a))
    return out


def _factor_pool(max_ordinal, size):
    """A fixed sample of the composable triangles up to the ordinal bound."""
    triangles = [
        (alpha, beta)
        for a, b, c in itertools.product(range(max_ordinal + 1), repeat=3)
        for alpha in tk.enumerate_delta_maps(a, b)
        for beta in tk.enumerate_delta_maps(b, c)
    ]
    chosen = sorted(_rng("strata-enum", "factor").sample(range(len(triangles)), size))
    return [
        FactorTask(f"factor/{list(alpha.values)}@{alpha.dst.n}/{list(beta.values)}@{beta.dst.n}",
                   alpha, beta)
        for alpha, beta in (triangles[j] for j in chosen)
    ]


def strata_slots(seed):
    """(slot, tasks per round, pool); the pools do not depend on the seed."""
    slots = [
        ("fiber-s", 2, _fiber_pool(25, 56)),
        ("fiber-m", 1, _fiber_pool(110, 125)),
        ("fiber-l", 1, _fiber_pool(200, 215)),
        ("fiber-map-s", 2, _fiber_map_pool("fiber-map-s", 18, 22, 32)),
        ("fiber-map-l", 1, _fiber_map_pool("fiber-map-l", 92, 98, 16)),
        ("factor", 40, _factor_pool(3, 800)),
    ]
    # hom sets cost C(n+m+1, n+1) maps filtered whatever the strata, so a
    # slot fixes the ambient ordinals (n, m) and the seed picks the strata
    for ns, ms, per_round, size in (
        ((0, 1, 2, 3), (0, 1, 2, 3), 8, 160), ((3,), (4,), 2, 32), ((4,), (6,), 3, 48),
        ((5,), (7,), 2, 32), ((6,), (8,), 2, 32), ((7,), (9,), 1, 16), ((8,), (9,), 1, 16),
    ):
        name = f"hom-{ns[-1]}-{ms[-1]}"
        slots.append((name, per_round, _hom_pool(ns, ms, size, typical=len(ns) == 1)))
    return slots


SLOTS = {
    "large-towers": large_tower_slots,
    "desk-oracles": desk_slots,
    "strata-enum": strata_slots,
}


# Normalized op time of one round at the seed commit; a run of --seconds S
# runs about S / ROUND_S rounds, the same ones for the same seed.
ROUND_S = {
    "large-towers": 3.4,
    "desk-oracles": 0.16,
    "strata-enum": 1.9,
}


def make_rounds(name, seed, rounds):
    """The inputs of the given rounds of one run: [(round number, tasks)]."""
    return _rounds(name, SLOTS[name](seed), seed, rounds)


def all_tasks(name):
    """Every pool item a run of the workload can draw, for recording."""
    seeds = range(FAMILY_SEEDS) if name == "desk-oracles" else (0,)
    seen = set()
    for seed in seeds:
        for _, _, pool in SLOTS[name](seed):
            for task in pool:
                key = (task.id, type(task).__name__, getattr(task, "op", ""))
                if key not in seen:
                    seen.add(key)
                    yield task
