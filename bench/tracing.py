"""Spans and counts at each layer's public entry points.

`install` wraps the layers' entry points from outside the package:
nothing under src/ is changed.  While the tracer is active, each
wrapped call records a span (name, start, end, parent) and counts at the
same boundary; a layer's self time is a span's duration minus the time
its child spans cover, summed over the layer's spans.  While it is not
active the wrappers only pass the call through, so harness work between
operations (copying inputs, checking answers) is never counted.

poset calls are too many to keep one by one: they are counted and timed
at the outermost poset call only (a comparison of products calls the
factors' comparisons, which are counted but not timed apart), and kept
as aggregates.  Other spans are kept in memory up to SPAN_CAP and
written out with the result.
"""

import collections
import json
import time

SPAN_CAP = 200_000

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []  # [child time, span id] of each open span
        self.spans = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self.next_id = 1
        self.count = collections.Counter()
        self.self_s = collections.Counter()
        self.total_s = collections.Counter()
        self.in_posets = False
        self.atom_pairs = set()

    def span(self, name, fn, note=None):
        """Wrap fn in a span called name; note(args, result) adds counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else 0
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(name, frame, parent, start, end)
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _close(self, name, frame, parent, start, end):
        dur = end - start
        if self.stack:
            self.stack[-1][0] += dur
        self.count[name] += 1
        self.self_s[name] += dur - frame[0]
        self.total_s[name] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], parent, name, start, end))
        else:
            self.dropped += 1

    def poset_call(self, name, fn):
        """Count every call; time only the outermost poset call."""
        tracer = self

        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            tracer.count[name] += 1
            if tracer.in_posets:
                return fn(*args)
            tracer.in_posets = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - start
                tracer.in_posets = False
                if tracer.stack:
                    tracer.stack[-1][0] += dur
                tracer.self_s["posets"] += dur

        return wrapper

    def write(self, path, extra: dict):
        doc = dict(extra)
        doc["spans_dropped"] = self.dropped
        doc["span_fields"] = ["id", "parent", "name", "start", "end"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer):
    """Wrap the public entry points of every layer; returns an undo function."""
    from mcdsolve import antichains, cli, dp, modellang, posets, uncertainty

    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # posets: comparison, meet, membership
    for cls in (posets.RealPlus, posets.FinitePoset, posets.ProductPoset):
        patch(cls, "leq", tracer.poset_call("posets.leq", cls.leq))
        patch(cls, "meet", tracer.poset_call("posets.meet", cls.meet))
    patch(posets.Poset, "check_member",
          tracer.poset_call("posets.check_member", posets.Poset.check_member))

    # antichains: construction minimises the front
    ac_init = antichains.Antichain.__init__

    def antichain_init(self, poset, points=()):
        points = list(points)
        ac_init(self, poset, points)
        tracer.count["antichains.points_in"] += len(points)
        tracer.count["antichains.kept"] += len(self.points)

    patch(antichains.Antichain, "__init__", tracer.span("antichains.build", antichain_init))

    # dp: atoms, composition, loops
    def atom_note(args, result):
        tracer.atom_pairs.add((args[0], args[1]))

    def catalogue_note(args, result):
        atom_note(args, result)
        tracer.count["dp.catalogue_rows_scanned"] += len(args[0].entries)

    for cls, name, note in (
        (dp.Catalogue, "dp.catalogue", catalogue_note),
        (dp.IdentityDP, "dp.atom_other", atom_note),
        (dp.ConstantResource, "dp.atom_other", atom_note),
        (dp.BottomDP, "dp.atom_other", atom_note),
        (dp.TopDP, "dp.atom_other", atom_note),
    ):
        patch(cls, "_eval", tracer.span(name, cls._eval, note))

    # maps built by relaxations (tolerance and sampled atoms) count there
    map_eval = dp.MonotoneMap._eval
    as_map = tracer.span("dp.map", map_eval, atom_note)

    def relaxation_note(args, result):
        atom_note(args, result)
        tracer.count["relaxations.points_out"] += len(result)

    as_relaxation = tracer.span("relaxations.eval", map_eval, relaxation_note)

    def monotone_map_eval(self, f):
        if self.fn.__module__ == "mcdsolve.relaxations":
            return as_relaxation(self, f)
        return as_map(self, f)

    patch(dp.MonotoneMap, "_eval", monotone_map_eval)
    patch(dp.SeriesDP, "_eval", tracer.span("dp.compose", dp.SeriesDP._eval))
    patch(dp.ParDP, "_eval", tracer.span("dp.compose", dp.ParDP._eval))

    def kleene_note(args, report):
        tracer.count["dp.kleene_iterations"] += report.iterations

    patch(dp, "kleene_solve", tracer.span("dp.kleene", dp.kleene_solve, kleene_note))

    # uncertainty: the lower/upper pair
    patch(uncertainty, "evaluate_uncertain",
          tracer.span("uncertainty.tree_build", uncertainty.evaluate_uncertain))
    solve = tracer.span("uncertainty.solve", uncertainty.solve_uncertain)
    patch(uncertainty, "solve_uncertain", solve)
    patch(cli, "solve_uncertain", solve)

    # modellang: parse, elaborate, and whole loads
    patch(modellang, "parse", tracer.span("modellang.parse", modellang.parse))
    patch(modellang, "elaborate", tracer.span("modellang.elaborate", modellang.elaborate))
    load = tracer.span("modellang.load", modellang.load_model)
    patch(modellang, "load_model", load)
    patch(cli, "load_model", load)

    # cli
    patch(cli, "main", tracer.span("cli.main", cli.main))

    def undo():
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)

    return undo


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metrics, as name -> (value, unit)."""
    c, total_s = tracer.count, tracer.total_s
    self_s = collections.defaultdict(float, tracer.self_s)
    atom_evals = (c["dp.catalogue"] + c["dp.map"] + c["dp.atom_other"]
                  + c["relaxations.eval"])
    return {
        "posets.leq_calls": (c["posets.leq"], "count"),
        "posets.check_member_calls": (c["posets.check_member"], "count"),
        "posets.self_s": (self_s["posets"], "s"),
        "antichains.builds": (c["antichains.build"], "count"),
        "antichains.points_in": (c["antichains.points_in"], "count"),
        "antichains.kept_ratio": (
            c["antichains.kept"] / c["antichains.points_in"] if c["antichains.points_in"] else 1.0,
            "ratio"),
        "antichains.self_s": (self_s["antichains.build"], "s"),
        "dp.atom_evals": (atom_evals, "count"),
        "dp.atom_evals_distinct_ratio": (
            len(tracer.atom_pairs) / atom_evals if atom_evals else 1.0, "ratio"),
        "dp.catalogue_evals": (c["dp.catalogue"], "count"),
        "dp.catalogue_rows_scanned": (c["dp.catalogue_rows_scanned"], "count"),
        "dp.catalogue_self_s": (self_s["dp.catalogue"], "s"),
        "dp.map_evals": (c["dp.map"], "count"),
        "dp.map_self_s": (self_s["dp.map"], "s"),
        "dp.compose_evals": (c["dp.compose"], "count"),
        "dp.compose_self_s": (self_s["dp.compose"], "s"),
        "dp.kleene_solves": (c["dp.kleene"], "count"),
        "dp.kleene_iterations": (c["dp.kleene_iterations"], "count"),
        "dp.kleene_self_s": (self_s["dp.kleene"], "s"),
        "relaxations.evals": (c["relaxations.eval"], "count"),
        "relaxations.points_out": (c["relaxations.points_out"], "count"),
        "relaxations.self_s": (self_s["relaxations.eval"], "s"),
        "uncertainty.solves": (c["uncertainty.solve"], "count"),
        "uncertainty.tree_builds": (c["uncertainty.tree_build"], "count"),
        "uncertainty.tree_build_s": (float(total_s["uncertainty.tree_build"]), "s"),
        "modellang.loads": (c["modellang.load"], "count"),
        "modellang.parse_s": (float(total_s["modellang.parse"]), "s"),
        "modellang.elaborate_s": (float(total_s["modellang.elaborate"]), "s"),
        "cli.self_s": (self_s["cli.main"], "s"),
    }
