"""The benchmark's three workloads: seeded inputs, operations, checks.

Each workload is built from a seed by its constructor (the part that
`setup_s` times), then runs in rounds.  Round r's operations depend
only on the seed and r, and every round has the same make-up, so the
share of failed queries is the same in every run.  `run(op)` is the
timed part; `check(op, answer)` and `check_round` run outside it.

Solver entry points are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

import contextlib
import io
import random

from mcdsolve import cli, examples, modellang, oracle, uncertainty
from mcdsolve.dp import Catalogue, Loop, Par, Series

import checks


def _rng(seed: int, r: int) -> random.Random:
    return random.Random("%d/%d" % (seed, r))


def _check_result(queries: int, failed: int, problems: list):
    return {"queries": queries, "failed": failed, "problems": problems}


# --- uav_sweep -----------------------------------------------------------------


class SweepCommand:
    """One `mcdsolve sweep` on the drone model, and the queries it makes."""

    def __init__(self, kind, percent, query, values, flag, label):
        self.kind = kind  # "endurance", "tolerance", "relax" or "far"
        self.percent = percent
        self.query = query  # fixed axes; endurance too unless swept
        self.values = values  # swept endurances, tolerances or sample counts
        self.flag = flag
        self.label = label
        self.axis_values = kind in ("endurance", "far")

    def query_at(self, value) -> dict:
        if self.axis_values:
            return dict(self.query, endurance=value)
        return self.query

    def argv(self, path) -> list:
        fixed = ["--f=%s=%r" % (k, v) for k, v in self.query.items()
                 if not (self.axis_values and k == "endurance")]
        return ["sweep", path] + self.flag + fixed


def _endurance_sweep(kind, percent, query, e_from, e_to, steps, label):
    values = [e_from + i * (e_to - e_from) / (steps - 1) for i in range(steps)]
    flag = ["--axis", "endurance", "--from", repr(e_from), "--to", repr(e_to),
            "--steps", str(steps)]
    return SweepCommand(kind, percent, query, values, flag, label)


class UavSweep:
    """`mcdsolve sweep` commands on the drone model, in-process via cli.main."""

    name = "uav_sweep"
    PERCENTS = (5, 10, 25)
    TOLERANCES = (40.0, 20.0, 10.0, 5.0)  # dyadic, so each grid refines the last
    ROUTE_NS = (2, 8, 32)
    # the kept fault: a distance beyond 150 * 150 km makes every row raise
    FAR = {"distance": 30000.0, "payload": 300.0, "missions": 200}
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.texts = {p: examples.uav_model_text(p) for p in self.PERCENTS}
        for p, text in self.texts.items():
            model, diags = modellang.load_model(text)
            if model is None:
                raise RuntimeError("uav model at %d%% does not elaborate: %s" % (p, diags))
        self.battery = examples.battery_entries()
        self.paths = {}

    def prepare(self, workdir):
        for p, text in self.texts.items():
            path = workdir / ("uav_%d.mcd" % p)
            path.write_text(text, encoding="utf-8")
            self.paths[p] = str(path)

    def round(self, r: int) -> list:
        """Fixed strata of uncertainty, mission level, payload and
        endurance; the seed jitters each value by up to 2 %, so that
        every round costs about the same."""
        rng = _rng(self.seed, r)

        def jitter(value, digits=3):
            return round(value * rng.uniform(0.98, 1.02), digits)

        def query(payload, missions, endurance=None):
            q = {"distance": jitter(20.0), "payload": jitter(payload, 1), "missions": missions}
            if endurance is not None:
                q["endurance"] = jitter(endurance)
            return q

        ops = []
        for percent, missions, payload in ((5, 200, 200.0), (10, 1000, 300.0), (25, 200, 400.0)):
            e_from, e_to = jitter(0.5), jitter(3.0)
            ops.append(_endurance_sweep("endurance", percent, query(payload, missions),
                                        e_from, e_to, 5, "r%d endurance %d%%" % (r, percent)))
        ops.append(SweepCommand(
            "tolerance", 10, query(300.0, 200, 1.0), list(self.TOLERANCES),
            ["--tolerance", "actuation=" + ",".join(repr(a) for a in self.TOLERANCES)],
            "r%d tolerance" % r))
        ops.append(SweepCommand(
            "relax", 10, query(300.0, 1000, 1.0), list(self.ROUTE_NS),
            ["--relax-n", "route=" + ",".join(str(n) for n in self.ROUTE_NS)],
            "r%d relax-n" % r))
        ops.append(_endurance_sweep("far", 10, dict(self.FAR), 0.5, 3.0, 4, "r%d far" % r))
        return ops

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv(self.paths[op.percent]))
        return rc, out.getvalue()

    def check(self, op, answer):
        return _check_result(*checks.check_uav_command(op, self.battery, *answer))

    def check_round(self, ops, answers) -> list:
        return []

    def planted(self, ops, answers) -> dict:
        return checks.planted_uav(ops[0], self.battery, answers[0][1])


# --- split_fine ----------------------------------------------------------------


class SplitQuery:
    def __init__(self, demand: float, n: int):
        self.demand = demand
        self.n = n


class SplitFine:
    """power_split with the split atom rebuilt at fine sample counts."""

    name = "split_fine"
    LADDER = (20, 40, 80, 160, 256)
    DEMANDS = (2.0, 5.0, 10.0, 20.0, 40.0)  # W
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        text = examples.example_path("power_split").read_text(encoding="utf-8")
        self.model, diags = modellang.load_model(text)
        if self.model is None:
            raise RuntimeError("power_split does not elaborate: %s" % diags)

    def prepare(self, workdir):
        pass

    def round(self, r: int) -> list:
        """One demand, from the strata in turn, jittered by up to 2 %."""
        base = self.DEMANDS[r % len(self.DEMANDS)]
        demand = round(base * _rng(self.seed, r).uniform(0.98, 1.02), 3)
        return [SplitQuery(demand, n) for n in self.LADDER]

    def run(self, op):
        uval = self.model.override_relaxation("split", op.n)
        f = self.model.build_query({"demand": op.demand})
        return uncertainty.solve_uncertain(self.model.term, uval, f)

    @staticmethod
    def _plain(sol):
        return list(sol.lower.front.points), list(sol.upper.front.points), sol.verdict

    def check(self, op, sol):
        return _check_result(1, 0, checks.check_split(op.demand, op.n, *self._plain(sol)))

    def check_round(self, ops, answers) -> list:
        lowers = [(op.n, list(sol.lower.front.points)) for op, sol in zip(ops, answers)]
        return checks.check_split_ladder(ops[0].demand, lowers)

    def planted(self, ops, answers) -> dict:
        return checks.planted_split(ops[0].demand, ops[0].n, *self._plain(answers[0]))


# --- finite_loops --------------------------------------------------------------


def _has_loop(term) -> bool:
    if isinstance(term, Loop):
        return True
    if isinstance(term, (Series, Par)):
        return _has_loop(term.left) or _has_loop(term.right)
    return False


def _fresh(uval: dict) -> dict:
    """Same intervals on new catalogue objects, so nothing keyed by an
    atom's identity carries over from one query to the next."""

    def copy(dp):
        return Catalogue(dp.funsp, dp.ressp, dp.entries) if isinstance(dp, Catalogue) else dp

    return {k: uncertainty.UncertainDP(copy(u.lower), copy(u.upper)) for k, u in uval.items()}


class FiniteQuery:
    def __init__(self, index: int, instance, f, uval):
        self.index = index
        self.instance = instance
        self.f = f
        self.uval = uval


class FiniteLoops:
    """Random loop instances over finite, non-chain posets, via the library."""

    name = "finite_loops"
    POOL = 400  # instances, each queried at every functionality element
    trace_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.pool = []
        while len(self.pool) < self.POOL:
            inst = oracle.random_instance(rng, depth=3)
            if not _has_loop(inst.term):
                continue
            uval, _ = oracle.random_ordered_uvaluation(rng, inst.valuation)
            uncertainty.evaluate_uncertain(inst.term, uval)  # build the DP trees
            self.pool.append((inst, uval))
        self.refs = None

    def prepare(self, workdir):
        """Brute-force references and order tables, outside all timing."""
        self.refs = []
        for inst, uval in self.pool:
            sides = []
            for side in ("lower", "upper"):
                valuation = {k: getattr(u, side) for k, u in uval.items()}
                sides.append(oracle.brute_compose(
                    oracle.FiniteInstance(inst.term, valuation, inst.queries)))
            rsp = oracle.term_spaces(inst.term, inst.valuation)[1]
            self.refs.append((
                {f: frozenset(a.points) for f, a in sides[0].items()},
                {f: frozenset(a.points) for f, a in sides[1].items()},
                checks.order_table(rsp),
                rsp.bottom(),
            ))

    def round(self, r: int) -> list:
        return [
            FiniteQuery(i, inst, f, _fresh(uval))
            for i, (inst, uval) in enumerate(self.pool)
            for f in inst.queries
        ]

    def run(self, op):
        return uncertainty.solve_uncertain(op.instance.term, op.uval, op.f)

    def _args(self, op, sol):
        ref_lo, ref_hi, table, _ = self.refs[op.index]
        return (ref_lo[op.f], ref_hi[op.f], table,
                frozenset(sol.lower.front.points), frozenset(sol.upper.front.points),
                sol.verdict)

    def check(self, op, sol):
        where = "finite_loops instance %d f=%r" % (op.index, op.f)
        return _check_result(1, 0, checks.check_finite(
            *self._args(op, sol), sol.converged, where))

    def check_round(self, ops, answers) -> list:
        return []

    def planted(self, ops, answers) -> dict:
        for op, sol in zip(ops, answers):
            if sol.lower.front != sol.upper.front:
                return checks.planted_finite(*self._args(op, sol), self.refs[op.index][3])
        return {}


WORKLOADS = {w.name: w for w in (UavSweep, SplitFine, FiniteLoops)}
