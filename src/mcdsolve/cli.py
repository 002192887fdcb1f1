"""Command line interface: check, solve, sweep.

Exit codes for solve: 0 feasible, 2 infeasible, 3 indeterminate, 4 when
an iteration cap stopped a loop before convergence (the printed fronts
are then lower bounds).  Usage and model errors exit 1 everywhere.
Results go to stdout only; diagnostics and errors go to stderr.  A
reader that closes stdout before a command has written all of it (as
`| head` does) ends the command with exit 1 and nothing on stderr.  A
command line builds the parser of the one subcommand it names; a line
that names none, or that this parser does not take whole, is read by the
parser of every subcommand, so usage lines, errors and help read the
same either way.
"""

import argparse
import json
import math
import os
import re
import sys

from . import uncertainty
from .dp import DEFAULT_MAX_ITER, _violating_pair
from .errors import CodesignError, DomainError
from .modellang import chain_number, load_model
from .posets import RealPlus
from .relaxations import inject_tolerance
from .uncertainty import (
    VERDICT_FEASIBLE,
    VERDICT_INFEASIBLE,
    solve_uncertain,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_INDETERMINATE = 3
EXIT_NO_CONVERGENCE = 4


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with "infeasible"
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _fail(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return EXIT_ERROR


def _load(path: str):
    """The elaborated model, or None after its diagnostics or the read
    error have gone to stderr."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        _fail(str(e))
        return None
    except UnicodeDecodeError as e:
        _fail("%s: %s" % (path, e))
        return None
    model, diags = load_model(text)
    for d in diags:
        print(d.format(path), file=sys.stderr)
    return model


_F_ARG_RE = re.compile(r"^([^=]+)=(.*)$")
_VALUE_RE = re.compile(r"^(.*?)(?:\[([^\]]*)\])?$")


def _parse_f_args(model, f_args):
    assignments = {}
    for raw in f_args or []:
        m = _F_ARG_RE.match(raw)
        if not m:
            raise DomainError("bad --f argument %r, expected axis=value[unit]" % raw)
        key, rest = m.group(1), m.group(2)
        vm = _VALUE_RE.match(rest)
        text, unit = vm.group(1), vm.group(2)
        idx = model.axis_index(key)
        if str(idx + 1) in assignments:
            raise DomainError("axis %r assigned twice" % key)
        assignments[str(idx + 1)] = _convert_value(model.funsp.factors[idx], text, unit, key)
    return assignments


def _convert_value(poset, text, unit, axis_name):
    if isinstance(poset, RealPlus):
        if unit is not None and unit != poset.unit:
            raise DomainError(
                "axis %r has unit [%s], got [%s]" % (axis_name, poset.unit, unit)
            )
        if text == "inf":
            return math.inf
        try:
            return float(text)
        except ValueError:
            raise DomainError("bad number %r for axis %r" % (text, axis_name)) from None
    if unit is not None:
        raise DomainError("axis %r is not a real chain, drop the [unit]" % axis_name)
    if poset.contains(text):
        return text
    try:
        return chain_number(float(text))
    except ValueError:
        return text


def _solution_exit(sol) -> int:
    if not sol.converged:
        return EXIT_NO_CONVERGENCE
    if sol.verdict == VERDICT_FEASIBLE:
        return EXIT_OK
    if sol.verdict == VERDICT_INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_INDETERMINATE


_CSV_HEADER = "value,lower_front,upper_front,verdict,iterations_lower,iterations_upper,status"


def _csv_cell(text: str) -> str:
    if any(c in text for c in ",\"\n"):
        return '"%s"' % text.replace('"', '""')
    return text


def _csv_row(value_text: str, sol, status: str = "ok") -> str:
    if sol is None:
        cells = [value_text, "", "", "", "", "", status]
    else:
        cells = [
            value_text,
            sol.lower.front.format(),
            sol.upper.front.format(),
            sol.verdict,
            str(sol.lower.iterations),
            str(sol.upper.iterations),
            status,
        ]
    return ",".join(_csv_cell(c) for c in cells)


def cmd_check(args) -> int:
    model = _load(args.file)
    if model is None:
        return EXIT_ERROR
    problems = 0
    checked = 0
    for name in sorted(model.uvaluation):
        udp = model.uvaluation[name]
        sides = [("lower", udp.lower)]
        if udp.upper is not udp.lower:  # a degenerate atom is checked once
            sides.append(("upper", udp.upper))
        for side_name, side in sides:
            fronts = {}
            for f in uncertainty.default_query_grid(side.funsp, cap=64):
                try:
                    fronts[f] = side.evaluate(f)
                except CodesignError:
                    continue
            if len(fronts) < 2:
                continue
            checked += 1
            witness = _violating_pair(side.funsp, fronts)
            if witness is not None:
                problems += 1
                print(
                    "%s: error: %s side of %r is not monotone: f=%s, g=%s"
                    % (
                        args.file,
                        side_name,
                        name,
                        side.funsp.format(witness[0]),
                        side.funsp.format(witness[1]),
                    ),
                    file=sys.stderr,
                )
    if problems:
        return EXIT_ERROR
    title = model.name or "model"
    print(
        "%s: %d atoms, %d monotonicity spot-checks passed" % (title, len(model.uvaluation), checked)
    )
    print(
        "functionality: %s"
        % (", ".join("%s:%s" % (n, p.describe()) for n, p in model.query_axes()) or "none")
    )
    print(
        "resources: %s"
        % ", ".join(
            "%s:%s" % (n, p.describe()) for n, p in zip(model.rnames, model.ressp.factors)
        )
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    model = _load(args.file)
    if model is None:
        return EXIT_ERROR
    if args.max_iter < 1:
        raise DomainError("--max-iter must be at least 1")
    f = model.build_query(_parse_f_args(model, args.f))
    sol = solve_uncertain(model.term, model.uvaluation, f, args.max_iter)
    if args.format == "csv":
        print(_CSV_HEADER)
        print(_csv_row(model.funsp.format(f), sol))
    else:
        print(json.dumps(sol.to_json(), indent=2))
    return _solution_exit(sol)


def _parse_sweep_spec(spec: str, what: str, convert) -> tuple[str, list]:
    m = _F_ARG_RE.match(spec)
    if not m:
        raise DomainError("bad %s %r, expected atom=v1,v2,..." % (what, spec))
    atom = m.group(1)
    try:
        values = [convert(x) for x in m.group(2).split(",") if x != ""]
    except ValueError:
        raise DomainError("bad %s values in %r" % (what, spec)) from None
    if not values:
        raise DomainError("no %s values in %r" % (what, spec))
    return atom, values


def cmd_sweep(args) -> int:
    model = _load(args.file)
    if model is None:
        return EXIT_ERROR
    modes = [m for m in (args.axis, args.tolerance, args.relax_n) if m is not None]
    if len(modes) != 1:
        return _fail("pick exactly one of --axis, --tolerance, --relax-n")
    if args.max_iter < 1:
        raise DomainError("--max-iter must be at least 1")
    plan, label = _sweep_rows(model, args, _parse_f_args(model, args.f))
    rows = _solve_rows(model, plan, args.max_iter)
    if args.format == "csv":
        print(_CSV_HEADER)
        for value_text, sol, status in rows:
            print(_csv_row(value_text, sol, status))
    else:
        # json.dumps({"sweep": label, "rows": rows}, indent=2), a row at a time
        opening = json.dumps({"sweep": label, "rows": []}, indent=2)[: -len("]\n}")]
        sep = opening
        for value_text, sol, status in rows:
            row = {"value": value_text, "status": status}
            if sol is not None:
                row["lower"] = sol.lower.to_json()
                row["upper"] = sol.upper.to_json()
                row["verdict"] = sol.verdict
            print(sep + "\n    " + json.dumps(row, indent=2).replace("\n", "\n    "), end="")
            sep = ","
        print(opening + "]\n}" if sep is opening else "\n  ]\n}")
    return EXIT_OK


def _solve_rows(model, plan, max_iter):
    """(value text, solution or None, status) for each planned row, solved
    as the caller asks for it."""
    built_for = udp = None
    for value_text, uvaluation, query in plan:
        # rows on one valuation share its pair, and the fronts its loops remember
        if uvaluation is not built_for:
            udp = uncertainty.evaluate_uncertain(model.term, uvaluation)
            built_for = uvaluation
        try:
            yield value_text, udp.solve(model.build_query(query), max_iter), "ok"
        except CodesignError as e:
            yield value_text, None, "error: %s" % e


def _sweep_rows(model, args, assignments):
    """Rows of (value text, valuation, query assignments) and the sweep's
    label.  A bad atom or parameter fails the whole sweep; only per-query
    solve errors are row-local.  The rows of an --axis sweep are made
    one at a time, as they are asked for."""
    if args.axis is not None:
        idx = model.axis_index(args.axis)
        name, poset = model.query_axes()[idx]
        if not isinstance(poset, RealPlus):
            raise DomainError("swept axis %r must be a real chain" % args.axis)
        if str(idx + 1) in assignments:
            raise DomainError("axis %r is both swept and fixed via --f" % args.axis)
        if args.frm is None or args.to is None:
            raise DomainError("--axis needs --from and --to")
        if not (math.isfinite(args.frm) and math.isfinite(args.to)):
            raise DomainError("--from and --to must be finite")
        steps = args.steps
        if steps < 1:
            raise DomainError("--steps must be at least 1")
        if steps == 1:
            grid = [args.frm]
        else:
            grid = (args.frm + i * (args.to - args.frm) / (steps - 1) for i in range(steps))
        return (
            (repr(v), model.uvaluation, {**assignments, str(idx + 1): v}) for v in grid
        ), name
    if args.tolerance is not None:
        atom, alphas = _parse_sweep_spec(args.tolerance, "--tolerance", float)
        return [
            (repr(alpha), inject_tolerance(model.uvaluation, atom, alpha), assignments)
            for alpha in alphas
        ], "tolerance:%s" % atom

    def to_int(x):
        v = int(x)
        if str(v) != x.strip():
            raise ValueError(x)
        return v

    atom, ns = _parse_sweep_spec(args.relax_n, "--relax-n", to_int)
    return [
        (str(n), model.override_relaxation(atom, n), assignments) for n in ns
    ], "relax:%s" % atom


_MAX_ITER_HELP = (
    "most Kleene iterations of each loop in each solve, at least 1 "
    "(default %(default)s); a loop it stops reports lower bounds"
)


_F = (("--f",), {"action": "append", "metavar": "AXIS=VALUE[UNIT]"})
_MAX_ITER = (("--max-iter",), {"type": int, "dest": "max_iter", "default": DEFAULT_MAX_ITER,
                               "metavar": "N", "help": _MAX_ITER_HELP})
_FORMAT = (("--format",), {"choices": ("json", "csv"), "default": "json"})

# subcommand -> (its help, its function, the (flags, keywords) of each argument)
_COMMANDS = {
    "check": ("parse, elaborate, and spot-check a model", cmd_check, [(("file",), {})]),
    "solve": ("solve a model at one query", cmd_solve,
              [(("file",), {}), _F, _MAX_ITER, _FORMAT]),
    "sweep": ("solve across a grid of queries or parameters", cmd_sweep, [
        (("file",), {}),
        _F,
        (("--axis",), {"metavar": "AXIS"}),
        (("--from",), {"type": float, "dest": "frm", "metavar": "START"}),
        (("--to",), {"type": float, "metavar": "STOP"}),
        (("--steps",), {"type": int, "default": 11}),
        (("--tolerance",), {"metavar": "ATOM=A1,A2,..."}),
        (("--relax-n",), {"dest": "relax_n", "metavar": "ATOM=N1,N2,..."}),
        _MAX_ITER,
        _FORMAT,
    ]),
}


def _add_arguments(parser: _ArgumentParser, command: str) -> _ArgumentParser:
    _, fn, arguments = _COMMANDS[command]
    for flags, keywords in arguments:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(fn=fn)
    return parser


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="mcdsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_text), command)
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """The arguments of a command line, as build_parser().parse_args reads
    them.  Only the named subcommand's parser is built, just as
    add_parser makes it, unless the line names none or leaves arguments
    that parser does not take: the whole parser then reads the line, so
    its usage lines, errors and help are the ones printed."""
    if argv and argv[0] in _COMMANDS:
        parser = _add_arguments(_ArgumentParser(prog="mcdsolve " + argv[0]), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:  # argparse help (0) or usage error (1)
        return int(e.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except CodesignError as e:
        return _fail(str(e))
    except BrokenPipeError:
        # the reader has gone: send what stdout still holds to devnull,
        # so the flush at exit stays quiet (the recipe in the signal
        # module's docs); a stdout without a descriptor is left alone
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
