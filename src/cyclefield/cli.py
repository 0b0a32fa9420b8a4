"""Command-line front end.

Subcommands: ``phases``, ``phase-scan``, ``transit``, ``path``,
``deviations``, ``two-agent``, ``mc-validate``.  All numeric output is
printed with 17 significant digits, so identical inputs produce
byte-identical artifacts.

:func:`run` is the one dispatcher.  Argparse types parse the state and
velocity triples, so a malformed or negative triple is rejected while the
arguments are parsed.  ``run`` then checks ``--format`` against the
subcommand's natural format, loads ``--config``, solves ``--phase`` for the
five commands that take a horizon (``--t``), calls the subcommand's
``_cmd_*(args, params, solution)`` and writes the payload it returns to
``--output``: a dict as JSON, text (a string or an iterable of strings,
written as it comes) as CSV.  With the payload a command returns its exit
code.  Errors become exit codes in one place.

``mc-validate --export`` writes the endpoint CSV in blocks of
``_EXPORT_ROWS`` rows through :mod:`cyclefield.export`, which is imported
only then; the export and the report must go to separate targets.

Only ``phase-scan``, ``transit``, ``path``, ``deviations``, ``two-agent``
and ``mc-validate`` load NumPy: each imports the modules it calls, and the
state arguments import :mod:`cyclefield.paths`.  ``phases`` runs on
:mod:`cyclefield.phases` alone, in plain ``math``.  ``phase-scan`` solves its
grid ``_SCAN_ROWS`` rows at a time, each block in one array pass
(:mod:`cyclefield.grid`), which checks the values and settles every row;
the CLI formats each block's rows, which ``run`` writes before the next
block is solved, and names the first failed row once the last is written.
The parser gives options only to the subcommands named in ``argv``, so a
run builds its own command's options and no other.
An output file that cannot be written is bad usage (exit 2).

Exit codes: 0 success; 2 bad usage or invalid inputs; 3 no admissible
nontrivial phase; 4 numerical failure (including an overflowing closed
form); 5 ``mc-validate --strict`` wrote a report whose check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

from cyclefield.errors import (
    ConvergenceError,
    CycleFieldError,
    DomainError,
    InfeasiblePhaseError,
    ParameterError,
    ShapeError,
    SingularityError,
    TrajectoryTerminated,
)
from cyclefield.params import ModelParams, load_config
from cyclefield.phases import solve_phase

# phase-scan result columns: (CSV header, PhaseSolution field), twelve floats then two flags
_SCAN_COLUMNS = (
    ("gamma_eta", "gamma_eta"), ("Gamma1", "Gamma1"), ("Gamma2", "Gamma2"),
    ("Gamma3", "Gamma3"), ("C1", "C1"), ("K1p", "K1p"), ("A1", "A1"), ("m", "mass"),
    ("avgA", "avg_A"), ("avgC", "avg_C"), ("avgK", "avg_K"), ("avgY", "avg_Y"),
    ("feasible", "feasible"), ("stable", "stable"),
)
_SCAN_FLOAT_FIELDS = tuple(field for _, field in _SCAN_COLUMNS[:-2])
_SCAN_FLOATS = ",".join(["%.17g"] * len(_SCAN_FLOAT_FIELDS))
_EXPORT_ROWS = 8192  # endpoint CSV rows formatted and written at a time
_SCAN_ROWS = 4096  # phase-scan rows solved and formatted at a time
_FLAGS = ("false", "true")


# ---------------------------------------------------------------------------
# deterministic emitters
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    """One scalar with 17 significant digits (bools as true/false)."""
    if isinstance(v, bool) or type(v).__name__ in ("bool_", "bool"):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.17g}"


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_dumps(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    return _fmt(obj)


def _emit(text, output: str | None) -> None:
    """Write a string, or an iterable of strings in order, to ``output`` or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if output is None or output == "-":
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(output, "w", encoding="utf-8", buffering=1) as fh:  # each chunk is flushed as written
                fh.writelines(chunks)
        except OSError as exc:
            raise ParameterError(f"cannot write output file {output}: {exc}") from exc


def _ensemble_csv(ensemble):
    """The endpoint CSV in blocks of ``_EXPORT_ROWS`` rows, one block held at a time."""
    from cyclefield import export  # the row kernel loads only when an export is written

    yield "path_id,C,K,A\n"
    for i0 in range(0, ensemble.n_paths, _EXPORT_ROWS):
        block = slice(i0, i0 + _EXPORT_ROWS)
        yield export.rows(i0, ensemble.C[block], ensemble.K[block], ensemble.A[block])


# ---------------------------------------------------------------------------
# argument types
# ---------------------------------------------------------------------------


def _triple(text: str) -> tuple:
    """Three comma-separated numbers; the ParameterError passes through argparse to run."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"invalid number triple {text!r}") from exc


def _state(text: str):
    """The ``AgentState`` of a C,K,A triple."""
    from cyclefield.paths import AgentState

    return AgentState(*_triple(text))


# ---------------------------------------------------------------------------
# subcommands: (args, params, solution) -> (payload, exit code)
# ---------------------------------------------------------------------------


def _cmd_phases(args, p, _sol):
    records = [asdict(solve_phase(p, ph, paper_k1_approx=args.paper_k1_approx)) for ph in (0, 1)]
    return {"phases": records}, 0


def _scan_values(args):
    if (args.values is None) == (args.range is None):
        raise ParameterError("phase-scan needs exactly one of --values or --range")
    if args.values is not None:
        try:
            return [float(v) for v in args.values.split(",")]
        except ValueError as exc:
            raise ParameterError(f"invalid --values list {args.values!r}") from exc
    parts = args.range.split(",")
    if len(parts) != 3:
        raise ParameterError(f"--range expects 'start,stop,count', got {args.range!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"invalid --range {args.range!r}") from exc
    if count < 1:
        raise ParameterError(f"--range count must be >= 1, got {count}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    if math.isfinite(start) and math.isfinite(stop) and not math.isfinite(step):
        raise ParameterError(f"--range span {start!r} to {stop!r} overflows: stop - start is not a finite number")
    return [start + i * step for i in range(count)]


def _cmd_phase_scan(args, base, _sol):
    from cyclefield import grid  # loads NumPy

    values = _scan_values(args)
    grid.check_grid(args.key, values)  # every value, before the output is opened
    # the fixed parameter cells are formatted once, around the swept one
    param_keys = tuple(f.name for f in fields(ModelParams))
    cells, i = [_fmt(getattr(base, k)) for k in param_keys], param_keys.index(args.key)
    head, tail = ",".join(cells[:i] + [""]), ",".join([""] + cells[i + 1 :])
    row = f"{head}%.17g{tail},{_SCAN_FLOATS},%s,%s,%s"  # a row's template; the cells hold no %
    failures = []

    def block(values):
        """The CSV rows of ``values``, each line ended."""
        columns, status, errors = grid.solve_grid(base, args.key, values, args.paper_k1_approx)
        floats = [columns[field].tolist() for field in _SCAN_FLOAT_FIELDS]
        feasible, stable = (map(_FLAGS.__getitem__, columns[k].tolist()) for k in ("feasible", "stable"))
        statuses = map(grid.STATUSES.__getitem__, status.tolist())
        lines = list(map(row.__mod__, zip(values, *floats, feasible, stable, statuses)))
        for j, exc in errors.items():  # a failed row keeps its parameter cells and empties the solution's
            failures.append(f"{args.key}={values[j]:.17g}: {exc}")
            params, *solution = lines[j].rsplit(",", len(_SCAN_COLUMNS) + 1)
            lines[j] = ",".join([params, *[""] * len(_SCAN_COLUMNS), solution[-1]])
        return "\n".join(lines) + "\n"

    def text():
        """The header, then each block's rows as it is solved; a failed row raises after the last."""
        yield ",".join(param_keys + tuple(name for name, _ in _SCAN_COLUMNS) + ("status",)) + "\n"
        for i0 in range(0, len(values), _SCAN_ROWS):
            yield block(values[i0 : i0 + _SCAN_ROWS])
        if failures:  # named on stderr after every row is written
            first = f"numerical failure in {len(failures)} of {len(values)} rows; first: {failures[0]}"
            raise CycleFieldError(first)

    return text(), 0


def _cmd_transit(args, p, sol):
    from cyclefield import green

    x, y, maintext = args.from_state, args.to, args.maintext_convention
    density, log_density = green.transition_density(x, y, args.t, sol, p, maintext=maintext)
    coeffs = green.coefficients(sol, p, x, y, maintext=maintext)
    return {"density": density, "log_density": log_density, "coefficients": coeffs._asdict()}, 0


def _cmd_path(args, p, sol):
    from cyclefield import green

    return green.average_path(args.x0, args.t, sol, p, n_steps=args.n_steps).to_csv(), 0


def _cmd_deviations(args, p, sol):
    from cyclefield import corrections

    query = corrections.DeviationQuery(x0=args.x0, v0=args.v0, t=args.t)
    dC, dK, dA = corrections.path_deviation(query, sol, p)
    table = corrections.elasticity_table(args.t, sol, p)
    return {"dC": dC, "dK": dK, "dA": dA, "elasticities": table}, 0


def _cmd_two_agent(args, p, sol):
    from cyclefield import corrections

    query = corrections.TwoAgentQuery(
        from1=args.from1, to1=args.to1, from2=args.from2, to2=args.to2, t=args.t
    )
    return corrections.two_agent_correction(query, sol, p), 0


def _cmd_mc_validate(args, p, sol):
    from cyclefield import montecarlo
    from cyclefield.paths import AgentState

    if args.export:  # the endpoint CSV and the report each need their own target
        csv, report = (None if f in (None, "-") else os.path.realpath(f) for f in (args.export, args.output))
        if csv == report:
            where = "stdout" if csv is None else repr(args.export)
            raise ParameterError(f"--export and --output both write to {where}; give them separate targets")
    montecarlo.check_feasible(sol)
    if args.n < 2:
        raise ParameterError(f"mc-validate compares sample variances, which needs --n >= 2, got {args.n}")
    mc = montecarlo.MCConfig(n_paths=args.n, dt=args.dt, seed=args.seed)
    if args.export:  # create or empty the export target now, so one that cannot be written fails before sampling
        _emit("", args.export)
    initial = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
    ensemble = montecarlo.sample_paths(initial, args.t, sol, p, mc)
    report = montecarlo.compare_to_green(ensemble, initial, sol, p)
    if args.export:
        _emit(_ensemble_csv(ensemble), args.export)
    out = {"zscores": report["zscores"], "ks": report["ks"], "pass": report["pass"]}
    return out, 5 if args.strict and not report["pass"] else 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global options, accepted both before and after the subcommand."""
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="flat key=value parameter file", **kw)
    parser.add_argument(
        "--seed", type=int, help="Philox key of the Monte Carlo streams, in [0, 2**128)",
        default=argparse.SUPPRESS if suppress else 0,
    )
    parser.add_argument("--format", choices=("csv", "json"), help="output format", **kw)
    parser.add_argument("--output", help="output file (default stdout)", **kw)
    parser.add_argument(
        "--paper-k1-approx",
        action="store_true",
        help="use the surrogate capital boundary shift instead of the exact form",
        **kw,
    )
    parser.add_argument(
        "--maintext-convention",
        action="store_true",
        help="use the alternative kernel convention (single marginal-product beta)",
        **kw,
    )


def _build_parser(argv) -> argparse.ArgumentParser:
    """Every subcommand's name and summary, with options for those named in ``argv``.

    argparse picks a subcommand by its exact name (none has an alias), so the
    invoked one gets its options, and help and usage errors read as with all.
    """
    parser = argparse.ArgumentParser(
        prog="cyclefield", description="Phase solver and transition-kernel toolkit."
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(argv)

    def command(name, func, fmt, summary, horizon=True):
        sp = sub.add_parser(name, help=summary)
        if name not in named:  # not invoked: its options would go unread
            return None
        _add_global_options(sp, suppress=True)
        if horizon:
            sp.add_argument("--t", type=float, required=True, help="horizon")
            sp.add_argument("--phase", type=int, choices=(0, 1), default=0)
        sp.set_defaults(func=func, natural_format=fmt)
        return sp

    command("phases", _cmd_phases, "json", "solve both phases", horizon=False)

    if scan := command("phase-scan", _cmd_phase_scan, "csv", "sweep one parameter, CSV output", horizon=False):
        scan.add_argument("--key", required=True, help="ModelParams field to sweep")
        scan.add_argument("--values", help="comma-separated grid values")
        scan.add_argument("--range", help="start,stop,count linear grid")

    state = {"type": _state, "required": True, "metavar": "C,K,A"}
    if transit := command("transit", _cmd_transit, "json", "transition density between two states"):
        transit.add_argument("--from", dest="from_state", help="initial state", **state)
        transit.add_argument("--to", help="final state", **state)

    if path := command("path", _cmd_path, "csv", "average path from an initial state, CSV output"):
        path.add_argument("--x0", help="initial state", **state)
        path.add_argument("--n-steps", type=int, default=None, help="RK4 step count")

    if dev := command("deviations", _cmd_deviations, "json", "self-interaction path deviations"):
        dev.add_argument("--x0", help="initial state", **state)
        dev.add_argument("--v0", type=_triple, required=True, metavar="dC,dK,dA", help="initial velocities")

    if two := command("two-agent", _cmd_two_agent, "json", "two-agent interaction corrections"):
        for agent in "12":
            two.add_argument(f"--from{agent}", help=f"agent {agent} initial state", **state)
            two.add_argument(f"--to{agent}", help=f"agent {agent} final state", **state)

    if mcv := command("mc-validate", _cmd_mc_validate, "json", "Monte Carlo check of the analytic kernel"):
        mcv.add_argument("--n", type=int, default=10000, help="number of paths")
        mcv.add_argument("--dt", type=float, default=1e-2, help="Heun step")
        mcv.add_argument("--export", help="write the endpoint ensemble CSV to this file")
        mcv.add_argument("--strict", action="store_true", help="exit 5 after the report if the check fails")
    return parser


def _join_grid_values(argv: list[str]) -> list[str]:
    """``--range -3,3,3`` as ``--range=-3,3,3``: argparse reads a lone value led by '-' as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--values", "--range") and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    """Parse arguments, run the subcommand, emit its payload and map errors to exit codes."""
    try:
        argv = _join_grid_values(sys.argv[1:] if argv is None else argv)
        args = _build_parser(argv).parse_args(argv)
        if args.format not in (None, args.natural_format):
            raise ParameterError(
                f"subcommand {args.command!r} only supports --format {args.natural_format}"
            )
        params = load_config(args.config) if args.config else ModelParams()
        solution = None
        if "phase" in args:  # the commands that take a horizon
            solution = solve_phase(params, args.phase, paper_k1_approx=args.paper_k1_approx)
        payload, status = args.func(args, params, solution)
        _emit(_json_dumps(payload) + "\n" if isinstance(payload, dict) else payload, args.output)
        return status
    except SystemExit as exc:  # argparse printed help or a usage message
        return 0 if exc.code in (0, None) else 2
    except (ParameterError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasiblePhaseError as exc:
        print(f"error: no admissible nontrivial phase: {exc.reason}", file=sys.stderr)
        return 3
    except (ConvergenceError, SingularityError, TrajectoryTerminated, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except CycleFieldError as exc:  # any future subclass
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
