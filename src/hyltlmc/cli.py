"""Command line front end.

Subcommands:
    check      decide whether a model satisfies a formula
    translate  compile a formula into its observer automaton
    compose    synchronous product of two models
    export     render a model in PhaVer's input language
    monitor    evaluate a formula on a recorded lasso trace
    selftest   fast internal consistency battery

Exit status is 0 for a verified property or plain success, 2 for an
inconclusive or negative outcome, 1 for any error. With --machine every
outcome is a single key=value line on stdout and errors carry their
E_* code.

Numeric settings resolve in order: command line flag, JSON --config
file, built-in default.
The config file is read whole before any subcommand runs: it holds only
horizon, step, eps and tol, each a number, and anything else is an
E_CONFIG error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, HyltlError, ParseError, TraceError
from .formula.parser import Declarations, parse_formula
from .formula.syntax import Not, to_str
from .hybrid.automaton import compose, find_accepting_witness
from .hybrid.lasso import HybridLassoTrace
from .hybrid.modelio import load_model, model_to_str, parse_model
from .hybrid.trajectory import DEFAULT_FLOW_TOL, SampledTrajectory
from .monitor import evaluate_trace
from .phaver import export_phaver
from .product import check, observer_of
from .tableau import prune_unreachable

DEFAULTS = {
    "horizon": 100.0,
    "step": 0.01,
    "eps": 1e-6,
    "tol": DEFAULT_FLOW_TOL,
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except ValueError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    config = {}
    for key, value in data.items():
        if key not in DEFAULTS:
            raise ConfigError(
                f"unknown config key {key!r}; known keys are {', '.join(DEFAULTS)}"
            )
        # float(True) is 1.0, but a JSON boolean is no number, and neither
        # is an integer beyond the float range.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                config[key] = float(value)
                continue
            except OverflowError:
                pass
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return config


def _setting(args, config: dict, key: str) -> float:
    flag = getattr(args, key, None)
    return config.get(key, DEFAULTS[key]) if flag is None else flag


def _machine_line(**fields) -> str:
    parts = []
    for k, v in fields.items():
        if isinstance(v, bool):
            v = "true" if v else "false"
        parts.append(f"{k}={shlex.quote(str(v))}")
    return " ".join(parts)


def _emit(args, human: str, **fields):
    print(_machine_line(**fields) if args.machine else human)


def _load(path: str):
    try:
        return load_model(path)
    except OSError as e:
        raise HyltlError(f"cannot read model file: {e}") from e


def _declarations(args, model=None) -> Declarations:
    if model is not None:
        for flag in ("vars", "alphabet"):
            if getattr(args, flag, None) is not None:
                raise ConfigError(
                    f"--{flag} cannot be combined with --model, which declares "
                    "the names"
                )
        return Declarations(variables=model.variables, actions=model.actions)
    variables = tuple(x for x in (args.vars or "").split(",") if x)
    actions = tuple(a for a in (args.alphabet or "").split(",") if a)
    if not variables and not actions:
        raise HyltlError(
            "need --model, or --vars/--alphabet, to know the formula's names"
        )
    return Declarations(variables=variables, actions=actions)


def _write_out(args, text: str):
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text)
        except OSError as e:
            raise HyltlError(f"cannot write output file: {e}") from e
    else:
        sys.stdout.write(text)


def _cmd_check(args, config: dict) -> int:
    model = _load(args.model)
    formula = parse_formula(args.formula, _declarations(args, model))
    with warnings.catch_warnings():
        if args.machine:
            warnings.simplefilter("ignore")
        verdict = check(
            model,
            formula,
            horizon=_setting(args, config, "horizon"),
            step=_setting(args, config, "step"),
            eps=_setting(args, config, "eps"),
            strict=args.strict_negation,
        )
        if args.export_phaver:
            try:
                Path(args.export_phaver).write_text(
                    export_phaver(verdict.product, name="query")
                )
            except OSError as e:
                raise HyltlError(f"cannot write export file: {e}") from e
    s = verdict.stats
    if args.machine:
        print(
            _machine_line(
                status=verdict.status,
                reason=verdict.reason,
                formula=verdict.formula,
                hits=len(verdict.hits),
                complete=verdict.complete,
                boxes=s["boxes"],
            )
        )
    else:
        print(verdict)
        print(f"formula: {verdict.formula}")
        print(
            f"observer: {s['observer_locations']} locations, "
            f"{s['observer_transitions']} transitions"
        )
        print(
            f"product: {s['product_locations']} locations, "
            f"{s['product_transitions']} transitions, "
            f"{s['query_targets']} query targets"
        )
        print(
            f"explored: {s['boxes']} boxes, {s['flows']} flows "
            f"({s['reach_incomplete'] or 'complete'})"
        )
        for hit in verdict.hits:
            spans = ", ".join(
                f"{x} in [{lo:.6g}, {hi:.6g}]" for x, (lo, hi) in hit["box"].items()
            )
            part = f" of conjunct '{hit['conjunct']}'" if "conjunct" in hit else ""
            print(f"hit: location {hit['location']!r} with {spans}{part}")
        print(
            "time: "
            + ", ".join(f"{k} {v * 1e3:.1f} ms" for k, v in s["timings"].items())
        )
    return 0 if verdict.verified else 2


def _cmd_translate(args, config: dict) -> int:
    model = _load(args.model) if args.model else None
    decls = _declarations(args, model)
    formula = parse_formula(args.formula, decls)
    # observer_of builds the observer of its argument's negation.
    negated = formula if args.negate else Not(formula)
    observer, _ = observer_of(negated, decls.actions, strict=args.strict_negation)
    if not args.no_prune:
        observer = prune_unreachable(observer)
    _write_out(args, model_to_str(observer))
    return 0


def _cmd_compose(args, config: dict) -> int:
    left = _load(args.models[0])
    right = _load(args.models[1])
    _write_out(args, model_to_str(compose(left, right)))
    return 0


def _cmd_export(args, config: dict) -> int:
    model = _load(args.model)
    _write_out(args, export_phaver(model, name=args.name))
    return 0


def _read_trace_csv(path: str) -> tuple[tuple[str, ...], list[SampledTrajectory]]:
    """Blank-line separated sample blocks, header t,var[,var...] once."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise TraceError(f"cannot read trace file as UTF-8 text: {e}") from e
    rows = list(csv.reader(raw.splitlines()))
    if not rows or not rows[0]:
        raise TraceError("trace file is empty")
    header = [c.strip() for c in rows[0]]
    if header[:1] != ["t"] or len(header) < 2:
        raise TraceError("trace header must be t followed by variable names")
    names = tuple(header[1:])
    try:
        Declarations(names)
    except ParseError as e:
        raise TraceError(f"trace header: {e}") from e
    blocks: list[list[list[float]]] = [[]]
    for row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            if blocks[-1]:
                blocks.append([])
            continue
        if len(row) != len(header):
            raise TraceError(f"row {row!r} does not match the header")
        try:
            sample = [float(c) for c in row]
        except ValueError:
            raise TraceError(f"row {row!r} holds a non-numeric sample")
        if not all(map(math.isfinite, sample)):
            raise TraceError(f"row {row!r} holds a non-finite time or sample")
        blocks[-1].append(sample)
    if not blocks[-1]:
        blocks.pop()
    segments = []
    for block in blocks:
        if len(block) < 2:
            raise TraceError("every segment needs at least two samples")
        data = np.asarray(block, dtype=float)
        ts = data[:, 0]
        h = (ts[-1] - ts[0]) / (len(ts) - 1)
        if h <= 0 or np.max(np.abs(np.diff(ts) - h)) > 1e-9 + 1e-6 * h:
            raise TraceError("samples in a segment must be uniformly spaced")
        segments.append(SampledTrajectory(names, data[:, 1:], float(h)))
    return names, segments


def _cmd_monitor(args, config: dict) -> int:
    if args.generated and not args.model:
        raise ConfigError("--generated needs --model, the model to search for a run")
    names, segments = _read_trace_csv(args.trace)
    actions = tuple(a.strip() for a in args.actions.split(",") if a.strip())
    extra = tuple(a for a in (args.alphabet or "").split(",") if a)
    for x in names:
        if x in actions or x in extra:
            raise TraceError(f"trace header: column '{x}' is named like an action")
    if len(actions) != len(segments):
        raise TraceError(
            f"{len(segments)} segment(s) need {len(segments)} action(s), "
            f"got {len(actions)}"
        )
    k = args.cycle_start
    if not 1 <= k <= len(segments):
        raise TraceError(f"--cycle-start must be in 1..{len(segments)}, got {k}")
    paired = list(zip(segments, actions))
    trace = HybridLassoTrace(paired[: k - 1], paired[k - 1 :])

    model = _load(args.model) if args.model else None
    if model is None:
        decls = Declarations(names, tuple(dict.fromkeys(actions + extra)))
    else:
        decls = _declarations(args, model)
    formula = parse_formula(args.formula, decls)

    tol = _setting(args, config, "tol")
    holds = evaluate_trace(trace, formula, tol=tol)
    generated = None
    if args.generated:
        generated = find_accepting_witness(trace, model, tol=tol) is not None

    human = f"{'holds' if holds else 'does not hold'}: {to_str(formula)}"
    fields = {"status": "Holds" if holds else "Fails", "formula": to_str(formula)}
    if generated is not None:
        human += f"\ntrace {'is' if generated else 'is not'} a run of the model"
        fields["generated"] = generated
    _emit(args, human, **fields)
    return 0 if holds else 2


def _cmd_selftest(args, config: dict) -> int:
    """End-to-end sanity battery on the bundled thermostat model."""
    from importlib.resources import files

    from .monitor import evaluate_word, random_trace
    from .phaver import embedded_model
    from .reach import reachable

    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        failures += 0 if ok else 1
        if args.machine:
            print(_machine_line(test=name, ok=ok))
        else:
            print(f"{'ok' if ok else 'FAIL'}  {name}")

    model = parse_model(
        files("hyltlmc.models").joinpath("thermostat.hyha").read_text()
    )
    decls = Declarations(variables=model.variables, actions=model.actions)

    verdict = check(model, parse_formula("!F(x >= 21 & X on)", decls))
    report("thermostat check verdict is Verified", verdict.verified)

    hull = reachable(model).hull()
    lo, hi = hull["x"]
    report("thermostat reach hull stays within 16.9..23.1", 16.9 <= lo and hi <= 23.1)

    rng = np.random.default_rng(7)
    agree = True
    for _ in range(3):
        trace, _ = random_trace(model, rng)
        agree &= find_accepting_witness(trace, model) is not None
        agree &= not evaluate_trace(trace, parse_formula("F(x >= 21 & X on)", decls))
    report("random traces are runs and respect the guard", agree)

    auto, _ = observer_of(parse_formula("!F on", decls), model.actions)
    word_ok = evaluate_word(("off",), ("on",), parse_formula("F on", decls))
    report("word monitor matches hand semantics", word_ok and len(auto.locations) > 0)

    back = embedded_model(export_phaver(model, name="selftest"))
    report(
        "export embeds a faithful copy",
        back is not None and model_to_str(back) == model_to_str(model),
    )

    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyltl-mc",
        description="Check hybrid automata against HyLTL properties.",
    )
    parser.add_argument(
        "--machine",
        action="store_true",
        help="single key=value line per outcome on stdout",
    )
    parser.add_argument("--config", help="JSON file with default settings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_decl_flags(p):
        p.add_argument("--vars", help="comma separated variable names")
        p.add_argument(
            "--alphabet", help="comma separated action names (beyond those seen)"
        )

    p = sub.add_parser("check", help="decide whether a model satisfies a formula")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--formula", required=True, help="property text")
    p.add_argument("--horizon", type=float, help="flow time budget per location")
    p.add_argument("--step", type=float, help="integration step for flow tubes")
    p.add_argument("--eps", type=float, help="recurrence closeness threshold")
    p.add_argument(
        "--strict-negation",
        action="store_true",
        help="fail instead of warning when negating a flow atom",
    )
    p.add_argument(
        "--export-phaver",
        metavar="FILE",
        help="also write the pruned, instrumented product it queried, in PhaVer syntax",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("translate", help="compile a formula into an automaton")
    p.add_argument("--formula", required=True)
    p.add_argument("--model", help="model file supplying the declarations")
    add_decl_flags(p)
    p.add_argument(
        "--negate", action="store_true", help="print the observer check composes"
    )
    p.add_argument("--no-prune", action="store_true", help="keep unreachable locations")
    p.add_argument("--strict-negation", action="store_true")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("compose", help="synchronous product of two models")
    p.add_argument("models", nargs=2, help="two model files")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("export", help="render a model in PhaVer syntax")
    p.add_argument("--model", required=True)
    p.add_argument("--name", default="model", help="automaton name in the output")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("monitor", help="evaluate a formula on a recorded trace")
    p.add_argument("--formula", required=True)
    p.add_argument(
        "--trace",
        required=True,
        help="CSV of t,vars samples; blank lines split segments",
    )
    p.add_argument(
        "--actions",
        required=True,
        help="comma separated action after each segment",
    )
    p.add_argument(
        "--cycle-start",
        type=int,
        default=1,
        help="1-based segment index where the repeating part begins",
    )
    p.add_argument("--model", help="model file supplying the declarations")
    p.add_argument(
        "--alphabet",
        help="comma separated action names beyond those in --actions (no --model)",
    )
    p.add_argument(
        "--generated",
        action="store_true",
        help="also search the --model for an accepting run over the trace",
    )
    p.add_argument("--tol", type=float, help="flow comparison tolerance")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("selftest", help="fast internal consistency battery")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; 2 is reserved for inconclusive.
        return 0 if e.code in (0, None) else 1
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except HyltlError as e:
        if args.machine:
            print(_machine_line(error=e.code, message=str(e)))
        else:
            print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
