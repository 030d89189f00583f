"""Command-line surface.

Verbs: solve (run a strategy on an instance), pros (evaluate a given
matching), optimal (exact optimum by branch and bound), audit-ic,
experiment (random-trial ratio study with CSV + SVG box plots), paper-check
(reference-value gate), gen (emit canonical or random instances).

Exit codes: 0 ok, 1 reference-check failure, 2 input error or a file that
cannot be read or written, 3 budget exceeded, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .gda import Strategy, run_gda
from .goldens import run_goldens
from .instances import FAMILIES, canonical, gen_random
from .model import (
    Matching,
    ModelError,
    ParseError,
    ProsResult,
    ValidationError,
    format_rational,
    parse_document,
    parse_instance,
    parse_rational,
    serialize_instance,
)
from .oracle import (
    AUDIT_BUDGET, DEFAULT_BUDGET, DEFAULT_SEED, BudgetExceededError, ExperimentConfig, audit_ic, optimal_pros,
    run_experiment,
)
from .prob import (
    DEFAULT_SAMPLES, _exact_evaluator, potential_blockers, pros_exact, pros_monte_carlo, stability_interval
)
from .svg import render_box_plot


def _emit(args, text: str) -> None:
    """Print, or write to --out when given."""
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _evaluate_pros(inst, matching, samples: int, seed: int, force_mc: bool = False) -> ProsResult:
    """Exact when the instance has an exact evaluator and ``force_mc`` is off,
    else a Monte Carlo estimate."""
    if force_mc or _exact_evaluator(inst) is None:
        return pros_monte_carlo(inst, matching, samples=samples, seed=seed)
    return pros_exact(inst, matching)


def _pros_json(res: ProsResult) -> dict:
    out = {"kind": res.kind, "value": float(res.value)}
    if isinstance(res.value, Fraction):
        out["value_exact"] = format_rational(res.value)
    if res.kind == "estimate":
        out.update(stderr=res.stderr, samples=res.samples, seed=res.seed)
    return out


# ---------------------------------------------------------------------------
# solve / pros / optimal / audit-ic
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    inst = parse_instance(Path(args.instance).read_bytes())
    matching, trace = run_gda(inst, Strategy(args.strategy), samples=args.samples, seed=args.seed)
    res = _evaluate_pros(inst, matching, args.samples, args.seed)
    blockers = {
        inst.students[s]: [inst.colleges[c] for c in potential_blockers(inst, matching, s)]
        for s in range(inst.n)
    }
    windows = {}
    if inst.num_features == 2:
        for s in range(inst.n):
            if matching.college_of(s) is None:
                continue
            window = stability_interval(inst, matching, s)
            if window is None:
                windows[inst.students[s]] = "none"
            elif window.empty:
                windows[inst.students[s]] = "empty"
            else:
                windows[inst.students[s]] = (
                    f"[{format_rational(window.lower)}, {format_rational(window.upper)}]"
                )
    if args.format == "json":
        doc = {
            "strategy": args.strategy,
            "matching": matching.to_ids(inst),
            "potential_blockers": blockers,
            "pros": _pros_json(res),
        }
        if windows:
            doc["noblock_windows"] = windows
        if args.trace:
            doc["trace"] = [
                {
                    "proposals": {inst.students[s]: inst.colleges[c] for s, c in rnd.proposals},
                    "rejections": [[inst.colleges[c], inst.students[s]] for c, s in rnd.rejections],
                }
                for rnd in trace.rounds
            ]
        _emit(args, json.dumps(doc, indent=2))
        return 0
    if args.format == "csv":
        lines = ["student,college"]
        lines += [f"{sid},{cid or ''}" for sid, cid in matching.to_ids(inst).items()]
        _emit(args, "\n".join(lines))
        return 0
    lines = [f"strategy: {args.strategy}", "matching:"]
    for sid, cid in matching.to_ids(inst).items():
        lines.append(f"  {sid} -> {cid if cid is not None else 'unmatched'}")
    lines.append("potential blockers (college side):")
    for sid, cols in blockers.items():
        lines.append(f"  {sid}: {', '.join(cols) if cols else '-'}")
    if windows:
        lines.append("no-block weight windows (first feature):")
        for sid, w in windows.items():
            lines.append(f"  {sid}: {w}")
    lines.append(f"pros: {res.display()}")
    if args.trace:
        for t, rnd in enumerate(trace.rounds, start=1):
            props = ", ".join(f"{inst.students[s]}->{inst.colleges[c]}" for s, c in rnd.proposals)
            rejs = ", ".join(f"{inst.colleges[c]} rejects {inst.students[s]}" for c, s in rnd.rejections)
            lines.append(f"round {t}: proposals: {props}" + (f"; {rejs}" if rejs else ""))
    _emit(args, "\n".join(lines))
    return 0


def _cmd_pros(args) -> int:
    inst = parse_instance(Path(args.instance).read_bytes())
    matching = Matching.from_ids(inst, parse_document(Path(args.matching).read_bytes()))
    res = _evaluate_pros(inst, matching, args.samples, args.seed, force_mc=args.mc)
    if args.format == "json":
        _emit(args, json.dumps({"matching": matching.to_ids(inst), "pros": _pros_json(res)}, indent=2))
    else:
        _emit(args, f"pros: {res.display()}")
    return 0


def _cmd_optimal(args) -> int:
    inst = parse_instance(Path(args.instance).read_bytes())
    opt = optimal_pros(inst, budget=args.budget)
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "best_matching": opt.best_matching.to_ids(inst),
                    "best_pros": _pros_json(opt.best_pros),
                    "matchings_examined": opt.matchings_examined,
                    "matchings_evaluated": opt.matchings_evaluated,
                    "pruned": opt.pruned,
                },
                indent=2,
            ),
        )
        return 0
    lines = ["best matching:"]
    for sid, cid in opt.best_matching.to_ids(inst).items():
        lines.append(f"  {sid} -> {cid if cid is not None else 'unmatched'}")
    lines.append(f"best pros: {opt.best_pros.display()}")
    lines.append(f"matchings examined: {opt.matchings_examined}")
    lines.append(f"matchings evaluated: {opt.matchings_evaluated}")
    lines.append(f"pruned: {opt.pruned}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_audit_ic(args) -> int:
    inst = parse_instance(Path(args.instance).read_bytes())
    report = audit_ic(
        inst,
        Strategy(args.strategy),
        level=args.level,
        budget=args.budget,
        samples=args.samples,
        seed=args.seed,
    )
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "level": report.level,
                    "misreports_tried": report.misreports_tried,
                    "violations": [
                        {
                            "student": v.student,
                            "misreport": v.misreport,
                            "improvement_prob": float(v.improvement_prob),
                        }
                        for v in report.violations
                    ],
                    "note": report.note,
                },
                indent=2,
            ),
        )
        return 0
    lines = [f"level: {report.level}", f"misreports tried: {report.misreports_tried}"]
    if report.violations:
        for v in report.violations:
            lines.append(
                f"violation: {v.student} via {v.misreport} improves with prob {float(v.improvement_prob):.6g}"
            )
    else:
        lines.append("violations: none")
    lines.append(f"note: {report.note}")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def experiment_csv(rows: list[dict]) -> str:
    """The rows as CSV, its columns the keys of ``run_experiment``'s rows in
    their order.  The CLI never writes an empty table."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def experiment_svg(rows: list[dict], config: ExperimentConfig) -> str:
    groups = []
    for size in config.sizes:
        for strategy in config.strategies:
            vals = [
                float(r["ratio"])
                for r in rows
                if r["n"] == size and r["strategy"] == strategy.value
            ]
            groups.append((f"n={size} {strategy.value}", vals))
    return render_box_plot(
        groups,
        title=f"stability-probability ratio vs optimum ({config.trials} trials/size, caps {config.capacities})",
        y_label="ProS ratio",
    )


def _cmd_experiment(args) -> int:
    try:
        strategies = tuple(Strategy(s) for s in args.strategies.split(",")) if args.strategies != "all" else tuple(Strategy)
    except ValueError:
        names = ",".join(s.value for s in Strategy)
        raise ParseError(f"--strategies must be 'all' or a comma-separated subset of {names}") from None
    try:
        sizes = tuple(int(x) for x in args.sizes.split(","))
    except ValueError:
        raise ParseError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if args.trials < 1 or min(sizes) < 1:
        raise ParseError("--trials and every --sizes value must be positive")
    rules = ("ones", "spread") if args.capacities == "both" else (args.capacities,)
    outputs = {
        rule: [_with_suffix(path, f"-{rule}" if len(rules) > 1 else "") for path in (args.out_csv, args.out_svg)]
        for rule in rules
    }
    for pair in outputs.values():  # every path before the first trial, which can take seconds
        for path in pair:
            _check_writable(path)
    for rule in rules:
        config = ExperimentConfig(
            trials=args.trials,
            sizes=sizes,
            capacities=rule,
            strategies=strategies,
            seed=args.seed,
            budget=args.budget,
        )
        rows = run_experiment(config)
        csv_path, svg_path = outputs[rule]
        csv_path.write_text(experiment_csv(rows))
        svg_path.write_text(experiment_svg(rows, config))
        print(f"wrote {len(rows)} rows to {csv_path} and plot to {svg_path}")
    return 0


def _with_suffix(path: str, suffix: str) -> Path:
    p = Path(path)
    return p.with_name(p.stem + suffix + p.suffix) if suffix else p


def _check_writable(path: Path) -> None:
    """Raise the OSError that writing `path` would raise, without writing it."""
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOENT
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


# ---------------------------------------------------------------------------
# paper-check / gen
# ---------------------------------------------------------------------------


def _cmd_paper_check(args) -> int:
    results = run_goldens(samples=args.samples, seed=args.seed)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} reference checks passed")
    return 0 if failures == 0 else 1


# gen's random-mode flags and their defaults; its family-mode flags default
# in each family's builder
_GEN_RANDOM = {
    "students": 3, "colleges": 3, "features": 2, "dist": "uniform_simplex",
    "alpha": 2.0, "beta": 2.0, "capacities": "ones", "seed": DEFAULT_SEED,
}
_GEN_FAMILY = ("n", "k", "delta", "eps", "y", "z")


def _cmd_gen(args) -> int:
    given = {name: getattr(args, name) for name in (*_GEN_FAMILY, *_GEN_RANDOM) if getattr(args, name) is not None}
    for name in given:
        if (name in _GEN_FAMILY) != (args.family is not None):
            mode = "with" if name in _GEN_FAMILY else "without"
            raise ValidationError(f"gen: --{name} applies only {mode} --family")
        if name in ("alpha", "beta") and args.dist != "beta2":
            raise ValidationError(f"gen: --{name} applies only with --dist beta2")
    if args.family is not None:
        # only the flags given, so each default stays with its builder
        params = {name: v if name in ("n", "k") else parse_rational(v) for name, v in given.items()}
        inst = canonical(args.family, **params)
    else:
        opts = {**_GEN_RANDOM, **given}
        dist_kind = ("beta2", opts["alpha"], opts["beta"]) if opts["dist"] == "beta2" else opts["dist"]
        inst = gen_random(
            n=opts["students"],
            m=opts["colleges"],
            capacities=opts["capacities"],
            num_features=opts["features"],
            dist_kind=dist_kind,
            seed=opts["seed"],
        )
    _emit(args, serialize_instance(inst))
    if args.out:
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_sampling(p):
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="Monte Carlo seed")


def _add_common(p, with_strategy=False, formats=("text", "json")):
    p.add_argument("--format", choices=list(formats), default=formats[0])
    p.add_argument("--out", help="write output to this path instead of stdout")
    if with_strategy:
        p.add_argument("--strategy", required=True, choices=[s.value for s in Strategy])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="featmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a proposing strategy on an instance")
    p.add_argument("instance")
    _add_sampling(p)
    _add_common(p, with_strategy=True, formats=("text", "json", "csv"))
    p.add_argument("--trace", action="store_true", help="print round-by-round proposals")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pros", help="evaluate the stability probability of a given matching")
    p.add_argument("instance")
    p.add_argument("--matching", required=True, help="JSON file mapping student id -> college id or null")
    p.add_argument("--mc", action="store_true", help="force the Monte Carlo estimator")
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(func=_cmd_pros)

    p = sub.add_parser("optimal", help="exact optimal-stability search by branch and bound")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_common(p)
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("audit-ic", help="incentive-compatibility audit over deterministic misreports")
    p.add_argument("instance")
    p.add_argument("--level", choices=["ic-c", "ic-r"], default="ic-c")
    p.add_argument("--budget", type=int, default=AUDIT_BUDGET)
    _add_sampling(p)
    _add_common(p, with_strategy=True)
    p.set_defaults(func=_cmd_audit_ic)

    p = sub.add_parser("experiment", help="random-instance ratio experiment with CSV and SVG output")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--sizes", default="3,4", help="comma-separated sizes, n = m per size")
    p.add_argument("--capacities", choices=["ones", "spread", "both"], default="ones")
    p.add_argument("--strategies", default="all", help="'all' or comma-separated subset")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out-csv", default="experiment.csv")
    p.add_argument("--out-svg", default="experiment.svg")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("paper-check", help="verify all reference values; exit 1 on any failure")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_paper_check)

    p = sub.add_parser("gen", help="emit a canonical or random instance as JSON")
    p.add_argument("--family", choices=list(FAMILIES), help="canonical family name")
    p.add_argument("--delta", help="family parameter, rational like 1/10")
    p.add_argument("--eps", help="family parameter, rational like 1/1000")
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--k", type=int, help="number of triples (golden-ratio family)")
    p.add_argument("--y", help="golden-ratio family parameter in [1/5, 4/5]")
    p.add_argument("--z", help="golden-ratio family parameter in [0, 1]")
    # random mode, defaults in _GEN_RANDOM
    p.add_argument("--students", type=int)
    p.add_argument("--colleges", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--dist", choices=["uniform_simplex", "discrete", "beta2"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--capacities", help="'ones', 'spread'")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout's reader is gone: exit as a shell reports SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ModelError, OSError) as exc:  # OSError: any file read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
