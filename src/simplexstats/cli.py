"""Command line entry point.

Subcommands mirror the library: ``fit``, ``test``, ``ci``, ``tree-search``,
``simulate``, ``ternary``. Every data-driven subcommand reads a grouped
compositional CSV. ``ternary`` writes an SVG file to ``--out``; every other
subcommand prints a report as text by default, as JSON with ``--json``, and
can also write it to a file with ``--out``. Two flags that exclude each
other, or a flag the chosen method would drop, are usage problems. Exit
codes: 0 on success, 1 for input and usage problems, 2 when a numerical
routine fails to converge.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, dirichlet, inference, nested, report, simulate, ternary, treesearch
from .composition import CompositionDataset, sample_correlation
from .errors import InputError, NumericalError

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    if any(not part for part in items):
        raise InputError(f"bad comma-separated list: {text!r}")
    return items


def _alpha_vector(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in _csv_list(text)]
    except ValueError:
        raise InputError(f"bad concentration list: {text!r}") from None
    return np.asarray(values, dtype=float)


def _add_csv_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("csv", help="grouped compositional data, one row per observation")
    sub.add_argument("--group-column", default="group", help="name of the label column (default: group)")
    sub.add_argument(
        "--components",
        default=None,
        help="comma-separated component columns to use (default: every non-label column)",
    )
    sub.add_argument(
        "--zero-replace",
        type=float,
        default=None,
        metavar="EPS",
        help="replace exact zeros with EPS and renormalize each row",
    )


def _add_report_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="print the report as JSON instead of text")
    sub.add_argument("--out", default=None, metavar="FILE", help="also write the JSON report to FILE")
    sub.add_argument(
        "--stamp",
        action="store_true",
        help="include a creation timestamp (off by default so reruns are byte-identical)",
    )


def _add_tree_options(sub: argparse.ArgumentParser) -> None:
    choice = sub.add_mutually_exclusive_group()
    choice.add_argument("--tree", default=None, help="nesting tree, e.g. '((AQ1,OQ),(AQ2,TQ))'")
    choice.add_argument(
        "--tree-search",
        action="store_true",
        help="pick the nesting tree by likelihood search over all candidate shapes",
    )
    sub.add_argument(
        "--criterion",
        choices=("loglik", "aic"),
        default=None,
        help="ranking criterion for --tree-search (default: loglik)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplexstats",
        description="Two-sample inference for compositional data under Dirichlet and nested Dirichlet models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    subs.required = True

    p_fit = subs.add_parser("fit", help="fit a model to each group", parents=[], description="Fit a Dirichlet or nested Dirichlet model to each group in a CSV.")
    p_fit.add_argument("--model", choices=("dirichlet", "ndd"), default="dirichlet")
    _add_tree_options(p_fit)
    _add_csv_options(p_fit)
    _add_report_options(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_test = subs.add_parser("test", help="run a two-sample or uniformity test", description="Run a hypothesis test on grouped compositional data.")
    p_test.add_argument(
        "--method",
        choices=("dirichlet-lrt", "ndd-lrt", "clr-hotelling", "uniformity", "maugard"),
        required=True,
    )
    _add_tree_options(p_test)
    p_test.add_argument("--group", default=None, help="group to test (uniformity only; default: the single group present)")
    p_test.add_argument("--level", type=float, default=None, help="decision level for the screening procedure (maugard only; default: 0.05)")
    calibration = p_test.add_mutually_exclusive_group()
    calibration.add_argument(
        "--no-calibration",
        action="store_true",
        help="use the asymptotic chi-square decision instead of the simulated finite-sample one",
    )
    calibration.add_argument(
        "--calibration-replicates",
        type=int,
        default=None,
        help=f"reference draws for the finite-sample calibration (default: {inference.CALIBRATION_REPLICATES})",
    )
    _add_csv_options(p_test)
    _add_report_options(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_ci = subs.add_parser("ci", help="confidence intervals for mean differences", description="Componentwise confidence intervals for the difference of group mean compositions.")
    p_ci.add_argument("--model", choices=("dirichlet", "ndd"), default="dirichlet")
    _add_tree_options(p_ci)
    p_ci.add_argument("--level", type=float, default=0.95, help="simultaneous confidence level (default: 0.95)")
    _add_csv_options(p_ci)
    _add_report_options(p_ci)
    p_ci.set_defaults(func=_cmd_ci)

    p_ts = subs.add_parser("tree-search", help="enumerate, screen, and rank nesting trees", description="Enumerate candidate nesting trees, drop shapes incompatible with the sample correlations, and rank the rest by fit.")
    p_ts.add_argument("--criterion", choices=("loglik", "aic"), default="loglik")
    _add_csv_options(p_ts)
    _add_report_options(p_ts)
    p_ts.set_defaults(func=_cmd_tree_search)

    p_sim = subs.add_parser("simulate", help="Monte Carlo error-rate studies", description="Estimate rejection rates of a testing procedure over simulated two-group datasets.")
    p_sim.add_argument("mode", choices=("type1", "power"), help="type1: both groups share one generator; power: the groups differ")
    p_sim.add_argument(
        "--procedure",
        choices=("maugard", "dirichlet-lrt", "ndd-lrt"),
        default="dirichlet-lrt",
    )
    generator_1 = p_sim.add_mutually_exclusive_group()
    generator_2 = p_sim.add_mutually_exclusive_group()
    generator_1.add_argument("--alpha", default=None, help="generator concentrations for group 1, e.g. 12,5,5,5")
    generator_2.add_argument("--alpha2", default=None, help="generator concentrations for group 2 (power mode)")
    generator_1.add_argument("--gen-tree", default=None, help="weighted nesting tree generator for group 1")
    generator_2.add_argument("--gen-tree2", default=None, help="weighted nesting tree generator for group 2 (power mode)")
    p_sim.add_argument("--tree", default=None, help="nesting tree the ndd-lrt procedure tests with")
    p_sim.add_argument("--n", type=int, required=True, help="observations per group")
    p_sim.add_argument("--n2", type=int, default=None, help="observations in group 2 when unequal")
    p_sim.add_argument("--replicates", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0, help="master seed; fixed seeds give identical runs")
    p_sim.add_argument("--level", type=float, default=0.05)
    calibration = p_sim.add_mutually_exclusive_group()
    calibration.add_argument("--no-calibration", action="store_true", help="maugard only: use the asymptotic decision")
    calibration.add_argument("--calibration-replicates", type=int, default=None, help=f"maugard only (default: {inference.CALIBRATION_REPLICATES})")
    _add_report_options(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tern = subs.add_parser("ternary", help="ternary scatter plots as SVG", description="Draw grouped ternary scatter panels and write them to an SVG file.")
    panels = p_tern.add_mutually_exclusive_group()
    panels.add_argument("--pair", action="append", default=None, metavar="A,B", help="components for the bottom corners of one panel; repeatable")
    panels.add_argument("--all-pairs", action="store_true", help="one panel for every unordered component pair")
    _add_csv_options(p_tern)
    p_tern.add_argument("--out", required=True, metavar="FILE", help="SVG file to write")
    p_tern.set_defaults(func=_cmd_ternary)

    return parser


# ---------------------------------------------------------------------------
# shared helpers


def _load_dataset(args) -> CompositionDataset:
    components = _csv_list(args.components) if args.components else None
    return report.parse_csv(
        args.csv,
        group_column=args.group_column,
        components=components,
        zero_replace=args.zero_replace,
    )


def _calibration(args) -> int | None:
    """The one calibration setting: reference draws, or None for the
    asymptotic decision (--no-calibration)."""
    if args.no_calibration:
        return None
    if args.calibration_replicates is None:
        return inference.CALIBRATION_REPLICATES
    return args.calibration_replicates


def _reject_unused(args, selector: str, *flags: str) -> None:
    """Raise InputError on the first of flags given on the command line:
    each applies only with selector, so the command would drop it. A flag
    counts as given when its value is neither None nor False, its defaults."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            raise InputError(f"{flag} applies only with {selector}")


def _data_config(args) -> dict:
    config = {"csv": args.csv, "group_column": args.group_column}
    if args.components:
        config["components"] = _csv_list(args.components)
    if args.zero_replace is not None:
        config["zero_replace"] = args.zero_replace
    return config


def _emit(kind: str, config: dict, results: dict, args) -> int:
    created = None
    if args.stamp:
        import datetime

        created = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    doc = report.ResultDocument(kind=kind, version=__version__, config=config, results=results, created=created)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc.to_json())
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc}") from exc
    if args.json:
        sys.stdout.write(doc.to_json())
    else:
        sys.stdout.write(report.render_text(doc))
    return 0


def _tree_shape(args, dataset: CompositionDataset, config: dict, wanted: bool, selector: str):
    """The tree a subcommand uses, recorded in config: parsed from --tree or
    found by search. When no nested model is wanted it is None, and a tree
    flag, which would go unused, is an error that names selector, the
    option that selects one; so is --criterion without --tree-search."""
    if not args.tree_search:
        _reject_unused(args, "--tree-search", "--criterion")
    if not wanted:
        _reject_unused(args, selector, "--tree", "--tree-search")
        return None
    if args.tree:
        tree = nested.parse_tree(args.tree).strip_alphas()
        if tree.n_components != dataset.n_components:
            raise InputError(
                f"tree covers {tree.n_components} components, data has {dataset.n_components}"
            )
    elif args.tree_search:
        best, _ = treesearch.search(dataset, criterion=args.criterion or "loglik")
        tree = best.tree.strip_alphas()
    else:
        raise InputError("a nested model needs --tree or --tree-search")
    config["tree"] = tree.render(include_alphas=False)
    return tree


def _report_payload(tr: inference.TestReport) -> dict:
    payload = {
        "test": tr.test,
        "statistic": tr.statistic,
        "df": list(tr.df),
        "p_value": tr.p_value,
        "groups": list(tr.groups),
        "converged": tr.converged,
    }
    if tr.details:
        payload["details"] = tr.details
    return payload


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    dataset = _load_dataset(args)
    config = _data_config(args)
    config["model"] = args.model
    tree = _tree_shape(args, dataset, config, args.model == "ndd", "--model ndd")
    groups = {}
    for label in dataset.groups:
        fit, mean, mean_se = inference._group_fit(dataset, label, tree)
        if args.model == "dirichlet":
            fitted = {
                "alpha": fit.params.alpha,
                "precision": fit.params.precision,
                "mean": mean,
                "mean_se": mean_se,
            }
        else:
            fitted = {"tree": fit.params.tree.render(), "leaf_mean": mean, "leaf_mean_se": mean_se}
        groups[label] = {
            "n": dataset.labels.count(label),
            **fitted,
            "log_likelihood": fit.log_likelihood,
        }
    results = {"components": list(dataset.components), "groups": groups}
    return _emit("fit", config, results, args)


def _uniformity_group(args, dataset: CompositionDataset) -> str:
    if args.group is not None:
        if args.group not in dataset.groups:
            raise InputError(f"unknown group {args.group!r}; dataset has {list(dataset.groups)}")
        return args.group
    if len(dataset.groups) == 1:
        return dataset.groups[0]
    raise InputError(
        f"dataset has groups {list(dataset.groups)}; pick one with --group"
    )


def _cmd_test(args) -> int:
    dataset = _load_dataset(args)
    config = _data_config(args)
    config["method"] = args.method
    if args.method != "uniformity":
        _reject_unused(args, "--method uniformity", "--group")
    if args.method != "maugard":
        _reject_unused(args, "--method maugard", "--level")
    if args.method not in ("uniformity", "maugard"):
        _reject_unused(
            args, "--method uniformity or maugard", "--no-calibration", "--calibration-replicates"
        )
    shape = _tree_shape(args, dataset, config, args.method == "ndd-lrt", "--method ndd-lrt")
    if args.method == "dirichlet-lrt":
        tr = inference.two_sample_dirichlet_lrt(dataset)
        results = _report_payload(tr)
    elif args.method == "ndd-lrt":
        tr = inference.two_sample_ndd_lrt(dataset, shape)
        results = _report_payload(tr)
    elif args.method == "clr-hotelling":
        tr = inference.clr_hotelling_test(dataset)
        results = _report_payload(tr)
    elif args.method == "uniformity":
        label = _uniformity_group(args, dataset)
        config["group"] = label
        tr = inference.one_sample_uniformity_test(
            dataset.group_matrix(label),
            group=label,
            calibration_replicates=_calibration(args),
        )
        results = _report_payload(tr)
    else:  # maugard
        level = 0.05 if args.level is None else args.level
        config["level"] = level
        config["calibrated"] = not args.no_calibration
        res = inference.maugard_procedure(
            dataset, level=level, calibration_replicates=_calibration(args)
        )
        results = {
            "verdict": res.verdict,
            "level": res.level,
            "reports": [_report_payload(tr) for tr in res.reports],
        }
    return _emit("test", config, results, args)


def _cmd_ci(args) -> int:
    dataset = _load_dataset(args)
    config = _data_config(args)
    config["model"] = args.model
    config["level"] = args.level
    tree = _tree_shape(args, dataset, config, args.model == "ndd", "--model ndd")
    cis = inference.pairwise_mean_cis(dataset, level=args.level, tree=tree)
    groups = list(dataset.groups[:2])
    results = {
        "groups": groups,
        "difference": f"mean({groups[0]}) - mean({groups[1]})",
        "z_value": cis[0].z_value,
        "intervals": [
            {
                "component": ci.component,
                "estimate": ci.estimate,
                "se": ci.se,
                "lower": ci.lower,
                "upper": ci.upper,
            }
            for ci in cis
        ],
    }
    return _emit("ci", config, results, args)


def _cmd_tree_search(args) -> int:
    dataset = _load_dataset(args)
    config = _data_config(args)
    config["criterion"] = args.criterion
    best, ranking = treesearch.search(dataset, criterion=args.criterion)
    corr = sample_correlation(dataset)
    table = []
    for cand in ranking:
        row = {"tree": cand.tree.render(include_alphas=False)}
        if cand.filtered:
            row["filtered"] = True
            row["reason"] = cand.filter_reason
        else:
            row["log_likelihood"] = cand.log_likelihood
            row["converged"] = cand.log_likelihood is not None
        table.append(row)
    results = {
        "components": list(dataset.components),
        "correlation": corr,
        "n_candidates": len(ranking),
        "n_filtered": sum(1 for c in ranking if c.filtered),
        "best_tree": best.tree.render(),
        "ranking": table,
    }
    return _emit("tree-search", config, results, args)


def _sim_generator(alpha_text, tree_text):
    if tree_text:
        tree = nested.parse_tree(tree_text)
        return nested.NddParams(tree=tree)
    if alpha_text:
        return dirichlet.DirichletParams(alpha=_alpha_vector(alpha_text))
    return None


def _generator_config(gen):
    """A study generator as its report shows it: the alphas or the tree."""
    return gen.alpha if isinstance(gen, dirichlet.DirichletParams) else gen.tree.render()


def _cmd_simulate(args) -> int:
    if args.procedure != "ndd-lrt":
        _reject_unused(args, "--procedure ndd-lrt", "--tree")
    if args.procedure != "maugard":
        _reject_unused(args, "--procedure maugard", "--no-calibration", "--calibration-replicates")
    gen1 = _sim_generator(args.alpha, args.gen_tree)
    if gen1 is None:
        raise InputError("the simulation needs a generator: --alpha or --gen-tree")
    gen2 = _sim_generator(args.alpha2, args.gen_tree2)
    if args.mode == "type1":
        if gen2 is not None:
            raise InputError("type1 mode uses one shared generator; drop --alpha2/--gen-tree2")
        gen2 = gen1
    elif gen2 is None:
        raise InputError("power mode needs a second generator: --alpha2 or --gen-tree2")

    if args.procedure == "maugard":
        procedure = simulate.MaugardProcedure(calibration_replicates=_calibration(args))
    elif args.procedure == "dirichlet-lrt":
        procedure = simulate.DirichletLRT()
    else:
        if not args.tree:
            raise InputError("the ndd-lrt procedure needs --tree")
        procedure = simulate.NddLRT(tree=nested.parse_tree(args.tree).strip_alphas())

    n_per_group = args.n if args.n2 is None else (args.n, args.n2)
    spec = simulate.SimSpec(
        generator_1=gen1,
        generator_2=gen2,
        n_per_group=n_per_group,
        procedure=procedure,
        replicates=args.replicates,
        level=args.level,
        master_seed=args.seed,
    )
    runner = simulate.run_type1_study if args.mode == "type1" else simulate.run_power_study
    res = runner(spec)

    config = {
        "mode": args.mode,
        "procedure": res.procedure,
        "n_per_group": list(res.n_per_group),
        "replicates": res.replicates,
        "level": res.level,
        "master_seed": res.master_seed,
    }
    config["generator_1"] = _generator_config(gen1)
    if args.mode == "power":
        config["generator_2"] = _generator_config(gen2)
    if isinstance(procedure, simulate.NddLRT):
        config["tree"] = procedure.tree.render(include_alphas=False)
    if isinstance(procedure, simulate.MaugardProcedure):
        # null: the asymptotic decision (--no-calibration)
        config["calibration_replicates"] = procedure.calibration_replicates
    results = {
        "counts": dict(res.counts),
        "rates": dict(res.rates),
        "mc_se": dict(res.mc_se),
    }
    return _emit("simulate", config, results, args)


def _cmd_ternary(args) -> int:
    dataset = _load_dataset(args)
    pairs = []
    for text in args.pair or ():
        names = _csv_list(text)
        if len(names) != 2:
            raise InputError(f"--pair needs exactly two component names, got {text!r}")
        pairs.append((names[0], names[1]))
    # --all-pairs draws every pair; with neither flag, no pair is requested.
    ternary.emit_ternary_svg(dataset, args.out, pairs=None if args.all_pairs else pairs)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"simplexstats: error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"simplexstats: numerical failure: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"simplexstats: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
