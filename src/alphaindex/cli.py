"""Batch command-line front end.

Subcommands: ``metrics``, ``rank``, ``lorenz``, ``psi``, ``distfit``,
``synth``, ``validate``.  Every command is deterministic given its flags;
all randomness flows from ``--seed``.  Exit codes: 0 success, 1 domain or
validation failure, 2 I/O failure.

Plot-oriented commands emit, in ``table`` format, numeric columns under
``#``-prefixed headers (one blank-line-separated block per group), directly
consumable by plotting tools.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import distribution, ingest, metrics, ranking, synth
from .errors import AlphaIndexError
from .model import Dataset


class CliError(Exception):
    """Domain-level failure; message goes to stderr, exit code is 1."""


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value: float) -> str:
    """Full-precision, deterministic float rendering for csv/json-ish output."""
    return repr(float(value))


def _plot_num(value: float) -> str:
    return format(float(value), ".10g")


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(headers: list[str], rows: list[list[str]], comments: tuple[str, ...] = ()) -> str:
    buf = io.StringIO()
    for comment in comments:
        buf.write(f"# {comment}\r\n")
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _render_json(document) -> str:
    return json.dumps(document, indent=2) + "\n"


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _warn(args, message: str) -> None:
    if not args.quiet:
        print(f"warning: {message}", file=sys.stderr)


def _warn_all(args, warnings) -> None:
    """Emit warnings, collapsing long runs so big datasets stay readable."""
    if len(warnings) <= 5:
        for warning in warnings:
            _warn(args, warning)
    else:
        for warning in warnings[:3]:
            _warn(args, warning)
        _warn(args, f"... and {len(warnings) - 3} further warnings")


def _load_dataset(args) -> Dataset:
    delimiter = "\t" if args.tab else ","
    report = ingest.read_dataset_file(args.input, delimiter=delimiter)
    _warn_all(args, report.warnings)
    if not report.ok:
        raise CliError("input rejected:\n  " + "\n  ".join(report.errors))
    if not report.dataset.groups:
        raise CliError("dataset has no groups")
    return report.dataset


# ---------------------------------------------------------------------------
# commands


def _cmd_metrics(args) -> str:
    dataset = _load_dataset(args)
    summaries = [(g.id, metrics.group_metrics(g)) for g in dataset.groups]
    if args.format == "json":
        return _render_json(
            {
                "groups": [
                    {
                        "group_id": gid,
                        "n": m.n,
                        "mean_h": m.mean_h,
                        "stderr_h": m.stderr_h,
                        "h_group": m.h_group,
                        "gini": m.gini,
                    }
                    for gid, m in summaries
                ]
            }
        )
    headers = ["group", "n", "mean_h", "stderr_h", "h_group", "gini"]
    if args.format == "csv":
        rows = [
            [gid, str(m.n), _fmt(m.mean_h), _fmt(m.stderr_h), str(m.h_group), _fmt(m.gini)]
            for gid, m in summaries
        ]
        return _render_csv(headers, rows)
    rows = [
        [gid, str(m.n), f"{m.mean_h:.4f}", f"{m.stderr_h:.4f}", str(m.h_group), f"{m.gini:.6f}"]
        for gid, m in summaries
    ]
    return _render_table(headers, rows)


def _cmd_rank(args) -> str:
    dataset = _load_dataset(args)
    if args.samples < 1:
        raise CliError(f"--samples must be positive, got {args.samples}")
    if args.seed < 0:
        raise CliError("--seed must be non-negative")
    if args.gini_floor <= 0:
        raise CliError(f"--gini-floor must be positive, got {args.gini_floor}")
    config = ranking.RankingConfig(
        n_samples=args.samples,
        seed=args.seed,
        reference_size=args.ref_size,
        gini_floor=args.gini_floor,
    )
    report = ranking.rank(dataset.groups, config)
    for gid in report.floored_group_ids:
        _warn(args, f"group {gid!r} gini below floor {report.gini_floor}; clamped")
    if args.format == "json":
        return _render_json(report.as_dict())
    provenance = (
        f"seed={report.seed} n_samples={report.n_samples} "
        f"reference={report.reference_group_id} (size {report.reference_size}) "
        f"gini_floor={report.gini_floor}"
    )
    headers = ["rank", "group", "gini", "h_group", "relative_h_group", "alpha"]
    if args.format == "csv":
        rows = [
            [str(r.rank), r.group_id, _fmt(r.gini), str(r.h_group), _fmt(r.relative_h_group), _fmt(r.alpha)]
            for r in report.rows
        ]
        return _render_csv(headers, rows, comments=[provenance])
    rows = [
        [
            str(r.rank),
            r.group_id,
            f"{r.gini:.4f}",
            str(r.h_group),
            f"{r.relative_h_group:.4f}",
            f"{r.alpha:.5f}",
        ]
        for r in report.rows
    ]
    return f"# {provenance}\n" + _render_table(headers, rows)


def _lorenz_points(group) -> list[tuple[float, float]]:
    curve = metrics.lorenz_curve(group)
    return [(0.0, 0.0), *curve.points]


def _cmd_lorenz(args) -> str:
    dataset = _load_dataset(args)
    series = [(g.id, _lorenz_points(g)) for g in dataset.groups]
    identity = [(0.0, 0.0), (1.0, 1.0)]
    if args.format == "json":
        return _render_json(
            {
                "groups": [
                    {"group_id": gid, "points": [[f, phi] for f, phi in pts]}
                    for gid, pts in series
                ],
                "identity": [[f, phi] for f, phi in identity],
            }
        )
    if args.format == "csv":
        rows = [
            [gid, _fmt(f), _fmt(phi)] for gid, pts in series for f, phi in pts
        ] + [["identity", _fmt(f), _fmt(phi)] for f, phi in identity]
        return _render_csv(["group", "f", "phi"], rows)
    blocks = ["# lorenz curve: columns f phi"]
    for gid, pts in [*series, ("identity", identity)]:
        lines = [f"# group: {gid}"]
        lines += [f"{_plot_num(f)} {_plot_num(phi)}" for f, phi in pts]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _cmd_psi(args) -> str:
    dataset = _load_dataset(args)
    series = [(g.id, metrics.psi_curve(g), metrics.h_group(g)) for g in dataset.groups]
    if args.format == "json":
        return _render_json(
            {
                "groups": [
                    {"group_id": gid, "h_group": hg, "points": [[h, psi] for h, psi in pts]}
                    for gid, pts, hg in series
                ]
            }
        )
    if args.format == "csv":
        rows = [
            [gid, str(h), str(psi), str(hg)]
            for gid, pts, hg in series
            for h, psi in pts
        ]
        return _render_csv(["group", "h", "psi", "h_group"], rows)
    blocks = ["# member-count survival curve: columns h psi"]
    for gid, pts, hg in series:
        lines = [f"# group: {gid}", f"# h_group: {hg}"]
        lines += [f"{h} {psi}" for h, psi in pts]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# -- distfit ----------------------------------------------------------------


# Largest grid a start:stop:step spec may expand to, checked before the grid
# is built (the same guard as distribution's histogram bin limit).
_MAX_GRID = 1_000_000


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:step' (inclusive) or a comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError(f"grid {spec!r} must be start:stop:step or a comma list")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise CliError(f"grid {spec!r} has a non-finite start, stop or step")
        if step <= 0 or stop < start:
            raise CliError(f"grid {spec!r} has a bad range")
        span = (stop - start) / step  # may overflow to inf for finite bounds
        if not span < _MAX_GRID:
            raise CliError(f"grid {spec!r} exceeds the {_MAX_GRID} point limit")
        return tuple(round(start + i * step, 12) for i in range(round(span) + 1))
    try:
        return tuple(float(p) for p in spec.split(","))
    except ValueError:
        raise CliError(f"grid {spec!r} is not a comma list of numbers") from None


def _citation_values(args, dataset) -> list[float]:
    """Pooled positive citation totals; missing totals abort, zeros are excluded."""
    missing = [
        f"{g.id}/{m.id}"
        for g in dataset.groups
        for m in g.members
        if m.total_citations is None
    ]
    if missing:
        raise CliError(
            "members without total_citations cannot join citation analyses: "
            + ", ".join(missing)
        )
    values = [m.total_citations for g in dataset.groups for m in g.members]
    positive = [float(v) for v in values if v > 0]
    excluded = len(values) - len(positive)
    if excluded:
        _warn(args, f"excluded {excluded} zero-citation member(s) from the fit")
    return positive


# distfit options that only some analyses read; any other analysis refuses them
_DISTFIT_OPTION_ANALYSES = {
    "objective": ("--objective", ("beta",)),
    "raw_objective": ("--raw-objective", ("beta",)),
    "beta_grid": ("--beta-grid", ("beta", "moments")),
    "k_grid": ("--k-grid", ("beta", "moments")),
}


def _cmd_distfit(args) -> str:
    for attr, (flag, analyses) in _DISTFIT_OPTION_ANALYSES.items():
        if getattr(args, attr) not in (None, False) and args.analysis not in analyses:
            raise CliError(
                f"{flag} does not apply to --analysis {args.analysis}; "
                f"it applies to --analysis {' or '.join(analyses)}"
            )
    dataset = _load_dataset(args)
    handler = {
        "slope": _distfit_slope,
        "beta": _distfit_beta,
        "giddings": _distfit_giddings,
        "normality": _distfit_normality,
        "moments": _distfit_moments,
    }[args.analysis]
    return handler(args, dataset)


def _distfit_slope(args, dataset) -> str:
    missing = [
        f"{g.id}/{m.id}"
        for g in dataset.groups
        for m in g.members
        if m.total_citations is None
    ]
    if missing:
        raise CliError(
            "members without total_citations cannot join the slope fit: "
            + ", ".join(missing)
        )
    pairs = [(m.h_index, m.total_citations) for g in dataset.groups for m in g.members]
    fit = distribution.power_law_slope(pairs)
    if fit.points_dropped:
        _warn(args, f"dropped {fit.points_dropped} pair(s) with a zero h-index or citation count")
    if args.format == "json":
        return _render_json(
            {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "points_used": fit.points_used,
                "points_dropped": fit.points_dropped,
            }
        )
    headers = ["slope", "intercept", "points_used", "points_dropped"]
    row = [_fmt(fit.slope), _fmt(fit.intercept), str(fit.points_used), str(fit.points_dropped)]
    if args.format == "csv":
        return _render_csv(headers, [row])
    return _render_table(headers, [row])


def _distfit_beta(args, dataset) -> str:
    values = _citation_values(args, dataset)
    beta_grid = _parse_grid(args.beta_grid) if args.beta_grid else distribution.DEFAULT_BETA_GRID
    k_grid = _parse_grid(args.k_grid) if args.k_grid else distribution.DEFAULT_K_GRID
    if args.raw_objective and args.objective != "moments":
        raise CliError("--raw-objective applies only with --objective moments")
    try:
        fit = distribution.fit_beta(
            values,
            beta_grid,
            k_grid,
            log_residuals=not args.raw_objective,
            objective=args.objective or "likelihood",
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.format == "json":
        return _render_json(
            {
                "beta": fit.beta,
                "grid": list(fit.grid),
                "objective_per_beta": list(fit.objective_per_beta),
                "k_grid": list(fit.k_grid),
            }
        )
    if args.format == "csv":
        rows = [[_fmt(b), _fmt(o)] for b, o in zip(fit.grid, fit.objective_per_beta)]
        return _render_csv(["beta", "objective"], rows, comments=[f"best beta: {fit.beta}"])
    lines = [f"# best beta: {fit.beta}", "# columns: beta objective"]
    lines += [f"{_plot_num(b)} {_plot_num(o)}" for b, o in zip(fit.grid, fit.objective_per_beta)]
    return "\n".join(lines) + "\n"


def _distfit_giddings(args, dataset) -> str:
    hs = [m.h_index for g in dataset.groups for m in g.members]
    width_or_ratio = args.bin_ratio if args.binning == "geometric" else args.bin_width
    hist = distribution.build_histogram(hs, args.binning, width_or_ratio)
    fit = distribution.fit_giddings(hist)
    doc = {
        "baseline": fit.baseline,
        "amplitude": fit.amplitude,
        "width": fit.width,
        "center": fit.center,
        "residual_ss": fit.residual_ss,
        "converged": fit.converged,
        "bins": len(hist.counts),
    }
    if args.format == "json":
        return _render_json(doc)
    headers = list(doc)
    row = [
        _fmt(fit.baseline),
        _fmt(fit.amplitude),
        _fmt(fit.width),
        _fmt(fit.center),
        _fmt(fit.residual_ss),
        str(fit.converged),
        str(len(hist.counts)),
    ]
    if args.format == "csv":
        return _render_csv(headers, [row])
    return _render_table(headers, [row])


def _distfit_normality(args, dataset) -> str:
    reports = []
    for g in dataset.groups:
        try:
            reports.append((g.id, len(g.members), distribution.shapiro_wilk(g.h_values())))
        except AlphaIndexError as exc:
            raise CliError(f"group {g.id!r}: {exc}") from None
    if args.format == "json":
        return _render_json(
            {
                "groups": [
                    {
                        "group_id": gid,
                        "n": n,
                        "W": r.statistic,
                        "p_value": r.p_value,
                        "kurtosis": r.kurtosis,
                        "skewness": r.skewness,
                        "normal_at_5pct": r.normal_at_5pct,
                    }
                    for gid, n, r in reports
                ]
            }
        )
    headers = ["group", "n", "W", "p_value", "kurtosis", "skewness", "normal_at_5pct"]
    if args.format == "csv":
        rows = [
            [gid, str(n), _fmt(r.statistic), _fmt(r.p_value), _fmt(r.kurtosis), _fmt(r.skewness), str(r.normal_at_5pct)]
            for gid, n, r in reports
        ]
        return _render_csv(headers, rows)
    rows = [
        [
            gid,
            str(n),
            f"{r.statistic:.5f}",
            f"{r.p_value:.5f}",
            f"{r.kurtosis:.5f}",
            f"{r.skewness:.5f}",
            str(r.normal_at_5pct),
        ]
        for gid, n, r in reports
    ]
    return _render_table(headers, rows)


def _distfit_moments(args, dataset) -> str:
    values = _citation_values(args, dataset)
    beta_grid = _parse_grid(args.beta_grid) if args.beta_grid else distribution.DEFAULT_BETA_GRID
    k_grid = _parse_grid(args.k_grid) if args.k_grid else distribution.DEFAULT_K_GRID
    try:
        empirical = [distribution.empirical_moment_ratio(k, values) for k in k_grid]
    except (ValueError, AlphaIndexError) as exc:
        raise CliError(str(exc)) from None
    theoretical = {
        beta: [distribution.theoretical_moment_ratio(k, beta) for k in k_grid]
        for beta in beta_grid
    }
    if args.format == "json":
        return _render_json(
            {
                "k_grid": list(k_grid),
                "empirical": empirical,
                "theoretical": {str(b): vals for b, vals in theoretical.items()},
            }
        )
    headers = ["k", "R"] + [f"M_beta{b:g}" for b in beta_grid]
    rows = []
    for i, k in enumerate(k_grid):
        rows.append(
            [_fmt(k), _fmt(empirical[i])] + [_fmt(theoretical[b][i]) for b in beta_grid]
        )
    if args.format == "csv":
        return _render_csv(headers, rows)
    lines = ["# columns: " + " ".join(headers)]
    for i, k in enumerate(k_grid):
        cells = [_plot_num(k), _plot_num(empirical[i])]
        cells += [_plot_num(theoretical[b][i]) for b in beta_grid]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


# -- synth and validate -------------------------------------------------------


def _cmd_synth(args) -> str:
    if args.beta is None or args.beta <= 0:
        raise CliError(f"--beta must be positive, got {args.beta}")
    if args.x0 <= 0:
        raise CliError(f"--x0 must be positive, got {args.x0}")
    if args.n < 1:
        raise CliError(f"--n must be positive, got {args.n}")
    if args.seed < 0:
        raise CliError("--seed must be non-negative")
    params = synth.StretchedExpParams(beta=args.beta, scale=args.x0)
    rng = np.random.default_rng(args.seed)
    samples = synth.sample_stretched_exp(params, args.n, rng, round_to_int=args.round)

    if args.round:
        group = synth.synth_group(args.group_id, [int(v) for v in samples])
        if args.format == "json":
            return _render_json(ingest.write_dataset(Dataset((group,))))
        headers = list(ingest.SUMMARY_FORM_HEADER)
        rows = [[group.id, m.id, str(m.h_index), ""] for m in group.members]
        if args.format == "csv":
            return _render_csv(headers, rows)
        return _render_table(headers, rows)

    if args.format == "json":
        return _render_json(
            {
                "beta": args.beta,
                "x0": args.x0,
                "n": args.n,
                "seed": args.seed,
                "samples": [float(v) for v in samples],
            }
        )
    if args.format == "csv":
        return _render_csv(["sample"], [[_fmt(v)] for v in samples])
    return "# columns: sample\n" + "\n".join(_fmt(v) for v in samples) + "\n"


def _cmd_validate(args) -> str:
    delimiter = "\t" if args.tab else ","
    report = ingest.read_dataset_file(args.input, delimiter=delimiter)
    _warn_all(args, report.warnings)
    if not report.ok:
        raise CliError("invalid dataset:\n  " + "\n  ".join(report.errors))
    dataset = report.dataset
    n_members = sum(len(g.members) for g in dataset.groups)
    if args.format == "json":
        return _render_json(
            {"valid": True, "groups": len(dataset.groups), "members": n_members}
        )
    if args.format == "csv":
        return _render_csv(["valid", "groups", "members"], [["True", str(len(dataset.groups)), str(n_members)]])
    return f"dataset valid: {len(dataset.groups)} group(s), {n_members} member(s)\n"


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--output", metavar="PATH", default=None)
    common.add_argument("--quiet", action="store_true", help="suppress warnings on stderr")

    reading = argparse.ArgumentParser(add_help=False)
    reading.add_argument("input", help="dataset file (.json, or CSV in long/summary form)")
    reading.add_argument("--tab", action="store_true", help="tab-delimited tabular input")

    parser = argparse.ArgumentParser(
        prog="alphaindex",
        description="Rank researcher groups by the alpha-index and analyze "
        "their citation and h-index distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", parents=[common, reading], help="per-group summary metrics")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("rank", parents=[common, reading], help="alpha-index ranking")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000, help="subsets per group (default 1000)")
    p.add_argument("--ref-size", type=int, default=None, help="override the reference subset size")
    p.add_argument("--gini-floor", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("lorenz", parents=[common, reading], help="cumulative h-share curves")
    p.set_defaults(handler=_cmd_lorenz)

    p = sub.add_parser("psi", parents=[common, reading], help="member-count survival curves")
    p.set_defaults(handler=_cmd_psi)

    p = sub.add_parser("distfit", parents=[common, reading], help="distribution analyses")
    p.add_argument(
        "--analysis",
        required=True,
        choices=("slope", "beta", "giddings", "normality", "moments"),
    )
    p.add_argument("--binning", choices=distribution.BINNING_MODES, default="linear")
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--bin-ratio", type=float, default=2.0)
    p.add_argument("--beta-grid", default=None, help="start:stop:step or comma list")
    p.add_argument("--k-grid", default=None, help="start:stop:step or comma list")
    p.add_argument(
        "--objective",
        choices=distribution.BETA_OBJECTIVES,
        default=None,
        help="shape-fit objective: profile likelihood (default) or moment ratios",
    )
    p.add_argument(
        "--raw-objective", action="store_true", help="raw-space residuals for --objective moments"
    )
    p.set_defaults(handler=_cmd_distfit)

    p = sub.add_parser("synth", parents=[common], help="synthetic stretched-exponential sample")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x0", type=float, default=1.0, help="scale parameter (default 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--round", action="store_true", help="round draws to integers and emit a summary-form dataset")
    p.add_argument("--group-id", default="synthetic")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("validate", parents=[common, reading], help="check dataset invariants")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except (CliError, AlphaIndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
