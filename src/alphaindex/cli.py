"""Batch command-line front end.

Subcommands: ``metrics``, ``rank``, ``lorenz``, ``psi``, ``distfit``,
``synth``, ``validate``.  Every command is deterministic given its flags;
all randomness flows from ``--seed``.  Exit codes: 0 success, 1 domain or
validation failure, 2 I/O failure.

Each command handler returns one :class:`Result` and never reads
``--format``; :func:`_render` is the one renderer, with one branch per
format (``table``, ``csv``, ``json``).  Plot-oriented commands emit, in
``table`` format, numeric columns under ``#``-prefixed headers (one
blank-line-separated block per group), directly consumable by plotting
tools.

Importing this module loads no numpy: each handler imports the numerical
modules it needs (``distribution``, ``ranking``, ``synth``) in its body, so
``validate``, ``metrics``, ``lorenz`` and ``psi`` start without them.

:func:`main` pauses the cyclic garbage collector from the end of argument
parsing until it returns, and then leaves it on or off as it found it.  A
command frees its data by reference counting; the collector's passes find
almost nothing to free, but the profiles an ingest builds (tuples, which it
keeps tracking) push it into full passes over every object numpy and scipy
have loaded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import ingest, metrics
from .errors import AlphaIndexError
from .model import Dataset


class CliError(Exception):
    """Domain-level failure; message goes to stderr, exit code is 1."""


# ---------------------------------------------------------------------------
# output plumbing


@dataclass(frozen=True)
class Result:
    """What one command produced, in a form every output format can use.

    ``doc`` is the ``json`` document (tuples render as arrays).
    ``headers`` and ``rows`` (typed cells; ``rows`` may be a generator, as
    it is read once) are the ``csv`` table: a float cell is written with
    ``repr``, any other cell with ``str``.  ``comments`` head both ``csv`` and
    ``table`` output as ``# `` lines.  The ``table`` body is ``text`` when
    set; otherwise it is ``rows`` aligned under ``headers``, each cell
    formatted with its column's entry in ``specs`` (default ``""``).
    """

    doc: object
    headers: Sequence[str]
    rows: Iterable[Sequence]
    comments: tuple[str, ...] = ()
    specs: tuple[str, ...] = ()
    text: str | None = None


def _fmt(value: float) -> str:
    """Full-precision, deterministic float rendering for csv/json-ish output."""
    return repr(float(value))


def _plot_num(value: float) -> str:
    return format(float(value), ".10g")


def _render(result: Result, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result.doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.writelines(f"# {comment}\r\n" for comment in result.comments)
        writer = csv.writer(buf)
        writer.writerow(result.headers)
        writer.writerows(
            [_fmt(c) if isinstance(c, float) else c for c in row] for row in result.rows
        )
        return buf.getvalue()
    head = "".join(f"# {comment}\n" for comment in result.comments)
    if result.text is not None:
        return head + result.text
    specs = result.specs or ("",) * len(result.headers)
    lines = [list(result.headers)]
    lines += [[format(c, spec) for c, spec in zip(row, specs)] for row in result.rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(specs))]
    return head + "".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n" for line in lines
    )


def _record(doc: dict, **fields) -> Result:
    """A one-row result whose columns are the document's keys."""
    return Result(doc, list(doc), [list(doc.values())], **fields)


def _groups_doc(headers: Sequence[str], rows) -> dict:
    """``{"groups": [...]}``, one object per row keyed by ``group_id`` and the other headers."""
    keys = ["group_id", *headers[1:]]
    return {"groups": [dict(zip(keys, row)) for row in rows]}


def _plot_columns(headers: Sequence[str], rows, cell=_plot_num) -> str:
    """A ``# columns:`` line, then one space-separated line per row."""
    lines = ["# columns: " + " ".join(headers)]
    lines += [" ".join(cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


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
    if len(warnings) > 5:
        warnings = [*warnings[:3], f"... and {len(warnings) - 3} further warnings"]
    for warning in warnings:
        _warn(args, warning)


def _read_dataset(args, rejected: str) -> Dataset:
    """Ingest ``args.input``, warn, and refuse it with ``rejected:`` and the errors."""
    report = ingest.read_dataset_file(args.input)
    _warn_all(args, report.warnings)
    if not report.ok:
        raise CliError(f"{rejected}:\n  " + "\n  ".join(report.errors))
    return report.dataset


def _load_dataset(args) -> Dataset:
    dataset = _read_dataset(args, "input rejected")
    if not dataset.groups:
        raise CliError("dataset has no groups")
    return dataset


# ---------------------------------------------------------------------------
# commands


def _cmd_metrics(args) -> Result:
    dataset = _load_dataset(args)
    summaries = [(g.id, metrics.group_metrics(g)) for g in dataset.groups]
    headers = ["group", "n", "mean_h", "stderr_h", "h_group", "gini"]
    rows = [[gid, m.n, m.mean_h, m.stderr_h, m.h_group, m.gini] for gid, m in summaries]
    return Result(
        _groups_doc(headers, rows), headers, rows, specs=("", "", ".4f", ".4f", "", ".6f")
    )


def _cmd_rank(args) -> Result:
    from . import ranking

    if args.samples < 1:
        raise CliError(f"--samples must be positive, got {args.samples}")
    if args.samples > _MAX_SAMPLES:
        raise CliError(f"--samples must be at most {_MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise CliError("--seed must be non-negative")
    if args.seed >= 2**64:
        raise CliError("--seed must fit in 64 unsigned bits")
    dataset = _load_dataset(args)
    report = ranking.rank(dataset.groups, n_samples=args.samples, seed=args.seed)
    for gid in report.floored_group_ids:
        _warn(args, f"group {gid!r} gini below floor {ranking.GINI_FLOOR}; clamped")
    provenance = (
        f"seed={report.seed} n_samples={report.n_samples} "
        f"reference={report.reference_group_id} (size {report.reference_size}) "
        f"gini_floor={ranking.GINI_FLOOR}"
    )
    return Result(
        report.as_dict(),
        ["rank", "group", "gini", "h_group", "relative_h_group", "alpha"],
        [[r.rank, r.group_id, r.gini, r.h_group, r.relative_h_group, r.alpha] for r in report.rows],
        comments=(provenance,),
        specs=("", "", ".4f", "", ".4f", ".5f"),
    )


def _cmd_lorenz(args) -> Result:
    dataset = _load_dataset(args)
    series = [(g.id, [(0.0, 0.0), *metrics.lorenz_curve(g).points]) for g in dataset.groups]
    identity = [(0.0, 0.0), (1.0, 1.0)]
    doc = {
        "groups": [{"group_id": gid, "points": pts} for gid, pts in series],
        "identity": identity,
    }
    series.append(("identity", identity))
    blocks = ["# lorenz curve: columns f phi"]
    blocks += [
        "\n".join([f"# group: {gid}", *(f"{_plot_num(f)} {_plot_num(phi)}" for f, phi in pts)])
        for gid, pts in series
    ]
    rows = ((gid, f, phi) for gid, pts in series for f, phi in pts)
    return Result(doc, ["group", "f", "phi"], rows, text="\n\n".join(blocks) + "\n")


def _cmd_psi(args) -> Result:
    dataset = _load_dataset(args)
    series = [(g.id, metrics.psi_curve(g), metrics.h_group(g)) for g in dataset.groups]
    doc = {"groups": [{"group_id": gid, "h_group": hg, "points": pts} for gid, pts, hg in series]}
    # exact integers in every format, so h = 10**23 keeps all its digits
    blocks = ["# member-count survival curve: columns h psi"]
    blocks += [
        "\n".join([f"# group: {gid}", f"# h_group: {hg}", *(f"{h} {psi}" for h, psi in pts)])
        for gid, pts, hg in series
    ]
    rows = ((gid, h, psi, hg) for gid, pts, hg in series for h, psi in pts)
    return Result(doc, ["group", "h", "psi", "h_group"], rows, text="\n\n".join(blocks) + "\n")


# -- distfit ----------------------------------------------------------------


def _require_totals(dataset, analysis: str) -> None:
    missing = [
        f"{g.id}/{m.id}"
        for g in dataset.groups
        for m in g.members
        if m.total_citations is None
    ]
    if missing:
        raise CliError(
            f"members without total_citations cannot join {analysis}: " + ", ".join(missing)
        )


def _citation_totals(args, dataset) -> list[float]:
    """Pooled positive citation totals.

    Missing totals abort; zero totals are excluded with a warning.
    """
    _require_totals(dataset, "citation analyses")
    values = [m.total_citations for g in dataset.groups for m in g.members]
    positive = [float(v) for v in values if v > 0]
    excluded = len(values) - len(positive)
    if excluded:
        _warn(args, f"excluded {excluded} zero-citation member(s) from the fit")
    return positive


def _cmd_distfit(args) -> Result:
    dataset = _load_dataset(args)
    handler = {
        "slope": _distfit_slope,
        "beta": _distfit_beta,
        "giddings": _distfit_giddings,
        "normality": _distfit_normality,
        "moments": _distfit_moments,
    }[args.analysis]
    return handler(args, dataset)


def _distfit_slope(args, dataset) -> Result:
    from . import distribution

    _require_totals(dataset, "the slope fit")
    pairs = [(m.h_index, m.total_citations) for g in dataset.groups for m in g.members]
    fit = distribution.power_law_slope(pairs)
    if fit.points_dropped:
        _warn(args, f"dropped {fit.points_dropped} pair(s) with a zero h-index or citation count")
    return _record(
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "points_used": fit.points_used,
            "points_dropped": fit.points_dropped,
        }
    )


def _distfit_beta(args, dataset) -> Result:
    from . import distribution

    fit = distribution.fit_beta(_citation_totals(args, dataset))
    doc = {
        "beta": fit.beta,
        "grid": list(fit.grid),
        "objective_per_beta": list(fit.objective_per_beta),
    }
    headers = ["beta", "objective"]
    rows = list(zip(fit.grid, fit.objective_per_beta))
    return Result(
        doc,
        headers,
        rows,
        comments=(f"best beta: {fit.beta}",),
        text=_plot_columns(headers, rows),
    )


def _distfit_giddings(args, dataset) -> Result:
    from . import distribution

    hs = [m.h_index for g in dataset.groups for m in g.members]
    hist = distribution.build_histogram(hs, args.bin_width)
    fit = distribution.fit_giddings(hist)
    return _record(
        {
            "baseline": fit.baseline,
            "amplitude": fit.amplitude,
            "width": fit.width,
            "center": fit.center,
            "residual_ss": fit.residual_ss,
            "converged": fit.converged,
            "bins": len(hist.counts),
        }
    )


def _distfit_normality(args, dataset) -> Result:
    from . import distribution

    rows = []
    for g in dataset.groups:
        try:
            r = distribution.shapiro_wilk(g.h_values())
        except AlphaIndexError as exc:
            raise CliError(f"group {g.id!r}: {exc}") from None
        rows.append(
            [g.id, len(g.members), r.statistic, r.p_value, r.kurtosis, r.skewness, r.normal_at_5pct]
        )
    headers = ["group", "n", "W", "p_value", "kurtosis", "skewness", "normal_at_5pct"]
    return Result(
        _groups_doc(headers, rows), headers, rows, specs=("", "", *[".5f"] * 4, "")
    )


def _distfit_moments(args, dataset) -> Result:
    """Sample moment ratios beside the theoretical ones, on the fixed k and beta grids."""
    import numpy as np

    from . import distribution

    beta_grid, k_grid = distribution.DEFAULT_BETA_GRID, distribution.DEFAULT_K_GRID
    # one float array for every k, not one list conversion per call
    xs = np.asarray(_citation_totals(args, dataset), dtype=float)
    empirical = [distribution.empirical_moment_ratio(k, xs) for k in k_grid]
    theoretical = {
        beta: [distribution.theoretical_moment_ratio(k, beta) for k in k_grid]
        for beta in beta_grid
    }
    doc = {
        "k_grid": list(k_grid),
        "empirical": empirical,
        "theoretical": {str(b): vals for b, vals in theoretical.items()},
    }
    headers = ["k", "R"] + [f"M_beta{b:g}" for b in beta_grid]
    rows = [
        [k, empirical[i], *(theoretical[b][i] for b in beta_grid)] for i, k in enumerate(k_grid)
    ]
    return Result(doc, headers, rows, text=_plot_columns(headers, rows))


# -- synth and validate -------------------------------------------------------


# Largest sample synth draws, checked before any draw is allocated (the same
# guard as distribution's histogram bin limit), and most subsets rank draws
# per group (10**6 take 3-4 s for six committees).
_MAX_SYNTH_N = 1_000_000
_MAX_SAMPLES = 1_000_000


def _cmd_synth(args) -> Result:
    if args.beta <= 0:
        raise CliError(f"--beta must be positive, got {args.beta}")
    if args.x0 <= 0:
        raise CliError(f"--x0 must be positive, got {args.x0}")
    for flag, value in (("--beta", args.beta), ("--x0", args.x0)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")
    if args.n < 1:
        raise CliError(f"--n must be positive, got {args.n}")
    if args.n > _MAX_SYNTH_N:
        raise CliError(f"--n must be at most {_MAX_SYNTH_N}, got {args.n}")
    if args.seed < 0:
        raise CliError("--seed must be non-negative")
    if args.group_id is not None and not args.round:
        raise CliError("--group-id applies only with --round")
    if args.group_id is not None and not args.group_id.strip():
        raise CliError("--group-id must not be blank")
    if args.group_id is not None and args.group_id != args.group_id.strip():
        raise CliError("--group-id must not begin or end with whitespace")
    if args.group_id is not None and ingest._has_control(args.group_id):
        raise CliError("--group-id must not contain a control character")
    import numpy as np

    from . import synth

    params = synth.StretchedExpParams(beta=args.beta, scale=args.x0)
    rng = np.random.default_rng(args.seed)
    samples = synth.sample_stretched_exp(params, args.n, rng, round_to_int=args.round).tolist()

    if args.round:
        group = synth.synth_group("synthetic" if args.group_id is None else args.group_id, samples)
        rows = [[group.id, m.id, m.h_index, ""] for m in group.members]
        doc = ingest.write_dataset(Dataset((group,)))
        return Result(doc, list(ingest.SUMMARY_FORM_HEADER), rows)

    doc = {"beta": args.beta, "x0": args.x0, "n": args.n, "seed": args.seed, "samples": samples}
    rows = [[v] for v in samples]
    return Result(doc, ["sample"], rows, text=_plot_columns(["sample"], rows, cell=_fmt))


def _cmd_validate(args) -> Result:
    dataset = _read_dataset(args, "invalid dataset")
    n_groups = len(dataset.groups)
    n_members = sum(len(g.members) for g in dataset.groups)
    return _record(
        {"valid": True, "groups": n_groups, "members": n_members},
        text=f"dataset valid: {n_groups} group(s), {n_members} member(s)\n",
    )


# ---------------------------------------------------------------------------
# parser


# Built on the first main() call, not at import, and then reused: parsing
# leaves no state in the parser, and building it costs about 2 ms, which
# every in-process call after the first is spared.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--output", metavar="PATH", default=None)
    common.add_argument("--quiet", action="store_true", help="suppress warnings on stderr")

    reading = argparse.ArgumentParser(add_help=False)
    reading.add_argument("input", help="dataset file (.json, or long/summary form CSV/TSV)")

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
    p.add_argument("--bin-width", type=float, default=1.0)
    p.set_defaults(handler=_cmd_distfit)

    p = sub.add_parser("synth", parents=[common], help="synthetic stretched-exponential sample")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x0", type=float, default=1.0, help="scale parameter (default 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--round", action="store_true", help="round draws to integers and emit a summary-form dataset")
    p.add_argument("--group-id", default=None, help="group id under --round (default synthetic)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("validate", parents=[common, reading], help="check dataset invariants")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # no cyclic garbage collection for the rest of the command (see the
    # module docstring); the collector is left as it was found
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _emit(args, _render(args.handler(args), args.format))
    except (CliError, AlphaIndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
