"""Output checks for every benchmark op.

Each ``*_checker`` factory precomputes its oracle from the generated inputs
and returns a callable that takes the bytes a command wrote and raises
:class:`CheckFailed` when they are wrong.  Oracles use numpy and scipy
directly, never the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy import stats

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "cli-output.schema.json"
ALPHA_SUM_TOL = 1e-12
Z_LIMIT = 6.0
W_TOL = 1e-6
SLOPE_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output is wrong; the message says how."""


def verdict(check, data: bytes) -> str | None:
    """Why ``check`` rejects ``data``, or None when it passes.

    A checker that cannot even parse the output has rejected it too.
    """
    try:
        check(data)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # garbage output breaks the parsers: a failed check, not a crash
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


_validators: dict[str, jsonschema.Draft202012Validator] = {}


def _validator(definition: str) -> jsonschema.Draft202012Validator:
    if definition not in _validators:
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        schema["$ref"] = f"#/$defs/{definition}"
        _validators[definition] = jsonschema.Draft202012Validator(schema)
    return _validators[definition]


def _json_doc(data: bytes, definition: str):
    try:
        doc = json.loads(data)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    errors = sorted(_validator(definition).iter_errors(doc), key=lambda e: list(e.path))
    _require(not errors, f"schema {definition}: {errors[0].message}" if errors else "")
    return doc


def schema_checker(definition: str):
    def check(data: bytes) -> None:
        _json_doc(data, definition)

    return check


def _h_group(hs) -> int:
    ranked = np.sort(np.asarray(hs))[::-1]
    return int(np.sum(ranked >= np.arange(1, ranked.size + 1)))


# ---------------------------------------------------------------------------
# rank


def subset_h_moments(hs, size: int) -> tuple[float, float]:
    """Exact mean and variance of the h-index of a uniform ``size``-subset.

    H >= k exactly when at least k sampled members have h >= k, so with
    c_k = #{h >= k}: E[H] = sum_k P(Hypergeom(n, c_k, size) >= k) and
    E[H^2] = sum_k (2k - 1) P(... >= k).
    """
    hs = np.asarray(hs)
    ks = np.arange(1, size + 1)
    c = np.array([int(np.sum(hs >= k)) for k in ks])
    tail = stats.hypergeom.sf(ks - 1, hs.size, c, size)
    mean = float(tail.sum())
    second = float(((2 * ks - 1) * tail).sum())
    return mean, max(second - mean * mean, 0.0)


def check_rank_rows(rows, oracle: dict[str, tuple[float, float]], n_samples: int) -> None:
    """Alphas sum to 1 and each relative h-group is near its exact mean.

    ``rows`` are (group_id, relative_h_group, alpha); ``oracle`` maps group
    ids to the exact (mean, variance) of one subset's h-index.
    """
    _require(sorted(r[0] for r in rows) == sorted(oracle), "rank rows do not match the groups")
    total = math.fsum(alpha for _, _, alpha in rows)
    _require(abs(total - 1.0) <= ALPHA_SUM_TOL, f"alphas sum to {total!r}, not 1")
    for gid, rel, _ in rows:
        mean, var = oracle[gid]
        if var == 0.0:
            _require(abs(rel - mean) <= 1e-12, f"{gid}: relative_h_group {rel} != exact {mean}")
            continue
        z = (rel - mean) / math.sqrt(var / n_samples)
        _require(abs(z) <= Z_LIMIT, f"{gid}: relative_h_group {rel} is {z:+.1f} SE from {mean}")


def rank_checker(fmt: str, h_values: dict[str, list[int]], n_samples: int):
    size = min(len(hs) for hs in h_values.values())
    oracle = {gid: subset_h_moments(hs, size) for gid, hs in h_values.items()}

    def check_json(data: bytes) -> None:
        doc = _json_doc(data, "rank")
        _require(doc["provenance"]["reference_size"] == size, "wrong reference size")
        check_rank_rows(
            [(r["group_id"], r["relative_h_group"], r["alpha"]) for r in doc["rows"]],
            oracle,
            n_samples,
        )

    def check_csv(data: bytes) -> None:
        lines = data.decode("utf-8").splitlines()
        _require(lines and lines[0].startswith("# seed="), "missing provenance comment")
        _require(f"(size {size})" in lines[0], "wrong reference size")
        table = list(csv.DictReader(lines[1:]))
        check_rank_rows(
            [(r["group"], float(r["relative_h_group"]), float(r["alpha"])) for r in table],
            oracle,
            n_samples,
        )

    def check_table(data: bytes) -> None:
        lines = data.decode("utf-8").splitlines()
        _require(lines and lines[0].startswith("# seed="), "missing provenance comment")
        _require(lines[1].split() == ["rank", "group", "gini", "h_group", "relative_h_group", "alpha"],
                 "unexpected table header")
        _require(sorted(line.split()[1] for line in lines[2:]) == sorted(oracle),
                 "table rows do not match the groups")

    return {"json": check_json, "csv": check_csv, "table": check_table}[fmt]


# ---------------------------------------------------------------------------
# survey-longform


def validate_checker(n_groups: int, n_members: int):
    def check(data: bytes) -> None:
        doc = _json_doc(data, "validate")
        _require(doc == {"valid": True, "groups": n_groups, "members": n_members},
                 f"unexpected validate result {doc}")

    return check


def metrics_checker(h_values: dict[str, list[int]]):
    expected = {gid: (len(hs), _h_group(hs), sum(hs) / len(hs)) for gid, hs in h_values.items()}

    def check(data: bytes) -> None:
        table = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        _require([r["group"] for r in table] == list(expected), "metrics rows do not match the groups")
        for r in table:
            n, hg, mean = expected[r["group"]]
            _require(int(r["n"]) == n and int(r["h_group"]) == hg, f"{r['group']}: wrong n or h_group")
            _require(abs(float(r["mean_h"]) - mean) <= 1e-9 * max(1.0, mean), f"{r['group']}: wrong mean_h")

    return check


def lorenz_checker(h_values: dict[str, list[int]]):
    sizes = {gid: len(hs) for gid, hs in h_values.items()}

    def check(data: bytes) -> None:
        blocks = data.decode("utf-8").rstrip("\n").split("\n\n")
        _require(blocks[0] == "# lorenz curve: columns f phi", "missing lorenz header")
        seen = {}
        for block in blocks[1:]:
            lines = block.split("\n")
            gid = lines[0].removeprefix("# group: ")
            _require(lines[-1] == "1 1", f"{gid}: curve does not end at (1, 1)")
            seen[gid] = len(lines) - 2  # minus the label and the origin
        _require(seen.pop("identity", None) == 1, "missing identity block")
        _require(seen == sizes, "lorenz blocks do not match the groups")

    return check


def psi_checker(h_values: dict[str, list[int]]):
    expected = {gid: (_h_group(hs), len(hs)) for gid, hs in h_values.items()}

    def check(data: bytes) -> None:
        doc = _json_doc(data, "psi")
        got = {g["group_id"]: (g["h_group"], len(g["points"])) for g in doc["groups"]}
        _require(got == expected, "psi h_group or point counts do not match the inputs")

    return check


# ---------------------------------------------------------------------------
# analysis-session


def slope_checker(pairs: list[tuple[int, int]]):
    usable = np.array([(h, x) for h, x in pairs if h >= 1 and x >= 1], dtype=float)
    slope, intercept = np.linalg.lstsq(
        np.column_stack([np.log(usable[:, 0]), np.ones(len(usable))]),
        np.log(usable[:, 1]),
        rcond=None,
    )[0]

    def check(data: bytes) -> None:
        doc = _json_doc(data, "distfit_slope")
        _require(doc["points_used"] == len(usable), "wrong points_used")
        _require(doc["points_dropped"] == len(pairs) - len(usable), "wrong points_dropped")
        _require(abs(doc["slope"] - slope) <= SLOPE_TOL, f"slope {doc['slope']} != lstsq {slope}")
        _require(abs(doc["intercept"] - intercept) <= SLOPE_TOL,
                 f"intercept {doc['intercept']} != lstsq {intercept}")

    return check


def normality_checker(h_values: dict[str, list[int]]):
    expected = {gid: float(stats.shapiro(hs).statistic) for gid, hs in h_values.items()}

    def check(data: bytes) -> None:
        doc = _json_doc(data, "distfit_normality")
        got = {g["group_id"]: g["W"] for g in doc["groups"]}
        _require(got.keys() == expected.keys(), "normality groups do not match the inputs")
        for gid, w in got.items():
            _require(abs(w - expected[gid]) <= W_TOL, f"{gid}: W {w} != scipy {expected[gid]}")

    return check


def giddings_checker(bins: int):
    def check(data: bytes) -> None:
        doc = _json_doc(data, "distfit_giddings")
        _require(doc["bins"] == bins, f"{doc['bins']} bins, expected {bins}")
        _require(all(math.isfinite(doc[k]) for k in ("baseline", "amplitude", "width", "center")),
                 "non-finite Giddings parameters")

    return check
