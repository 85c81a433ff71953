"""Command-line interface: outputs, exit codes, determinism, schemas."""

import gc
import json
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import alphaindex
from alphaindex import cli, ingest
from alphaindex.cli import main
from alphaindex.distribution import DEFAULT_BETA_GRID, DEFAULT_K_GRID
from alphaindex.ingest import write_dataset
from alphaindex.model import Dataset, Group
from alphaindex.synth import synth_group

DOCS = Path(__file__).resolve().parent.parent / "docs"
CLI_SCHEMA = json.loads((DOCS / "cli-output.schema.json").read_text(encoding="utf-8"))
DATASET_SCHEMA = json.loads((DOCS / "dataset.schema.json").read_text(encoding="utf-8"))


def check_schema(document, definition: str):
    schema = dict(CLI_SCHEMA["$defs"][definition])
    schema["$defs"] = CLI_SCHEMA["$defs"]
    jsonschema.validate(document, schema)


@pytest.fixture
def two_group_file(tmp_path):
    dataset = Dataset(
        (
            synth_group("alpha", [5, 8, 12, 3]),
            synth_group("beta", [2, 2, 9]),
        )
    )
    path = tmp_path / "two.json"
    path.write_text(json.dumps(write_dataset(dataset)), encoding="utf-8")
    return path


@pytest.fixture
def summary_file(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(
        "group_id,researcher_id,h_index,total_citations\n"
        "g1,r1,12,500\n"
        "g1,r2,8,200\n"
        "g1,r3,5,80\n"
        "g1,r4,3,30\n"
        "g1,r5,6,90\n"
        "g1,r6,9,260\n"
        "g2,r7,3,40\n"
        "g2,r8,7,100\n"
        "g2,r9,2,9\n"
        "g2,r10,4,55\n"
        "g2,r11,1,2\n"
        "g2,r12,10,330\n",
        encoding="utf-8",
    )
    return path


def peaked_csv(tmp_path) -> Path:
    """Summary-form CSV whose h-index histogram is one Giddings peak."""
    from alphaindex.distribution import GiddingsFit, giddings_eval

    # integer pseudo-counts sampled from the peak shape
    peak = GiddingsFit(baseline=0.0, amplitude=400.0, width=2.0, center=9.0)
    lines = ["group_id,researcher_id,h_index,total_citations"]
    ridx = 0
    for h in range(1, 30):
        for _ in range(round(giddings_eval(float(h), peak))):
            lines.append(f"g,r{ridx},{h},")
            ridx += 1
    path = tmp_path / "peaked.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_import_does_not_load_scipy_stats(tmp_path, summary_file):
    # numpy and scipy cost most of a fresh start-up, so the package imports
    # them only where they are used: importing the CLI loads neither, the
    # commands that compute nothing numerical run with numpy unimportable,
    # and the commands that never fit anything load no scipy
    src = str(Path(alphaindex.__file__).resolve().parent.parent)
    no_numpy = ("metrics", "lorenz", "psi", "validate")
    runs = {
        name: [name, str(summary_file), "--output", str(tmp_path / f"{name}.out")]
        for name in no_numpy
    }
    runs["rank"] = ["rank", str(summary_file), "--output", str(tmp_path / "rank.out")]
    giddings = tmp_path / "giddings.out"
    runs["giddings"] = ["distfit", str(peaked_csv(tmp_path)), "--analysis", "giddings",
                        "--format", "json", "--output", str(giddings)]
    script = (
        f"import json, sys; sys.path.insert(0, {src!r})\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "blocker = NoNumpy()\n"
        "sys.meta_path.insert(0, blocker)\n"
        "def loaded():\n"
        "    tops = {m.split('.')[0] for m in sys.modules}\n"
        "    return {'numpy': 'numpy' in tops,\n"
        "            'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}\n"
        "import alphaindex\n"
        "seen = {'import alphaindex': [0, loaded()]}\n"
        "seen['dir'] = dir(alphaindex)\n"
        "import alphaindex.cli\n"
        "seen['import alphaindex.cli'] = [0, loaded()]\n"
        "seen['parsers after import'] = alphaindex.cli._build_parser.cache_info().misses\n"
        f"runs = {runs!r}\n"
        f"for name in {no_numpy!r}:\n"
        "    seen[name] = [alphaindex.cli.main(runs[name]), loaded()]\n"
        "sys.meta_path.remove(blocker)\n"
        "for name in ('rank', 'giddings'):\n"
        "    seen[name] = [alphaindex.cli.main(runs[name]), loaded()]\n"
        "seen['parsers after runs'] = alphaindex.cli._build_parser.cache_info().misses\n"
        "print(json.dumps(seen))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert "scipy.stats" not in seen["import alphaindex.cli"][1]["scipy"]
    for step in ("import alphaindex", "import alphaindex.cli", *no_numpy):
        assert seen[step] == [0, {"numpy": False, "scipy": []}], step
    # the numpy-free runs write what an unblocked run writes
    for name in no_numpy:
        unblocked = tmp_path / f"{name}.unblocked"
        assert main([*runs[name][:-1], str(unblocked)]) == 0
        assert (tmp_path / f"{name}.out").read_bytes() == unblocked.read_bytes(), name
    assert seen["rank"] == [0, {"numpy": True, "scipy": []}]
    # the deferred import still happens where a fit needs it
    code, modules = seen["giddings"]
    assert code == 0 and "scipy.optimize" in modules["scipy"]
    assert json.loads(giddings.read_text(encoding="utf-8"))["converged"] is True
    # the parser is built on the first main() call, not at import, and reused
    assert seen["parsers after import"] == 0
    assert seen["parsers after runs"] == 1
    # dir() lists the public names before any of them is loaded
    assert set(alphaindex.__all__) <= set(seen["dir"])


def test_lazy_names_are_the_submodules_objects():
    import importlib

    namespace: dict = {}
    exec("from alphaindex import *", namespace)
    assert set(alphaindex.__all__) <= set(namespace)
    for name, module in alphaindex._LAZY.items():
        assert name in alphaindex.__all__
        expected = getattr(importlib.import_module(f"alphaindex.{module}"), name)
        assert getattr(alphaindex, name) is expected is namespace[name]
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        alphaindex.nonexistent


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """One parser serves every main() call of a process; no option leaks."""

    def test_rank_defaults_after_explicit_flags(self, capsys, two_group_file):
        code, _, _ = run(capsys, "rank", two_group_file, "--seed", "3", "--samples", "50",
                         "--format", "json")
        assert code == 0
        code, out, _ = run(capsys, "rank", two_group_file, "--format", "json")
        assert code == 0
        provenance = json.loads(out)["provenance"]
        assert provenance["seed"] == 0
        assert provenance["n_samples"] == 1000

    def test_distfit_objective_does_not_carry_over(self, capsys, tmp_path):
        path = peaked_csv(tmp_path)
        code, out, _ = run(capsys, "distfit", path, "--analysis", "giddings",
                           "--bin-width", "3", "--format", "json", "--quiet")
        assert (code, json.loads(out)["bins"]) == (0, 10)
        # a leaked --bin-width 3 would give 10 bins again
        code, out, err = run(capsys, "distfit", path, "--analysis", "giddings",
                             "--format", "json", "--quiet")
        assert code == 0, err
        assert json.loads(out)["bins"] == 29


class TestMetrics:
    def test_non_utf8_input_named(self, capsys, tmp_path, summary_file):
        path = tmp_path / "latin1.csv"
        path.write_bytes(summary_file.read_bytes().replace(b"r2", b"r\xe92"))
        code, out, err = run(capsys, "metrics", path)
        assert (code, out) == (1, "")
        assert err.startswith(
            "error: input rejected:\n  not UTF-8 text: byte 0xe9: invalid continuation byte\n"
        )

    def test_rows_match_library(self, capsys, two_group_file):
        from alphaindex.metrics import group_metrics
        from alphaindex.ingest import read_dataset_file

        code, out, _ = run(capsys, "metrics", two_group_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "metrics")
        dataset = read_dataset_file(two_group_file).dataset
        for row, group in zip(doc["groups"], dataset.groups):
            m = group_metrics(group)
            assert row["group_id"] == group.id
            assert row["mean_h"] == m.mean_h
            assert row["gini"] == m.gini
            assert row["h_group"] == m.h_group

    def test_table_format(self, capsys, two_group_file):
        code, out, _ = run(capsys, "metrics", two_group_file)
        assert code == 0
        assert out.splitlines()[0].split() == ["group", "n", "mean_h", "stderr_h", "h_group", "gini"]

    def test_csv_format_parses_losslessly(self, capsys, two_group_file):
        import csv
        import io

        from alphaindex.ingest import read_dataset_file
        from alphaindex.metrics import group_metrics

        code, out, _ = run(capsys, "metrics", two_group_file, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        dataset = read_dataset_file(two_group_file).dataset
        for row, group in zip(rows, dataset.groups):
            assert float(row["gini"]) == group_metrics(group).gini

    def test_unreadable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "metrics", tmp_path / "missing.json")
        assert code == 2
        assert "i/o error" in err

    def test_empty_dataset_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"groups": []}', encoding="utf-8")
        code, _, err = run(capsys, "metrics", path)
        assert code == 1

    def test_degenerate_group_is_domain_error(self, capsys, tmp_path):
        dataset = Dataset((synth_group("zeros", [0, 0]), synth_group("ok", [1, 2])))
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(write_dataset(dataset)), encoding="utf-8")
        code, _, err = run(capsys, "metrics", path)
        assert code == 1
        assert "zeros" in err


class TestRank:
    def test_byte_identical_runs(self, capsys, two_group_file, tmp_path):
        argv = ["rank", str(two_group_file), "--seed", "42", "--samples", "800"]
        outs = []
        for name in ("a.txt", "b.txt"):
            dest = tmp_path / name
            code = main(argv + ["--output", str(dest)])
            assert code == 0
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]

    def test_output_independent_of_group_and_member_order(self, capsys, tmp_path):
        # two flat groups (gini 0) are floored, so the warnings' order counts too
        rng = np.random.default_rng(7)
        path = tmp_path / "groups.json"

        def shuffled(items):
            return [items[i] for i in rng.permutation(len(items))]

        for trial in range(5):
            groups = [
                synth_group(f"g{pos}", rng.integers(1, 60, size=int(rng.integers(20, 81))))
                for pos in range(int(rng.integers(4, 7)))
            ]
            groups += [synth_group("flat-b", [9] * 30), synth_group("flat-a", [7] * 25)]
            reordered = [Group(g.id, tuple(shuffled(g.members))) for g in shuffled(groups)]
            for fmt in ("table", "csv", "json"):
                outputs = []
                for dataset in (Dataset(tuple(groups)), Dataset(tuple(reordered))):
                    path.write_text(json.dumps(write_dataset(dataset)), encoding="utf-8")
                    outputs.append(run(capsys, "rank", path, "--seed", trial,
                                       "--samples", "200", "--format", fmt))
                assert outputs[0][0] == 0
                assert "'flat-a'" in outputs[0][2]
                assert outputs[0] == outputs[1]

    def test_json_schema_and_provenance(self, capsys, two_group_file):
        code, out, _ = run(
            capsys, "rank", two_group_file, "--seed", "9", "--samples", "200", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "rank")
        assert doc["provenance"]["seed"] == 9
        assert doc["provenance"]["n_samples"] == 200
        assert doc["provenance"]["reference_group_id"] == "beta"

    def test_equal_h_groups_immune_to_sample_count(self, capsys, tmp_path):
        dataset = Dataset((synth_group("a", [6] * 5), synth_group("b", [4] * 4)))
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(write_dataset(dataset)), encoding="utf-8")
        alphas = []
        for samples in ("1", "10000"):
            code, out, _ = run(
                capsys, "rank", path, "--samples", samples, "--format", "json", "--quiet"
            )
            assert code == 0
            doc = json.loads(out)
            alphas.append([r["alpha"] for r in doc["rows"]])
        assert alphas[0] == alphas[1]

    def test_dominant_group_ranked_first(self, capsys, tmp_path):
        dataset = Dataset(
            (
                synth_group("strong", [9, 9, 9, 8, 8]),
                synth_group("weak", [9, 2, 1, 1, 1]),
            )
        )
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(write_dataset(dataset)), encoding="utf-8")
        code, out, _ = run(capsys, "rank", path, "--format", "json")
        doc = json.loads(out)
        assert doc["rows"][0]["group_id"] == "strong"

    def test_single_group_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps(write_dataset(Dataset((synth_group("only", [3, 2]),)))),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "rank", path)
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value", [("--ref-size", "5"), ("--gini-floor", "0.5")], ids=lambda v: v
    )
    def test_ref_size_and_gini_floor_flags_are_gone(self, capsys, two_group_file, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["rank", str(two_group_file), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", str(2**64), "--seed must fit in 64 unsigned bits"),
            ("--seed", "-1", "--seed must be non-negative"),
            ("--samples", "0", "--samples must be positive, got 0"),
            ("--samples", "1000001", "--samples must be at most 1000000, got 1000001"),
            ("--samples", str(10**23), f"--samples must be at most 1000000, got {10**23}"),
        ],
        ids=["seed-2**64", "seed--1", "samples-0", "samples-10**6+1", "samples-10**23"],
    )
    def test_flags_checked_before_the_input_is_read(self, capsys, tmp_path, flag, value, message):
        missing = tmp_path / "absent.csv"  # reading it would be an i/o error, exit 2
        code, out, err = run(capsys, "rank", missing, flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_csv_format_carries_provenance_comment(self, capsys, two_group_file):
        code, out, _ = run(capsys, "rank", two_group_file, "--seed", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# seed=4")
        assert lines[1].split(",") == ["rank", "group", "gini", "h_group", "relative_h_group", "alpha"]


@pytest.mark.parametrize("command", ["validate", "lorenz", "rank", "metrics"])
def test_id_with_line_break_is_refused(capsys, tmp_path, command):
    # unrefused, lorenz printed "1 2 3" as a data point and rank split its comment
    path = tmp_path / "broken.csv"
    path.write_text(
        'group_id,researcher_id,h_index,total_citations\n"g\n1 2 3",r1,3,10\n'
        "g,r2,4,20\nh,r3,5,30\nh,r4,2,9\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, command, path)
    assert (code, out) == (1, "")
    # the quoted id spans file lines 2-3; a row is named by the line it ends on
    assert err.endswith(
        ":\n  row 3: group_id or researcher_id contains a control character\n"
    )


def test_rows_after_a_quoted_line_break_named_by_file_line(capsys, tmp_path):
    path = tmp_path / "multiline.csv"
    path.write_text(
        'group_id,researcher_id,h_index,total_citations\ng1,r1,3,"1\n0"\ng1,r2,x,5\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err == (
        "error: invalid dataset:\n"
        "  row 3: total_citations '1\\n0' is not an integer\n"
        "  row 4: h_index 'x' is not an integer\n"
    )


class TestLorenzPsi:
    def test_lorenz_equal_group_on_diagonal(self, capsys, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text(
            json.dumps(write_dataset(Dataset((
                synth_group("eq", [1, 1, 1, 1]), synth_group("two", [1, 3]),
            )))),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "lorenz", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "lorenz")
        eq_points = doc["groups"][0]["points"]
        assert all(f == phi for f, phi in eq_points)
        assert doc["groups"][1]["points"] == [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]

    def test_lorenz_plot_text_blocks(self, capsys, two_group_file):
        code, out, _ = run(capsys, "lorenz", two_group_file)
        assert code == 0
        assert out.startswith("# lorenz curve")
        assert "# group: alpha" in out
        assert "# group: identity" in out

    def test_lorenz_degenerate_group_named(self, capsys, tmp_path):
        path = tmp_path / "zeros.json"
        path.write_text(
            json.dumps(write_dataset(Dataset((synth_group("allzero", [0, 0]),)))),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "lorenz", path)
        assert code == 1
        assert "allzero" in err

    def test_psi_points_and_annotation(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text(
            json.dumps(write_dataset(Dataset((
                synth_group("g", [1, 2, 3]), synth_group("solo", [7]),
            )))),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "psi", path, "--format", "json")
        doc = json.loads(out)
        check_schema(doc, "psi")
        assert doc["groups"][0]["points"] == [[1, 3], [2, 2], [3, 1]]
        assert doc["groups"][0]["h_group"] == 2
        assert doc["groups"][1]["points"] == [[7, 1]]
        assert doc["groups"][1]["h_group"] == 1


class TestDistfit:
    def test_slope_on_quadratic_fixture(self, capsys, tmp_path):
        lines = ["group_id,researcher_id,h_index,total_citations"]
        lines += [f"g,r{h},{h},{h * h}" for h in range(1, 15)]
        path = tmp_path / "quad.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "distfit", path, "--analysis", "slope", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "distfit_slope")
        assert abs(doc["slope"] - 2.0) < 1e-12

    def test_slope_missing_totals_listed(self, capsys, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text(
            "group_id,researcher_id,h_index,total_citations\n"
            "g,named-one,3,\n"
            "g,ok,2,9\n"
            "g,ok2,4,30\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "distfit", path, "--analysis", "slope", "--quiet")
        assert code == 1
        assert "named-one" in err

    def test_slope_on_identical_h_values_refused(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "group_id,researcher_id,h_index,total_citations\n"
            "g,r1,3,10\n"
            "g,r2,3,20\n"
            "g,r3,3,30\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "distfit", path, "--analysis", "slope")
        assert (code, out, err) == (1, "", "error: all h values identical; slope is undefined\n")

    def test_beta_round_trip_via_synth(self, capsys, tmp_path):
        sample = tmp_path / "sample.csv"
        code = main([
            "synth", "--beta", "0.28", "--n", "60000", "--seed", "5",
            "--round", "--format", "csv", "--output", str(sample),
        ])
        assert code == 0
        # rounding maps draws onto integers; keep positives as citation totals
        rows = sample.read_text(encoding="utf-8").strip().splitlines()[1:]
        lines = ["group_id,researcher_id,h_index,total_citations"]
        for i, row in enumerate(rows):
            h = int(row.split(",")[2])
            if h > 0:
                lines.append(f"g,r{i},1,{h}")
        data = tmp_path / "citations.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "distfit", data, "--analysis", "beta", "--format", "json", "--quiet"
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "distfit_beta")
        assert doc["beta"] in doc["grid"]

    def test_objective_flag_is_gone(self, capsys, summary_file):
        with pytest.raises(SystemExit) as exc:
            main(["distfit", str(summary_file), "--analysis", "beta", "--objective", "moments"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --objective moments" in capsys.readouterr().err

    def test_beta_json_keys(self, capsys, summary_file):
        code, out, _ = run(
            capsys, "distfit", summary_file, "--analysis", "beta", "--format", "json", "--quiet"
        )
        assert code == 0
        assert set(json.loads(out)) == {"beta", "grid", "objective_per_beta"}

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--bin-width", "nan"], "bin width must be finite, got nan"),
            (["--bin-width", "inf"], "bin width must be finite, got inf"),
        ],
        ids=["width-nan", "width-inf"],
    )
    def test_non_finite_bin_spec_refused(self, capsys, summary_file, argv, named):
        code, out, err = run(capsys, "distfit", summary_file, "--analysis", "giddings", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--binning", "geometric"), ("--bin-ratio", "2"), ("--beta-grid", "0.2,0.3"),
         ("--k-grid", "1,2")],
        ids=lambda v: v,
    )
    def test_binning_flags_are_gone(self, capsys, summary_file, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["distfit", str(summary_file), "--analysis", "giddings", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_normality_per_group(self, capsys, summary_file):
        code, out, _ = run(capsys, "distfit", summary_file, "--analysis", "normality", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "distfit_normality")
        assert [g["group_id"] for g in doc["groups"]] == ["g1", "g2"]

    def test_moments_table(self, capsys, summary_file):
        code, out, _ = run(
            capsys, "distfit", summary_file, "--analysis", "moments", "--format", "json", "--quiet",
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "distfit_moments")
        assert doc["k_grid"] == list(DEFAULT_K_GRID)
        assert list(doc["theoretical"]) == [str(b) for b in DEFAULT_BETA_GRID]
        assert doc["empirical"][0] == pytest.approx(1.0)

    def test_giddings_on_peaked_data(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "distfit", peaked_csv(tmp_path), "--analysis", "giddings",
            "--format", "json", "--quiet",
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "distfit_giddings")
        assert abs(doc["center"] - 9.0) / 9.0 < 0.15


    @pytest.mark.parametrize(
        "counts, named",
        [
            ({1: 1, 2: 2, 3: 3, 4: 5, 5: 8, 6: 13, 7: 21}, "bound center = last edge 8"),
            ({2: 3, 3: 3, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2}, "bound width = min bin width / 8 = 0.125"),
        ],
        ids=["rising", "step"],
    )
    def test_giddings_without_interior_peak(self, capsys, tmp_path, counts, named):
        hs = [h for h, n in counts.items() for _ in range(n)]
        lines = ["group_id,researcher_id,h_index,total_citations"]
        lines += [f"g,r{i},{h},{10 * h}" for i, h in enumerate(hs)]
        path = tmp_path / "no-peak.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "distfit", path, "--analysis", "giddings")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and named in err and "Traceback" not in err


class TestSynth:
    def test_byte_identical_runs(self, tmp_path):
        argv = ["synth", "--beta", "0.5", "--n", "500", "--seed", "11", "--format", "csv"]
        outs = []
        for name in ("s1.csv", "s2.csv"):
            dest = tmp_path / name
            assert main(argv + ["--output", str(dest)]) == 0
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]

    def test_exponential_mean(self, capsys):
        code, out, _ = run(
            capsys, "synth", "--beta", "1", "--n", "100000", "--seed", "0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "synth_raw")
        mean = sum(doc["samples"]) / len(doc["samples"])
        assert abs(mean - 1.0) < 0.02

    def test_rounded_dataset_validates_against_schema(self, capsys):
        code, out, _ = run(
            capsys, "synth", "--beta", "0.5", "--n", "40", "--seed", "2",
            "--round", "--format", "json", "--group-id", "boards",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, DATASET_SCHEMA)
        assert doc["groups"][0]["id"] == "boards"

    def test_sample_size_ceiling(self, capsys, monkeypatch):
        import alphaindex.cli as cli

        class Drawn(Exception):
            pass

        def no_draws(*args):
            raise Drawn  # an oversized --n must be refused before any draw

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for n in (cli._MAX_SYNTH_N + 1, 10**11):
            code, out, err = run(capsys, "synth", "--beta", "0.3", "--n", n)
            assert (code, out) == (1, "")
            assert err == f"error: --n must be at most {cli._MAX_SYNTH_N}, got {n}\n"
        with pytest.raises(Drawn):  # the ceiling itself is allowed
            main(["synth", "--beta", "0.3", "--n", str(cli._MAX_SYNTH_N)])

    def test_group_id_without_round_is_refused(self, capsys):
        code, out, err = run(capsys, "synth", "--beta", "0.5", "--n", "3", "--group-id", "boards")
        assert (code, out, err) == (1, "", "error: --group-id applies only with --round\n")

    def test_empty_group_id_is_refused(self, capsys):
        # a blank id would be written, then refused by every reader
        for group_id in ("", " "):
            code, out, err = run(
                capsys, "synth", "--beta", "0.5", "--n", "3", "--round", "--group-id", group_id
            )
            assert (code, out, err) == (1, "", "error: --group-id must not be blank\n")

    @pytest.mark.parametrize("group_id", [" a ", "a "])
    def test_group_id_with_surrounding_whitespace_is_refused(self, capsys, group_id):
        # the tabular readers strip each field, so CSV would read back another id than JSON
        code, out, err = run(
            capsys, "synth", "--beta", "0.3", "--x0", "5", "--n", "3", "--round",
            "--group-id", group_id, "--format", "csv",
        )
        assert (code, out, err) == (
            1, "", "error: --group-id must not begin or end with whitespace\n"
        )

    def test_rounded_draw_past_int64_is_refused(self, capsys):
        # rounded to int64 unchecked, the draw would wrap to -2**63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "synth", "--beta", "0.3", "--x0", "1e25", "--n", "3", "--round"
            )
        assert (code, out) == (1, "")
        assert err == (
            "error: beta=0.3 with scale=1e+25 gives rounded draws of 2**63 or more, "
            "past the 64-bit integers\n"
        )

    @pytest.mark.parametrize("char", ["\n", "\x1b", "\u2028"], ids=["LF", "ESC", "LS"])
    def test_group_id_with_control_character_is_refused(self, capsys, char):
        code, out, err = run(
            capsys, "synth", "--beta", "0.5", "--n", "3", "--round", "--group-id", f"g{char}1"
        )
        assert (code, out, err) == (1, "", "error: --group-id must not contain a control character\n")

    def test_bad_beta_is_domain_error(self, capsys):
        code, _, err = run(capsys, "synth", "--beta", "0", "--n", "10")
        assert code == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--beta", "--x0"])
    def test_non_finite_parameter_refused(self, capsys, flag, value):
        # at --beta inf the inverse CDF collapses every draw to x0
        params = {"--beta": "1", "--x0": "1", flag: value}
        argv = [token for pair in params.items() for token in pair]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "synth", *argv, "--n", "3")
        assert (code, out) == (1, "")
        assert err == f"error: {flag} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--beta", "1e-3", "--n", "3"],  # draws overflow to inf
            ["--beta", "1e308", "--n", "3"],  # draws underflow to 0
            ["--beta", "1e-3", "--n", "3", "--round"],
        ],
        ids=["tiny-beta", "huge-beta", "tiny-beta-round"],
    )
    def test_extreme_beta_is_refused(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "synth", *argv)
        assert code == 1
        assert out == ""
        assert "beta=" in err and "scale=1.0" in err


class TestValidateCommand:
    @pytest.mark.parametrize(
        "name, text, named",
        [
            ("big.csv", "group_id,researcher_id,h_index,total_citations\ng,r,{big},5\n",
             "row 2: field larger than field limit"),
            ("deep.json", '{{"groups": ' + "[" * 200_000, "invalid JSON: "),
        ],
        ids=["csv-field-limit", "json-nesting"],
    )
    def test_parser_limits_exit_one(self, capsys, tmp_path, name, text, named):
        path = tmp_path / name
        path.write_text(text.format(big="1" * 200_000), encoding="utf-8")
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (1, "")
        assert named in err and "Traceback" not in err

    def test_valid_dataset(self, capsys, summary_file):
        code, out, _ = run(capsys, "validate", summary_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "validate")
        assert doc == {"valid": True, "groups": 2, "members": 12}

    def test_violations_exit_one(self, capsys, tmp_path):
        doc = {"groups": [{"id": "g", "members": [
            {"id": "r", "h_index": 3, "total_citations": 19, "paper_citations": [10, 8, 1]}
        ]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "validate", path)
        assert code == 1
        assert "r" in err


@pytest.fixture
def long_form_file(tmp_path):
    path = tmp_path / "long.csv"
    lines = ["group_id,researcher_id,paper_id,citations"]
    for gi, sizes in enumerate(([9, 4, 7, 1], [3, 12, 5], [6, 6, 2, 8, 1])):
        for ri, n_papers in enumerate(sizes):
            lines += [
                f"g{gi},r{gi}-{ri},p{pi},{(7 * pi + 3 * ri + gi) % 23}" for pi in range(n_papers)
            ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTabDelimited:
    """The header line decides the delimiter; no flag selects it."""

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "command",
        [["metrics"], ["rank", "--seed", "3", "--samples", "200"], ["validate"]],
        ids=lambda c: c[0],
    )
    @pytest.mark.parametrize("form", ["summary", "long"])
    def test_tab_twin_gives_identical_output(
        self, capsys, tmp_path, summary_file, long_form_file, form, command, fmt
    ):
        comma = summary_file if form == "summary" else long_form_file
        tab = tmp_path / f"{form}.tsv"
        tab.write_text(comma.read_text(encoding="utf-8").replace(",", "\t"), encoding="utf-8")
        outputs = [
            run(capsys, command[0], path, *command[1:], "--format", fmt) for path in (comma, tab)
        ]
        assert outputs[0][0] == 0, outputs[0][2]
        assert outputs[1] == outputs[0]

    def test_tab_flag_is_gone(self, capsys, summary_file):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", str(summary_file), "--tab"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tab" in capsys.readouterr().err


class TestCollectorPause:
    """main runs a command with the cyclic collector paused and restores it."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("outcome", ["exit-0", "exit-1", "exit-2", "handler-raises"])
    def test_state_left_as_found(self, capsys, monkeypatch, tmp_path, summary_file, collector, outcome):
        seen = []
        read = ingest.read_dataset_file

        def reading(path):
            seen.append(gc.isenabled())
            if outcome == "handler-raises":
                raise RuntimeError("boom")
            return read(path)

        monkeypatch.setattr(ingest, "read_dataset_file", reading)
        empty = tmp_path / "empty.json"
        empty.write_text('{"groups": []}', encoding="utf-8")
        path = {"exit-1": empty, "exit-2": tmp_path / "missing.json"}.get(outcome, summary_file)
        if outcome == "handler-raises":
            with pytest.raises(RuntimeError, match="boom"):
                main(["metrics", str(path)])
        else:
            assert run(capsys, "metrics", path)[0] == int(outcome[-1])
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_no_collection_during_a_command(self, capsys, monkeypatch, tmp_path, collector):
        # 3,000 profiles are far more new objects than a generation-0 pass waits for
        path = tmp_path / "big.csv"
        path.write_text(
            "group_id,researcher_id,h_index,total_citations\n"
            + "".join(f"g{i % 3},r{i},{i % 40},{i}\n" for i in range(3000)),
            encoding="utf-8",
        )
        active, starts = [], []
        read, emit = ingest.read_dataset_file, cli._emit

        def reading(path):
            active.append(True)
            return read(path)

        def emitting(args, text):
            emit(args, text)
            active.clear()

        def callback(phase, info):
            if phase == "start" and active:
                starts.append(info["generation"])

        monkeypatch.setattr(ingest, "read_dataset_file", reading)
        monkeypatch.setattr(cli, "_emit", emitting)
        gc.callbacks.append(callback)
        try:
            code = run(capsys, "distfit", path, "--analysis", "beta")[0]
        finally:
            gc.callbacks.remove(callback)
        assert (code, starts) == (0, [])


class TestOutputDestination:
    def test_output_file_written(self, tmp_path, two_group_file):
        dest = tmp_path / "out.json"
        assert main(["metrics", str(two_group_file), "--format", "json", "--output", str(dest)]) == 0
        json.loads(dest.read_text(encoding="utf-8"))

    def test_unwritable_output_is_io_error(self, capsys, two_group_file, tmp_path):
        dest = tmp_path / "no_dir" / "deep" / "out.json"
        code = main(["metrics", str(two_group_file), "--output", str(dest)])
        captured = capsys.readouterr()
        assert code == 2
        assert "i/o error" in captured.err

    def test_invalid_output_path_is_domain_error(self, capsys, summary_file):
        # open() refuses a path with a NUL byte by ValueError, not OSError
        code, out, err = run(capsys, "validate", summary_file, "--output", "a\x00b")
        assert (code, out) == (1, "")
        assert err == "error: embedded null byte\n"

    def test_quiet_suppresses_warnings(self, capsys, tmp_path):
        path = tmp_path / "warn.csv"
        path.write_text(
            "group_id,researcher_id,h_index,total_citations\n"
            "g,r1,3,\n"
            "g,r2,2,9\n"
            "g,r3,1,5\n",
            encoding="utf-8",
        )
        _, _, err_loud = run(capsys, "metrics", path)
        assert "warning" in err_loud
        _, _, err_quiet = run(capsys, "metrics", path, "--quiet")
        assert "warning" not in err_quiet


# count as decimal text, and whether ingest must refuse it
EXTREME_COUNTS = {
    "1e23": ("1" + "0" * 23, False),
    "ceiling": ("1" + "0" * 50, False),
    "ceiling+1": ("1" + "0" * 49 + "1", True),
    "5000-digits": ("9" * 5000, True),
}
COMMANDS = [
    ["metrics"],
    ["rank"],
    ["lorenz"],
    ["psi"],
    ["validate"],
    *(["distfit", "--analysis", a] for a in ("slope", "beta", "giddings", "normality", "moments")),
]


def _extreme_dataset(tmp_path, form: str, count: str):
    # written as text: Python will not convert a 5000-digit int to a string
    members = [("big", count, count), ("big", 4, 30), ("big", 7, 90), ("big", 2, 5),
               ("big", 5, 40), ("big", 6, 61), ("small", 3, 20), ("small", 5, 44),
               ("small", 6, 70), ("small", 4, 33), ("small", 8, 100), ("small", 2, 9)]
    if form == "csv":
        path = tmp_path / "extreme.csv"
        lines = ["group_id,researcher_id,h_index,total_citations"]
        lines += [f"{g},r{i},{h},{t}" for i, (g, h, t) in enumerate(members)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
    groups = []
    for gid in ("big", "small"):
        docs = [
            f'{{"id": "r{i}", "h_index": {h}, "total_citations": {t}}}'
            for i, (g, h, t) in enumerate(members)
            if g == gid
        ]
        groups.append(f'{{"id": "{gid}", "members": [{", ".join(docs)}]}}')
    path = tmp_path / "extreme.json"
    path.write_text(f'{{"groups": [{", ".join(groups)}]}}', encoding="utf-8")
    return path


@pytest.mark.parametrize("count", list(EXTREME_COUNTS.values()), ids=list(EXTREME_COUNTS))
@pytest.mark.parametrize("form", ["json", "csv"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[-1])
def test_extreme_counts_exit_cleanly(capsys, tmp_path, command, fmt, form, count):
    # every run ends in exit 0 with finite output, or in exit 1 with a reason;
    # an escaping exception or a numpy overflow warning fails the test
    text, refused = count
    path = _extreme_dataset(tmp_path, form, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command[0], path, *command[1:], "--format", fmt, "--quiet")
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:"), err
        assert out == ""
    elif fmt == "json":
        json.loads(out, parse_constant=lambda c: pytest.fail(f"non-finite {c} in output"))
    if refused:
        assert code == 1 and ("10**50" in err or "4300 digits" in err), err
