"""End-to-end command line coverage through main(argv)."""

import importlib.resources
import json
import pathlib
import re

import numpy as np
import pytest

from simplexstats import inference, nested, treesearch
from simplexstats.cli import main
from simplexstats.report import ResultDocument, parse_csv

FIXTURE = str(
    importlib.resources.files("simplexstats") / "data" / "synthetic_navigation.csv"
)
# tree-search --json results on FIXTURE, per criterion, as recorded before the
# search shared its per-subtree work between candidates.
TREE_SEARCH_GOLDEN = pathlib.Path(__file__).parent / "data" / "tree_search_navigation.json"


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "two_groups.csv"
    rng = np.random.default_rng(88)
    lines = ["group,a,b,c"]
    for label, alpha in (("g1", (5.0, 3.0, 2.0)), ("g2", (2.0, 3.0, 5.0))):
        for row in rng.dirichlet(alpha, size=6):
            cells = ",".join(f"{v:.9f}" for v in row / row.sum())
            lines.append(f"{label},{cells}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_version_and_missing_command(capsys):
    assert main(["--version"]) == 0
    assert "simplexstats 0.1.0" in capsys.readouterr().out
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_maps_to_exit_1(capsys):
    assert main(["fit", "--bogus", FIXTURE]) == 1
    err = capsys.readouterr().err
    assert "simplexstats" in err
    assert "--bogus" in err


def test_fit_dirichlet_text_and_json(small_csv, capsys):
    assert main(["fit", small_csv]) == 0
    text = capsys.readouterr().out
    assert text.startswith("fit report (simplexstats 0.1.0)")
    assert "g1:" in text
    assert "alpha:" in text

    assert main(["fit", small_csv, "--json"]) == 0
    doc = _json_out(capsys)
    assert doc["kind"] == "fit"
    assert doc["created"] is None
    assert doc["config"]["model"] == "dirichlet"
    assert doc["results"]["components"] == ["a", "b", "c"]
    g1 = doc["results"]["groups"]["g1"]
    assert g1["n"] == 6
    # mle raises instead of returning an unconverged fit, so no group
    # carries a converged flag that could only read true.
    assert all("converged" not in g for g in doc["results"]["groups"].values())
    assert len(g1["alpha"]) == 3
    assert sum(g1["mean"]) == pytest.approx(1.0)
    assert len(g1["mean_se"]) == 3


def test_fit_ndd_requires_tree(small_csv, capsys):
    assert main(["fit", "--model", "ndd", small_csv]) == 1
    assert "--tree or --tree-search" in capsys.readouterr().err

    assert main(
        ["fit", "--model", "ndd", "--tree", "((a,b),c)", small_csv, "--json"]
    ) == 0
    doc = _json_out(capsys)
    assert doc["config"]["tree"] == "((a,b),c)"
    g2 = doc["results"]["groups"]["g2"]
    assert len(g2["leaf_mean"]) == 3
    assert sum(g2["leaf_mean"]) == pytest.approx(1.0)
    assert g2["tree"].startswith("((a:")


def test_fit_ndd_names_the_subtree_that_cannot_be_fitted(tmp_path, capsys):
    # a:b is fixed at 1:2 in both groups, so node N1 of ((a,b),c,d) cannot
    # support a Dirichlet fit.
    y = np.random.default_rng(47).dirichlet([3.0, 4.0, 5.0], size=20)
    x = np.column_stack([y[:, 0] / 3.0, 2.0 * y[:, 0] / 3.0, y[:, 1:]])
    lines = ["group,a,b,c,d"] + [
        f"g{1 + i % 2}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(x)
    ]
    path = tmp_path / "fixed_ratio.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["fit", "--model", "ndd", "--tree", "((a,b),c,d)", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "subtree 'N1': a component is constant" in captured.err


def test_fit_ndd_reports_leaf_means_in_csv_column_order(capsys):
    # The tree lists AQ2 before OQ; the CSV's columns are TQ, AQ1, OQ, AQ2.
    text = "((TQ,AQ1),(AQ2,OQ))"
    ds = parse_csv(FIXTURE)
    assert main(["fit", "--model", "ndd", "--tree", text, FIXTURE, "--json"]) == 0
    res = _json_out(capsys)["results"]
    assert res["components"] == ["TQ", "AQ1", "OQ", "AQ2"]
    tree = nested.parse_tree(text)
    for label, group in res["groups"].items():
        fit = nested.mle(tree, ds.group_dataset(label))
        means = nested.leaf_means(fit.params)
        ses = nested.delta_method_ses(fit.params, group["n"])
        by_name = {
            tree.component_name(j): (means[j], ses[j]) for j in range(len(means))
        }
        for name, mean, se in zip(
            res["components"], group["leaf_mean"], group["leaf_mean_se"]
        ):
            assert (mean, se) == by_name[name]


def test_tree_and_tree_search_are_exclusive(small_csv, capsys):
    code = main(
        [
            "fit",
            "--model",
            "ndd",
            "--tree",
            "((a,b),c)",
            "--tree-search",
            small_csv,
        ]
    )
    assert code == 1
    assert "argument --tree-search: not allowed with argument --tree" in capsys.readouterr().err


def test_tree_component_count_must_match(small_csv, capsys):
    assert main(["fit", "--model", "ndd", "--tree", "(a,b)", small_csv]) == 1
    assert "tree covers 2 components" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--tree", "((a,b),c)", "CSV"], "--tree applies only with --model ndd"),
        (["ci", "--tree-search", "CSV"], "--tree-search applies only with --model ndd"),
        (
            ["test", "--method", "dirichlet-lrt", "--tree", "((a,b),c)", "CSV"],
            "--tree applies only with --method ndd-lrt",
        ),
        (
            ["simulate", "type1", "--alpha", "2,3,4", "--n", "7", "--replicates", "5",
             "--procedure", "dirichlet-lrt", "--tree", "((a,b),c)"],
            "--tree applies only with --procedure ndd-lrt",
        ),
        (
            ["fit", "--model", "ndd", "--tree", "((a,b),c)", "--criterion", "aic", "CSV"],
            "--criterion applies only with --tree-search",
        ),
        (["ci", "--criterion", "loglik", "CSV"], "--criterion applies only with --tree-search"),
        (
            ["test", "--method", "dirichlet-lrt", "--no-calibration", "CSV"],
            "--no-calibration applies only with --method uniformity or maugard",
        ),
        (
            ["test", "--method", "ndd-lrt", "--tree", "((a,b),c)",
             "--calibration-replicates", "0", "CSV"],
            "--calibration-replicates applies only with --method uniformity or maugard",
        ),
        (
            ["test", "--method", "clr-hotelling", "--group", "g1", "CSV"],
            "--group applies only with --method uniformity",
        ),
        (
            ["test", "--method", "maugard", "--group", "g1", "CSV"],
            "--group applies only with --method uniformity",
        ),
        (
            ["simulate", "type1", "--alpha", "2,3,4", "--n", "7", "--replicates", "5",
             "--no-calibration"],
            "--no-calibration applies only with --procedure maugard",
        ),
        (
            ["simulate", "type1", "--alpha", "2,3,4", "--n", "7", "--replicates", "5",
             "--procedure", "ndd-lrt", "--tree", "((a,b),c)",
             "--calibration-replicates", "500"],
            "--calibration-replicates applies only with --procedure maugard",
        ),
        (
            ["test", "--method", "dirichlet-lrt", "--level", "0.01", "CSV"],
            "--level applies only with --method maugard",
        ),
        (
            ["test", "--method", "uniformity", "--group", "g1", "--level", "0.01", "CSV"],
            "--level applies only with --method maugard",
        ),
    ],
    ids=[
        "fit", "ci", "test", "simulate", "fit-criterion", "ci-criterion",
        "test-no-calibration", "test-calibration-replicates", "test-group",
        "maugard-group", "simulate-no-calibration", "simulate-calibration-replicates",
        "lrt-level", "uniformity-level",
    ],
)
def test_tree_flags_the_command_would_ignore_exit_1(small_csv, capsys, argv, message):
    # Each of these used to exit 0 and drop a flag of another method,
    # procedure or tree option without a word.
    argv = [small_csv if arg == "CSV" else arg for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"simplexstats: error: {message}\n"


SIMULATE = ["simulate", "type1", "--n", "7", "--replicates", "5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--model", "ndd", "--tree", "((a,b),c)", "--tree-search", "CSV"],
         "argument --tree-search: not allowed with argument --tree"),
        (["test", "--method", "ndd-lrt", "--tree", "((a,b),c)", "--tree-search", "CSV"],
         "argument --tree-search: not allowed with argument --tree"),
        (["ci", "--model", "ndd", "--tree-search", "--tree", "((a,b),c)", "CSV"],
         "argument --tree: not allowed with argument --tree-search"),
        (SIMULATE + ["--alpha", "2,3,4", "--gen-tree", "((a:1,b:1):1,c:1)"],
         "argument --gen-tree: not allowed with argument --alpha"),
        (["simulate", "power", "--n", "7", "--alpha", "2,3,4", "--alpha2", "4,3,2",
          "--gen-tree2", "((a:1,b:1):1,c:1)"],
         "argument --gen-tree2: not allowed with argument --alpha2"),
        (["test", "--method", "maugard", "--no-calibration",
          "--calibration-replicates", "500", "CSV"],
         "argument --calibration-replicates: not allowed with argument --no-calibration"),
        (SIMULATE + ["--alpha", "2,3,4", "--procedure", "maugard", "--no-calibration",
                     "--calibration-replicates", "500"],
         "argument --calibration-replicates: not allowed with argument --no-calibration"),
        (["ternary", "CSV", "--pair", "a,b", "--all-pairs", "--out", "OUT"],
         "argument --all-pairs: not allowed with argument --pair"),
        (["ternary", "CSV", "--all-pairs", "--out", "OUT", "--json"],
         "unrecognized arguments: --json"),
        (["ternary", "CSV", "--all-pairs", "--out", "OUT", "--stamp"],
         "unrecognized arguments: --stamp"),
    ],
    ids=[
        "fit-tree", "test-tree", "ci-tree", "simulate-generator", "simulate-generator2",
        "test-calibration", "simulate-calibration", "ternary-pairs",
        "ternary-json", "ternary-stamp",
    ],
)
def test_flags_that_exclude_each_other_or_go_unread_exit_1(small_csv, tmp_path, capsys, argv, message):
    # Each of these used to exit 0 and drop one of the flags, or check the
    # pair by hand after parsing.
    out = tmp_path / "panels.svg"
    argv = [{"CSV": small_csv, "OUT": str(out)}.get(arg, arg) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_two_sample_tests_match_library(capsys):
    ds = parse_csv(FIXTURE)

    assert main(["test", "--method", "dirichlet-lrt", FIXTURE, "--json"]) == 0
    doc = _json_out(capsys)
    want = inference.two_sample_dirichlet_lrt(ds)
    assert doc["results"]["statistic"] == want.statistic
    assert doc["results"]["p_value"] == want.p_value
    assert doc["results"]["df"] == [3]
    assert doc["results"]["groups"] == ["control", "treatment"]

    tree_text = "((AQ1,OQ),(AQ2,TQ))"
    assert main(
        ["test", "--method", "ndd-lrt", "--tree", tree_text, FIXTURE, "--json"]
    ) == 0
    doc = _json_out(capsys)
    assert doc["config"]["tree"] == tree_text
    subtrees = doc["results"]["details"]["subtrees"]
    assert len(subtrees) == 3
    total = sum(s["statistic"] for s in subtrees)
    assert doc["results"]["statistic"] == pytest.approx(total)

    assert main(["test", "--method", "clr-hotelling", FIXTURE, "--json"]) == 0
    doc = _json_out(capsys)
    want = inference.clr_hotelling_test(ds)
    assert doc["results"]["statistic"] == want.statistic
    assert doc["results"]["p_value"] == want.p_value
    assert doc["results"]["df"] == [3, 10]


def test_uniformity_needs_group_choice_on_two_group_data(capsys):
    assert main(["test", "--method", "uniformity", FIXTURE]) == 1
    assert "--group" in capsys.readouterr().err

    assert main(
        [
            "test",
            "--method",
            "uniformity",
            "--group",
            "nobody",
            FIXTURE,
        ]
    ) == 1
    assert "unknown group" in capsys.readouterr().err


def test_uniformity_asymptotic_and_calibrated(capsys):
    ds = parse_csv(FIXTURE)
    assert main(
        [
            "test",
            "--method",
            "uniformity",
            "--group",
            "control",
            "--no-calibration",
            FIXTURE,
            "--json",
        ]
    ) == 0
    doc = _json_out(capsys)
    want = inference.one_sample_uniformity_test(
        ds.group_matrix("control"), group="control"
    )
    assert doc["results"]["statistic"] == want.statistic
    assert doc["results"]["p_value"] == want.p_value
    assert "calibrated_p_value" not in doc["results"]["details"]

    assert main(
        [
            "test",
            "--method",
            "uniformity",
            "--group",
            "control",
            "--calibration-replicates",
            "2000",
            FIXTURE,
            "--json",
        ]
    ) == 0
    doc = _json_out(capsys)
    details = doc["results"]["details"]
    assert details["calibration_replicates"] == 2000
    assert 0.0 < details["calibrated_p_value"] <= 1.0
    # the asymptotic p-value is reported unchanged either way
    assert doc["results"]["p_value"] == want.p_value


def test_maugard_verdict_matches_library(capsys):
    ds = parse_csv(FIXTURE)
    assert main(
        [
            "test",
            "--method",
            "maugard",
            "--calibration-replicates",
            "2000",
            FIXTURE,
            "--json",
        ]
    ) == 0
    doc = _json_out(capsys)
    want = inference.maugard_procedure(ds, calibration_replicates=2000)
    assert doc["results"]["verdict"] == want.verdict
    assert doc["results"]["level"] == 0.05
    assert len(doc["results"]["reports"]) == 2
    assert doc["config"]["calibrated"] is True


@pytest.mark.parametrize("replicates", ["0", "-5"])
@pytest.mark.parametrize("method", ["maugard", "uniformity"])
def test_calibration_replicates_must_be_positive(capsys, method, replicates):
    argv = ["test", "--method", method, FIXTURE, "--calibration-replicates", replicates]
    if method == "uniformity":
        argv += ["--group", "control"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("simplexstats: error: calibration replicates")
    assert "Traceback" not in captured.err


def test_ci_matches_library(capsys):
    ds = parse_csv(FIXTURE)
    assert main(["ci", FIXTURE, "--json"]) == 0
    doc = _json_out(capsys)
    want = inference.pairwise_mean_cis(ds)
    rows = doc["results"]["intervals"]
    assert [r["component"] for r in rows] == ["TQ", "AQ1", "OQ", "AQ2"]
    for row, ci in zip(rows, want):
        assert row["estimate"] == ci.estimate
        assert row["lower"] == ci.lower
        assert row["upper"] == ci.upper
    assert doc["results"]["z_value"] == want[0].z_value
    assert doc["results"]["difference"] == "mean(control) - mean(treatment)"


def test_ci_ndd_needs_tree(capsys):
    assert main(["ci", "--model", "ndd", FIXTURE]) == 1
    assert "--tree or --tree-search" in capsys.readouterr().err


def test_tree_search_reports_ranking(capsys):
    ds = parse_csv(FIXTURE)
    best, _ = treesearch.search(ds)
    assert main(["tree-search", FIXTURE, "--json"]) == 0
    doc = _json_out(capsys)
    res = doc["results"]
    assert res["n_candidates"] == 26
    assert res["best_tree"] == best.tree.render()
    assert 0 < res["n_filtered"] < 26
    assert len(res["ranking"]) == 26
    filtered_rows = [r for r in res["ranking"] if r.get("filtered")]
    assert len(filtered_rows) == res["n_filtered"]
    assert all("reason" in r for r in filtered_rows)
    fitted_rows = [r for r in res["ranking"] if not r.get("filtered")]
    assert all("log_likelihood" in r for r in fitted_rows)
    corr = np.asarray(res["correlation"])
    assert corr.shape == (4, 4)
    assert np.allclose(np.diag(corr), 1.0)


@pytest.mark.parametrize("criterion", ["loglik", "aic"])
def test_tree_search_matches_recorded_results(criterion, capsys):
    want = json.loads(TREE_SEARCH_GOLDEN.read_text(encoding="utf-8"))[criterion]
    assert main(["tree-search", FIXTURE, "--json", "--criterion", criterion]) == 0
    got = _json_out(capsys)["results"]
    for key in ("components", "n_candidates", "n_filtered"):
        assert got[key] == want[key]
    assert np.allclose(got["correlation"], want["correlation"], rtol=1e-9, atol=1e-12)

    def exact(row):
        return row["tree"], row.get("filtered"), row.get("reason"), row.get("converged")

    assert [exact(row) for row in got["ranking"]] == [exact(row) for row in want["ranking"]]
    for row, ref in zip(got["ranking"], want["ranking"]):
        assert set(row) == set(ref)
        if "log_likelihood" in ref:
            assert row["log_likelihood"] == pytest.approx(ref["log_likelihood"], rel=1e-9, abs=0.0)
    weight = re.compile(r":([-+0-9.eE]+)")
    assert weight.sub("", got["best_tree"]) == weight.sub("", want["best_tree"])
    got_w, want_w = weight.findall(got["best_tree"]), weight.findall(want["best_tree"])
    assert len(got_w) == len(want_w)
    assert [float(w) for w in got_w] == pytest.approx([float(w) for w in want_w], rel=1e-9, abs=0.0)


def test_simulate_reruns_are_byte_identical(capsys):
    argv = [
        "simulate",
        "type1",
        "--alpha",
        "6.8,6.8,6.8,6.8",
        "--n",
        "7",
        "--replicates",
        "40",
        "--seed",
        "11",
        "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    counts = doc["results"]["counts"]
    assert sum(counts.values()) == 40
    assert doc["config"]["generator_1"] == [6.8, 6.8, 6.8, 6.8]
    assert doc["config"]["mode"] == "type1"


def test_simulate_records_the_maugard_calibration(capsys):
    base = ["simulate", "type1", "--alpha", "12,5,5,5", "--n", "7", "--replicates", "30", "--json"]
    docs = {}
    for name, flags in (
        ("default", []),
        ("asymptotic", ["--no-calibration"]),
        ("1000", ["--calibration-replicates", "1000"]),
    ):
        assert main(base + ["--procedure", "maugard"] + flags) == 0
        docs[name] = capsys.readouterr().out
    assert docs["asymptotic"] != docs["1000"]
    calibration = {name: json.loads(doc)["config"]["calibration_replicates"] for name, doc in docs.items()}
    assert calibration == {
        "default": inference.CALIBRATION_REPLICATES,
        "asymptotic": None,
        "1000": 1000,
    }
    # Only the maugard procedure has a calibration to record.
    assert main(base) == 0
    assert "calibration_replicates" not in _json_out(capsys)["config"]
    ndd = ["--procedure", "ndd-lrt", "--tree", "((a,b),(c,d))"]
    assert main(base[:2] + ["--gen-tree", "((a:3,b:4):5,(c:2,d:6):4)"] + base[4:] + ndd) == 0
    assert "calibration_replicates" not in _json_out(capsys)["config"]


def test_simulate_power_with_tree_generators(capsys):
    argv = [
        "simulate",
        "power",
        "--procedure",
        "ndd-lrt",
        "--gen-tree",
        "((a:9,b:7):5,c:6)",
        "--gen-tree2",
        "((a:4,b:12):5,c:6)",
        "--tree",
        "((a,b),c)",
        "--n",
        "10",
        "--replicates",
        "30",
        "--json",
    ]
    assert main(argv) == 0
    doc = _json_out(capsys)
    assert doc["config"]["procedure"] == "ndd-lrt"
    assert doc["config"]["tree"] == "((a,b),c)"
    assert sum(doc["results"]["counts"].values()) == 30


def test_simulate_argument_guards(capsys):
    base = ["simulate", "type1", "--n", "7", "--replicates", "5"]
    assert main(base) == 1
    assert "needs a generator" in capsys.readouterr().err

    assert main(base + ["--alpha", "1,2,3", "--alpha2", "2,2,2"]) == 1
    assert "one shared generator" in capsys.readouterr().err

    power = ["simulate", "power", "--n", "7", "--alpha", "1,2,3"]
    assert main(power) == 1
    assert "second generator" in capsys.readouterr().err

    both = base + ["--alpha", "1,2,3", "--gen-tree", "((a:1,b:1):1,c:1)"]
    assert main(both) == 1
    assert "argument --gen-tree: not allowed with argument --alpha" in capsys.readouterr().err

    ndd = base + ["--alpha", "1,2,3", "--procedure", "ndd-lrt"]
    assert main(ndd) == 1
    assert "needs --tree" in capsys.readouterr().err

    bad_alpha = base + ["--alpha", "1,,3"]
    assert main(bad_alpha) == 1
    assert "bad concentration list" in capsys.readouterr().err

    bad_seed = base + ["--alpha", "2,3,4", "--seed", "-1"]
    assert main(bad_seed) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_ternary_writes_svg(small_csv, tmp_path, capsys):
    out = tmp_path / "panels.svg"
    assert main(["ternary", small_csv, "--all-pairs", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    svg = out.read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    assert svg.count('stroke="#555555"') == 3

    assert main(["ternary", small_csv, "--all-pairs"]) == 1
    assert "--out" in capsys.readouterr().err

    assert main(["ternary", small_csv, "--out", str(out)]) == 1
    assert "no component pairs requested" in capsys.readouterr().err

    assert main(
        ["ternary", small_csv, "--pair", "a", "--out", str(out)]
    ) == 1
    assert "exactly two" in capsys.readouterr().err

    assert main(
        ["ternary", small_csv, "--pair", "a,zzz", "--out", str(out)]
    ) == 1
    assert "unknown component" in capsys.readouterr().err


def test_out_file_and_stamp(small_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(
        ["test", "--method", "dirichlet-lrt", small_csv, "--out", str(out)]
    ) == 0
    capsys.readouterr()
    doc = ResultDocument.from_json(out.read_text(encoding="utf-8"))
    assert doc.kind == "test"
    assert doc.created is None

    assert main(
        [
            "test",
            "--method",
            "dirichlet-lrt",
            small_csv,
            "--out",
            str(out),
            "--stamp",
            "--json",
        ]
    ) == 0
    stamped = json.loads(capsys.readouterr().out)
    assert stamped["created"] is not None


def test_missing_csv_and_bad_rows_exit_1(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "ghost.csv")]) == 1
    assert "simplexstats: error:" in capsys.readouterr().err

    bad = tmp_path / "zeros.csv"
    bad.write_text("group,a,b\ng1,0,1\ng1,0.5,0.5\n", encoding="utf-8")
    assert main(["fit", str(bad)]) == 1
    assert "not strictly positive" in capsys.readouterr().err
    assert main(["fit", str(bad), "--zero-replace", "0.01"]) == 0
    capsys.readouterr()


def test_components_flag_reorders_columns(capsys):
    assert main(
        ["fit", FIXTURE, "--components", "AQ2,TQ,AQ1,OQ", "--json"]
    ) == 0
    doc = _json_out(capsys)
    assert doc["results"]["components"] == ["AQ2", "TQ", "AQ1", "OQ"]
    assert doc["config"]["components"] == ["AQ2", "TQ", "AQ1", "OQ"]
