"""Config merging, discovery rules, exit codes, artifact determinism."""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest

from mutdense import errors
from mutdense import cli
from mutdense.cli import (
    Config,
    discover,
    heatmap_filename,
    load_config,
    main,
    run,
    worker_count,
)
from mutdense.fault_model import Family
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_SRC,
    GAMMA_SRC,
    INTERFACE_SRC,
)


@pytest.fixture(autouse=True)
def clean_jobs_env(monkeypatch):
    monkeypatch.delenv("MUTDENSE_JOBS", raising=False)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults():
    cfg = load_config(["src"])
    assert cfg.roots == ("src",)
    assert cfg.include_globs == ("**/*.java",)
    assert cfg.families == frozenset(Family)
    assert cfg.formats == ("json", "text")
    assert cfg.top_lines == 10
    assert cfg.threshold is None
    assert cfg.jobs == 1


def test_operators_flag_narrows_families():
    assert load_config(["src", "--operators", "null-type"]).families == frozenset(
        {Family.NULL_TYPE}
    )
    assert load_config(["src", "--operators", "traditional"]).families == frozenset(
        {Family.TRADITIONAL}
    )
    assert load_config(["src", "--operators", "all"]).families == frozenset(Family)


def test_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(json.dumps({"threshold": 2.0, "topLines": 4}))
    cfg = load_config(["src", "--config", str(cfg_file), "--threshold", "3.0"])
    assert cfg.threshold == Fraction(3)
    assert cfg.top_lines == 4  # file value survives where no flag is given


def test_config_file_settings_apply(tmp_path):
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(
        json.dumps(
            {
                "roots": ["lib"],
                "includeGlobs": ["**/*.jav"],
                "excludeGlobs": ["**/gen/**"],
                "families": ["null-type"],
                "enabledOperatorIds": ["NNC", "NRV"],
                "outputDir": "reports",
                "formats": "json,svg",
                "topLines": 2,
                "jobs": 2,
                "colorStops": [[1, "#aaa"], [4, "#bbb"]],
                "grayColor": "#ccc",
            }
        )
    )
    cfg = load_config(["--config", str(cfg_file)])
    assert cfg.roots == ("lib",)
    assert cfg.include_globs == ("**/*.jav",)
    assert cfg.exclude_globs == ("**/gen/**",)
    assert cfg.families == frozenset({Family.NULL_TYPE})
    assert cfg.enabled_operator_ids == frozenset({"NNC", "NRV"})
    assert cfg.output_dir == "reports"
    assert cfg.formats == ("json", "svg")
    assert cfg.jobs == 2
    assert cfg.heatmap_style().color_stops == ((1, "#aaa"), (4, "#bbb"))
    assert cfg.heatmap_style().gray_color == "#ccc"


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(json.dumps({"thresold": 1}))
    with pytest.raises(errors.BadConfigKey):
        load_config(["src", "--config", str(cfg_file)])


@pytest.mark.parametrize("content", ["{not json", '["list"]'])
def test_unreadable_config(tmp_path, content):
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(content)
    with pytest.raises(errors.UnreadableConfig):
        load_config(["src", "--config", str(cfg_file)])
    with pytest.raises(errors.UnreadableConfig):
        load_config(["src", "--config", str(tmp_path / "missing.json")])


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no roots anywhere
        ["src", "--format", "json,pdf"],
        ["src", "--enable", "ROR,BOGUS"],
        ["src", "--threshold", "-1"],
        ["src", "--threshold", "abc"],
        ["src", "--jobs", "0"],
        ["src", "--operators", "both"],  # argparse choice error becomes BadFlag
        ["src", "--top-lines", "-2"],
    ],
)
def test_bad_flags(argv):
    with pytest.raises(errors.BadFlag):
        load_config(argv)


def test_jobs_env_sits_below_file_and_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("MUTDENSE_JOBS", "3")
    assert load_config(["src"]).jobs == 3
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(json.dumps({"jobs": 2}))
    assert load_config(["src", "--config", str(cfg_file)]).jobs == 2
    assert load_config(["src", "--config", str(cfg_file), "--jobs", "5"]).jobs == 5
    monkeypatch.setenv("MUTDENSE_JOBS", "two")
    with pytest.raises(errors.BadFlag):
        load_config(["src"])


def test_include_exclude_flags_replace_file_lists(tmp_path):
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(json.dumps({"includeGlobs": ["**/*.j"], "excludeGlobs": ["a"]}))
    cfg = load_config(
        ["src", "--config", str(cfg_file), "--include", "**/*.java", "--exclude", "b"]
    )
    assert cfg.include_globs == ("**/*.java",)
    assert cfg.exclude_globs == ("b",)


def test_heatmap_filename_mapping():
    assert heatmap_filename("src/main/App.java") == "src_main_App.java.html"
    assert heatmap_filename("C:\\x\\App.java") == "C__x_App.java.html"


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def test_discovery_sorted_and_filtered(write_tree):
    root = write_tree(
        {
            "b/Two.java": ALPHA_SRC,
            "a/One.java": ALPHA_SRC,
            "a/skip.txt": "not java",
            "gen/Three.java": ALPHA_SRC,
        }
    )
    cfg = Config(roots=(str(root),), exclude_globs=("gen/**",))
    files, diagnostics = discover(cfg)
    assert [d for d, _ in files] == ["a/One.java", "b/Two.java"]
    assert diagnostics == []


def test_discovery_skips_symlinks(write_tree, tmp_path):
    root = write_tree({"real/App.java": ALPHA_SRC})
    link_dir = root / "linked"
    link_target = tmp_path / "outside"
    link_target.mkdir()
    (link_target / "Evil.java").write_text(ALPHA_SRC)
    os.symlink(link_target, link_dir)
    os.symlink(link_target / "Evil.java", root / "Alias.java")
    files, _ = discover(Config(roots=(str(root),)))
    assert [d for d, _ in files] == ["real/App.java"]


def test_discovery_size_guard(write_tree):
    root = write_tree({"src/Ok.java": ALPHA_SRC})
    big = root / "src" / "Big.java"
    with open(big, "wb") as fh:
        fh.truncate(10 * 1024 * 1024 + 1)
    files, diagnostics = discover(Config(roots=(str(root),)))
    assert [d for d, _ in files] == ["src/Ok.java"]
    assert len(diagnostics) == 1
    assert "10 MB" in diagnostics[0].error


def test_discovery_missing_root():
    with pytest.raises(errors.MutdenseError):
        discover(Config(roots=("does/not/exist",)))


def test_discovery_deduplicates_roots(write_tree):
    root = write_tree({"One.java": ALPHA_SRC})
    files, _ = discover(Config(roots=(str(root), str(root))))
    assert len(files) == 1


def test_single_file_root(write_tree):
    root = write_tree({"One.java": ALPHA_SRC})
    target = root / "One.java"
    files, _ = discover(Config(roots=(str(target),)))
    assert files == [(str(target).replace(os.sep, "/"), str(target))]


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def trio(write_tree):
    return write_tree(
        {"Alpha.java": ALPHA_SRC, "Beta.java": BETA_SRC, "Gamma.java": GAMMA_SRC}
    )


def test_run_writes_all_artifacts(write_tree, tmp_path, capsys):
    root = trio(write_tree)
    out = tmp_path / "out"
    code = main(
        ["analyze", str(root), "--format", "json,html,svg,text", "--out", str(out)]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "Alpha.java.html",
        "Beta.java.html",
        "Gamma.java.html",
        "project.json",
        "project.svg",
        "project.txt",
    ]
    doc = json.loads((out / "project.json").read_bytes())
    assert [u["path"] for u in doc["units"]] == ["Alpha.java", "Beta.java", "Gamma.java"]


def test_rerun_is_byte_identical(write_tree, tmp_path):
    root = trio(write_tree)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["analyze", str(root), "--out", str(out1)]) == 0
    assert main(["analyze", str(root), "--out", str(out2)]) == 0
    assert (out1 / "project.json").read_bytes() == (out2 / "project.json").read_bytes()


def test_parallel_run_matches_serial(write_tree, tmp_path):
    root = trio(write_tree)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(["analyze", str(root), "--out", str(serial), "--jobs", "1"]) == 0
    assert main(["analyze", str(root), "--out", str(parallel), "--jobs", "3"]) == 0
    assert (serial / "project.json").read_bytes() == (parallel / "project.json").read_bytes()


@pytest.mark.parametrize(
    "jobs,files,cpus,expected",
    [
        (1, 10, 8, 1),
        (4, 10, 8, 4),
        (10**9, 10, 8, 8),
        (10**9, 3, 8, 3),
        (2, 200, 2, 2),
        (5, 1, 8, 1),
        (5, 0, 8, 0),
    ],
)
def test_worker_count_is_clamped(jobs, files, cpus, expected):
    assert worker_count(jobs, files, cpus) == expected


def test_run_sizes_pool_by_worker_count(write_tree, tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in-process: no worker starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    root = trio(write_tree)
    cfg = load_config([str(root), "--out", str(tmp_path / "o"), "--jobs", "1000000"])
    assert run(cfg) == 0
    assert sizes == [3]


def test_threshold_gate_is_strictly_greater(write_tree, tmp_path, capsys):
    root = write_tree({"Gamma.java": GAMMA_SRC})  # combined average 4/5
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--out", str(out), "--threshold", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "Gamma.java" in err and "0.8000" in err and "0.5000" in err
    # equality does not trip the gate
    assert main(["analyze", str(root), "--out", str(out), "--threshold", "0.8"]) == 0
    assert main(["analyze", str(root), "--out", str(out), "--threshold", "4/5"]) == 0


def test_missing_root_is_fatal(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    assert "root does not exist" in capsys.readouterr().err


def test_unwritable_output_is_fatal(write_tree, tmp_path, capsys):
    root = write_tree({"One.java": ALPHA_SRC})
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["analyze", str(root), "--out", str(blocker)]) == 1
    assert "cannot write output" in capsys.readouterr().err


def test_failed_unit_becomes_diagnostic_not_fatal(write_tree, tmp_path):
    root = write_tree(
        {
            "Ok.java": ALPHA_SRC,
            "Broken.java": "class B { /* never closed\n",
            "Lopsided.java": "class C { void f() { }\n",
        }
    )
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--out", str(out)]) == 0
    doc = json.loads((out / "project.json").read_bytes())
    assert [u["path"] for u in doc["units"]] == ["Ok.java"]
    assert sorted(d["path"] for d in doc["diagnostics"]) == [
        "Broken.java",
        "Lopsided.java",
    ]


def test_excluded_file_leaves_no_trace(write_tree, tmp_path):
    root = write_tree({"Keep.java": ALPHA_SRC, "Drop.java": "class ( {{{"})
    out = tmp_path / "out"
    assert (
        main(["analyze", str(root), "--out", str(out), "--exclude", "Drop.java"]) == 0
    )
    doc = json.loads((out / "project.json").read_bytes())
    assert [u["path"] for u in doc["units"]] == ["Keep.java"]
    assert doc["diagnostics"] == []


def test_interface_only_unit_is_empty_and_exits_zero(write_tree, tmp_path):
    root = write_tree({"Quiet.java": INTERFACE_SRC})
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--out", str(out)]) == 0
    unit = json.loads((out / "project.json").read_bytes())["units"][0]
    assert unit["relevantLineCount"] == 0
    assert unit["avg"] == {"traditional": 0.0, "nullType": 0.0, "combined": 0.0}
    assert unit["empty"] is True


def test_no_matching_inputs_is_fatal(write_tree, tmp_path, capsys):
    root = write_tree({"README.md": "promising, but not java"})
    assert main(["analyze", str(root), "--out", str(tmp_path / "o")]) == 1
    assert "no input files matched" in capsys.readouterr().err


def test_null_type_only_run(write_tree, tmp_path):
    root = write_tree({"Beta.java": BETA_SRC})
    out = tmp_path / "out"
    assert (
        main(["analyze", str(root), "--out", str(out), "--operators", "null-type"]) == 0
    )
    unit = json.loads((out / "project.json").read_bytes())["units"][0]
    assert unit["avg"]["traditional"] == 0.0
    assert all(m["family"] == "null-type" for m in unit["mutants"])


def test_operators_and_version_subcommands(capsys):
    assert main(["operators"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("AOR-B")
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mutdense ")


def test_unknown_command_and_empty_argv(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_run_accepts_programmatic_config(write_tree, tmp_path, capsys):
    root = write_tree({"Factorial.java": FACTORIAL_SRC})
    cfg = Config(roots=(str(root),), output_dir=str(tmp_path / "out"), formats=("json",))
    assert run(cfg) == 0
    assert (tmp_path / "out" / "project.json").exists()
