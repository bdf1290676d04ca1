"""Config merging, discovery rules, exit codes, artifact determinism."""

from __future__ import annotations

import errno
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from mutdense import errors
from mutdense import cli
from mutdense.cli import (
    Config,
    discover,
    heatmap_filename,
    heatmap_filenames,
    load_config,
    main,
    run,
    worker_count,
)
from mutdense.fault_model import ALL_OPERATOR_IDS, CATALOG, Family, OperatorSet
from mutdense.metrics import Diagnostic, aggregate_project, analyze_unit
from mutdense.reporting import DEFAULT_STYLE, emit_json, emit_unit_json, render_heatmap
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


def _family_ids(family):
    return frozenset(op.id for op in CATALOG if op.family is family)


def test_defaults():
    cfg = load_config(["src"])
    assert cfg.roots == ("src",)
    assert cfg.include_globs == ("**/*.java",)
    assert cfg.operator_set.enabled_ids == ALL_OPERATOR_IDS
    assert cfg.style == DEFAULT_STYLE
    assert cfg.formats == ("json", "text")
    assert cfg.top_lines == 10
    assert cfg.threshold is None
    assert cfg.jobs == 1


def test_operators_flag_narrows_families():
    def enabled(name):
        return load_config(["src", "--operators", name]).operator_set.enabled_ids

    assert enabled("null-type") == _family_ids(Family.NULL_TYPE)
    assert enabled("traditional") == _family_ids(Family.TRADITIONAL)
    assert enabled("all") == ALL_OPERATOR_IDS


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
    assert cfg.operator_set.enabled_ids == frozenset({"NNC", "NRV"})
    assert cfg.output_dir == "reports"
    assert cfg.formats == ("json", "svg")
    assert cfg.jobs == 2
    assert cfg.style.color_stops == ((1, "#aaa"), (4, "#bbb"))
    assert cfg.style.gray_color == "#ccc"


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
        ["src", "--operators", "both"],  # the families parser rejects it
        ["src", "--top-lines", "-2"],
        ["src", "--format="],  # an empty value is checked like the file's ""
        ["src", "--out="],
        ["src", "--bogus"],  # argparse's own errors, which must exit 1: 2 is the gate's code
        ["src", "--jobs"],
    ],
)
def test_bad_flags(argv):
    with pytest.raises(errors.BadFlag):
        load_config(argv)
    assert main(["analyze", *argv]) == 1


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


@pytest.mark.parametrize("value", ["0", "-1", "2.5"])
def test_bad_jobs_env_is_named_in_the_error(monkeypatch, capsys, value):
    monkeypatch.setenv("MUTDENSE_JOBS", value)
    with pytest.raises(errors.BadFlag, match="^MUTDENSE_JOBS"):
        load_config(["src"])
    assert main(["analyze", "src"]) == 1
    err = capsys.readouterr().err
    assert "MUTDENSE_JOBS" in err and "--jobs" not in err
    # any bad value yields to a flag, whose own errors name the flag
    assert load_config(["src", "--jobs", "2"]).jobs == 2
    with pytest.raises(errors.BadFlag, match="^--jobs"):
        load_config(["src", "--jobs", "0"])


_NO_OPERATOR = ("no operator is enabled: the operator ids [] select none of the families"
                " ['null-type', 'traditional']")

# (flag arguments, config key, the same value in a config file, outcome): True
# when both load alike, False when each is rejected naming its source, else
# the message both fail with; each setting that has both a flag and a key,
# with a bad value where a flag can carry one
_FLAG_KEY_VALUES = [
    (["--include", "**/*.jav", "--include", "x"], "includeGlobs", ["**/*.jav", "x"], True),
    (["--exclude", "gen/**"], "excludeGlobs", ["gen/**"], True),
    (["--operators", "null-type"], "families", ["null-type"], True),
    (["--operators", "all"], "families", ["traditional", "null-type"], True),
    (["--operators", "both"], "families", ["both"], False),
    (["--enable", "ROR, NNC"], "enabledOperatorIds", "ROR, NNC", True),
    (["--enable="], "enabledOperatorIds", "", _NO_OPERATOR),
    (["--enable", "ROR,BOGUS"], "enabledOperatorIds", "ROR,BOGUS", False),
    (["--out", "reports"], "outputDir", "reports", True),
    (["--out="], "outputDir", "", False),
    (["--format", "svg,json,svg"], "formats", "svg,json,svg", True),
    (["--format="], "formats", "", False),
    (["--format", "json,pdf"], "formats", "json,pdf", False),
    (["--threshold", "2.5"], "threshold", 2.5, True),
    (["--threshold", "1/3"], "threshold", "1/3", True),
    (["--threshold", "1e3"], "threshold", "1e3", True),
    (["--threshold", "1e-999"], "threshold", "1e-999", True),
    (["--threshold", "0"], "threshold", 0, True),
    (["--threshold", "-1"], "threshold", -1, False),
    (["--threshold", "abc"], "threshold", "abc", False),
    (["--threshold", "1e1000"], "threshold", "1e1000", False),
    (["--top-lines", "0"], "topLines", 0, True),
    (["--top-lines", "-2"], "topLines", -2, False),
    (["--jobs", "3"], "jobs", 3, True),
    (["--jobs", "0"], "jobs", 0, False),
    (["--jobs", "two"], "jobs", "two", False),
    (["--top-lines", "x"], "topLines", "x", False),
]


@pytest.mark.parametrize(
    "flag_args,key,file_value,outcome",
    _FLAG_KEY_VALUES,
    ids=[" ".join(args) for args, _, _, _ in _FLAG_KEY_VALUES],
)
def test_flag_and_config_key_parse_alike(tmp_path, flag_args, key, file_value, outcome):
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(json.dumps({key: file_value}))
    flag_argv = ["src", *flag_args]
    file_argv = ["src", "--config", str(cfg_file)]
    if outcome is True:
        assert load_config(flag_argv) == load_config(file_argv)
        return
    if outcome is not False:
        for argv in (flag_argv, file_argv):
            with pytest.raises(errors.MutdenseError) as failure:
                load_config(argv)
            assert str(failure.value) == outcome
        return
    flag = flag_args[0].split("=")[0]
    with pytest.raises(errors.BadFlag, match="^" + re.escape(flag)):
        load_config(flag_argv)
    with pytest.raises(errors.BadConfigKey, match="^" + key):
        load_config(file_argv)


@pytest.mark.parametrize("source", ["flag", "file"])
def test_huge_threshold_exponent_fails_fast(tmp_path, source):
    # Fraction would build 10**100000000; the child is killed if it tries
    if source == "flag":
        args, name = ["--threshold", "1e100000000"], "--threshold"
    else:
        cfg_file = tmp_path / "md.json"
        cfg_file.write_text(json.dumps({"threshold": "1e100000000"}))
        args, name = ["--config", str(cfg_file)], "threshold"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "mutdense", "analyze", "src", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"mutdense: {name}") and "Traceback" not in proc.stderr
    started = time.perf_counter()
    with pytest.raises((errors.BadFlag, errors.BadConfigKey), match=f"^{name}"):
        load_config(["src", *args])
    assert time.perf_counter() - started < 1


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


# one wrongly typed or out-of-range value per case; every key is covered
_BAD_CONFIG_VALUES = [
    ("roots", "t/a"),
    ("roots", ["t/a", 3]),
    ("includeGlobs", "**/*.java"),
    ("excludeGlobs", [None]),
    ("families", "traditional"),
    ("families", 1),
    ("enabledOperatorIds", 5),
    ("enabledOperatorIds", ["ROR", "BOGUS"]),
    ("outputDir", None),
    ("formats", {"json": True}),
    ("formats", ["json", "pdf"]),
    ("threshold", True),
    ("threshold", -1),
    ("threshold", "abc"),
    ("topLines", "x"),
    ("topLines", -1),
    ("topLines", 2.5),
    ("jobs", None),
    ("jobs", 0),
    ("jobs", "2"),
    ("colorStops", [[1, None]]),
    ("colorStops", [[3, "#aaa"], [1, "#bbb"]]),
    ("colorStops", 7),
    ("grayColor", 7),
    ("colorStops", [[1, '#fff" onmouseover="alert(2)']]),
    ("colorStops", [[1, "#12345"]]),
    ("grayColor", ""),
    ("grayColor", "gray;x"),
    ("families", []),
]


def test_bad_config_values_cover_every_key():
    assert {key for key, _ in _BAD_CONFIG_VALUES} == set(cli._CONFIG_KEYS)


@pytest.mark.parametrize("key,value", _BAD_CONFIG_VALUES)
def test_bad_config_value_is_rejected_by_key(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(json.dumps({key: value}))
    with pytest.raises(errors.BadConfigKey, match=key):
        load_config(["src", "--config", str(cfg_file)])
    assert main(["analyze", "src", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mutdense: ") and key in err
    assert "Traceback" not in err


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_special_files_are_skipped(write_tree, tmp_path):
    root = write_tree({"Ok.java": ALPHA_SRC})
    os.mkfifo(root / "P.java")
    for roots in ((str(root),), (str(root / "P.java"), str(root / "Ok.java"))):
        files, diagnostics = discover(Config(roots=roots))
        assert [fs for _, fs in files] == [str(root / "Ok.java")]
        assert [d.error for d in diagnostics] == ["skipped: not a regular file"]
    # the run would block forever if it opened the pipe
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--out", str(out)]) == 0
    doc = json.loads((out / "project.json").read_bytes())
    assert [u["path"] for u in doc["units"]] == ["Ok.java"]
    assert [d["path"] for d in doc["diagnostics"]] == ["P.java"]


@pytest.mark.parametrize("fmt", ["json", "text", "html", "svg"])
def test_non_utf8_file_name_is_a_diagnostic(write_tree, tmp_path, fmt):
    root = write_tree({"Ok.java": ALPHA_SRC})
    try:
        with open(os.path.join(os.fsencode(root), b"\xff.java"), "w") as fh:
            fh.write(BETA_SRC)
    except (OSError, ValueError) as exc:
        pytest.skip(f"the filesystem refuses a non-UTF-8 name: {exc}")
    files, diagnostics = discover(Config(roots=(str(root),)))
    assert [d for d, _ in files] == ["Ok.java"]
    assert diagnostics == [
        Diagnostic("\\xff.java", "skipped: file name is not valid UTF-8")]
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--format", fmt, "--out", str(out)]) == 0
    artifact = {"json": "project.json", "text": "project.txt",
                "html": "Ok.java.html", "svg": "project.svg"}[fmt]
    assert sorted(p.name for p in out.iterdir()) == [artifact]
    if fmt == "json":
        doc = json.loads((out / "project.json").read_bytes())
        assert [d["path"] for d in doc["diagnostics"]] == ["\\xff.java"]
    if fmt == "text":
        assert "\\xff.java: skipped" in (out / "project.txt").read_text("utf-8")


@pytest.mark.parametrize("spelling", ["t", "t/", "./t", ".", "absolute"])
def test_display_paths_do_not_depend_on_root_spelling(write_tree, monkeypatch, spelling):
    root = write_tree(
        {"A.java": ALPHA_SRC, "p/C.java": GAMMA_SRC, "p/q/B.java": BETA_SRC},
        subdir="t",
    )
    monkeypatch.chdir(root if spelling == "." else root.parent)
    given = str(root) if spelling == "absolute" else spelling
    files, diagnostics = discover(Config(roots=(given,)))
    assert [d for d, _ in files] == ["A.java", "p/C.java", "p/q/B.java"]
    assert diagnostics == []


@pytest.mark.parametrize(
    "denied,display,found", [("t/sub", "sub", ["A.java"]), ("t", "t", [])]
)
def test_unlistable_directory_is_a_diagnostic(
    write_tree, tmp_path, monkeypatch, denied, display, found
):
    # a stand-in for os.scandir, because chmod 000 denies nothing to root
    write_tree({"A.java": ALPHA_SRC, "sub/B.java": BETA_SRC}, subdir="t")
    monkeypatch.chdir(tmp_path)
    real_scandir = os.scandir

    def scandir(path="."):
        if os.fspath(path) == denied:
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    error = f"unreadable: [Errno {errno.EACCES}] Permission denied: '{denied}'"
    files, diagnostics = discover(Config(roots=("t",)))
    assert [d for d, _ in files] == found
    assert diagnostics == [Diagnostic(display, error)]
    assert main(["analyze", "t", "--out", "out"]) == 0
    doc = json.loads((tmp_path / "out" / "project.json").read_bytes())
    assert doc["diagnostics"] == [{"path": display, "error": error}]


def test_a_directory_given_as_a_unit_is_a_diagnostic(tmp_path):
    # discover yields no directory, but a library caller may pass one
    result = cli.analyze_path("D.java", str(tmp_path), Config(roots=(str(tmp_path),)))
    error = f"unreadable: [Errno {errno.EISDIR}] Is a directory: '{tmp_path}'"
    assert result == Diagnostic("D.java", error)


def test_discovery_missing_root():
    with pytest.raises(errors.MutdenseError):
        discover(Config(roots=("does/not/exist",)))


def test_discovery_deduplicates_roots(write_tree):
    root = write_tree({"One.java": ALPHA_SRC})
    files, _ = discover(Config(roots=(str(root), str(root))))
    assert len(files) == 1


def test_discovery_counts_hard_links_once(write_tree):
    root = write_tree({"A.java": ALPHA_SRC, "C.java": BETA_SRC})
    try:
        os.link(root / "A.java", root / "B.java")
    except (AttributeError, NotImplementedError, OSError) as exc:
        pytest.skip(f"no hard links here: {exc}")
    files, diagnostics = discover(Config(roots=(str(root),)))
    assert [d for d, _ in files] == ["A.java", "C.java"]
    assert diagnostics == []


def test_colliding_display_paths_are_qualified_by_root(
    write_tree, tmp_path, capsys, monkeypatch
):
    a = write_tree({"B.java": ALPHA_SRC, "OnlyA.java": BETA_SRC}, subdir="a")
    b = write_tree({"B.java": GAMMA_SRC, "sub/OnlyB.java": BETA_SRC}, subdir="b")
    files, _ = discover(Config(roots=(str(a), str(b) + "/")))
    qa, qb = str(a).replace(os.sep, "/"), str(b).replace(os.sep, "/")
    assert [d for d, _ in files] == sorted(
        ["OnlyA.java", "sub/OnlyB.java", f"{qa}/B.java", f"{qb}/B.java"]
    )
    out = tmp_path / "out"
    assert main(["analyze", str(a), str(b), "--out", str(out)]) == 0
    doc = json.loads((out / "project.json").read_bytes())
    assert len(doc["units"]) == 4
    # a single root keeps its relative display paths
    files, _ = discover(Config(roots=(str(a),)))
    assert [d for d, _ in files] == ["B.java", "OnlyA.java"]
    # qualifying a/B.java and b/B.java makes a/B.java clash with c's a/B.java,
    # so that one is qualified in a second round
    write_tree({"a/B.java": BETA_SRC}, subdir="c")
    monkeypatch.chdir(tmp_path)
    files, _ = discover(Config(roots=("a", "b", "c")))
    assert [d for d, _ in files] == [
        "OnlyA.java", "a/B.java", "b/B.java", "c/a/B.java", "sub/OnlyB.java"]
    assert main(["analyze", "a", "b", "c", "--out", "out3"]) == 0
    doc = json.loads((tmp_path / "out3" / "project.json").read_bytes())
    assert len(doc["units"]) == 5


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


def test_heatmap_filenames_stay_distinct():
    assert heatmap_filenames(["a/B.java", "a_B.java", "a_B.java.2", "x.java"]) == [
        "a_B.java.html",
        "a_B.java.2.html",
        "a_B.java.2.2.html",
        "x.java.html",
    ]


def test_long_heatmap_names_are_capped_and_stay_distinct():
    prefix = "é" * 120  # 240 bytes in UTF-8: a cut falls inside a character
    paths = [prefix + "/First.java", prefix + "/Second.java", prefix + "_First.java",
             "short/A.java"]
    names = heatmap_filenames(paths)
    assert len(set(names)) == 4
    assert all(len(name.encode("utf-8")) <= 255 for name in names)
    assert names[3] == "short_A.java.html"
    # the first and third share their stem, but not the hash of their path
    assert names[0].startswith("é" * 116 + "~") and names[0][:117] == names[2][:117]
    assert heatmap_filenames(paths) == names
    second = heatmap_filename(paths[0], 2)
    assert second.endswith(".2.html") and len(second.encode("utf-8")) <= 255


def test_deep_tree_writes_its_heatmap(write_tree, tmp_path):
    """A display path longer than one file name allows still gets a page."""
    deep = "/".join(f"{k}" * 37 for k in range(9)) + "/A.java"
    root = write_tree({deep: ALPHA_SRC})
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--format", "html", "--out", str(out)]) == 0
    (page,) = out.iterdir()
    assert len(page.name.encode("utf-8")) <= 255
    assert f"<title>{deep}</title>" in page.read_text(encoding="utf-8")


def test_colliding_heatmap_names_write_one_file_per_unit(write_tree, tmp_path):
    root = write_tree({"a/B.java": ALPHA_SRC, "a_B.java": BETA_SRC})
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--format", "html", "--out", str(out)]) == 0
    pages = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
    assert sorted(pages) == ["a_B.java.2.html", "a_B.java.html"]
    assert "<title>a/B.java</title>" in pages["a_B.java.html"]
    assert "<title>a_B.java</title>" in pages["a_B.java.2.html"]


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


def inline_pool(sizes):
    """A stand-in pool class that records each pool's size in ``sizes`` and
    maps in-process: no worker starts."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return InlinePool


def test_run_sizes_pool_by_worker_count(write_tree, tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "process_pool", inline_pool(sizes))
    monkeypatch.setattr(cli, "usable_cpus", lambda: 64)
    root = trio(write_tree)
    cfg = load_config([str(root), "--out", str(tmp_path / "o"), "--jobs", "1000000"])
    assert run(cfg) == 0
    assert sizes == [3]


def test_one_usable_cpu_runs_in_process(write_tree, tmp_path, monkeypatch):
    # the host may have more CPUs than this process may use
    sizes = []
    monkeypatch.setattr(cli, "process_pool", inline_pool(sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    root = trio(write_tree)
    cfg = load_config([str(root), "--out", str(tmp_path / "o"), "--jobs", "4"])
    assert cli.usable_cpus() == 1
    assert run(cfg) == 0
    assert sizes == []


def test_run_dispatches_files_in_chunks(write_tree, tmp_path, monkeypatch):
    # a few chunks per worker, through one per-chunk function at any job count
    sizes, tasks = [], []

    def recording_chunk(task, _original=cli.analyze_chunk):
        tasks.append(task)
        return _original(task)

    monkeypatch.setattr(cli, "process_pool", inline_pool(sizes))
    monkeypatch.setattr(cli, "analyze_chunk", recording_chunk)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 64)
    names = [f"p{k:02d}/U{k}.java" for k in range(40)]
    root = write_tree(dict.fromkeys(names, ALPHA_SRC))
    outputs = []
    for jobs in (2, 1):
        out = tmp_path / f"j{jobs}"
        outputs.append(out)
        tasks.clear()
        assert run(load_config([str(root), "--out", str(out), "--jobs", str(jobs)])) == 0
        assert 0 < len(tasks) <= 16
        assert [display for chunk, _ in tasks for display, _, _ in chunk] == names
    assert sizes == [2]
    assert (outputs[0] / "project.json").read_bytes() == (outputs[1] / "project.json").read_bytes()


@pytest.mark.parametrize("count", [0, 1, 3, 40, 200, 4000])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_chunks_shrink_to_one_file(count, workers):
    # large chunks first, down to one file, so no worker is left alone with
    # a large last chunk while the others wait
    files = [(f"U{k}.java", f"/t/U{k}.java") for k in range(count)]
    chunks = cli.chunked(files, workers)
    assert [pair for chunk in chunks for pair in chunk] == files
    lengths = [len(chunk) for chunk in chunks]
    assert lengths == sorted(lengths, reverse=True)
    assert lengths[-1:] == [1][:count]
    remaining = count
    for n in lengths:
        # a 1 / (2 * workers) share, rounded up, of the files not yet sent
        assert n == -(-remaining // (2 * workers))
        remaining -= n


def test_every_artifact_is_the_same_at_one_and_two_jobs(write_tree, tmp_path):
    sources = {
        "Alpha.java": ALPHA_SRC,
        "Broken.java": "class B { /* never closed\n",
        "a/B.java": BETA_SRC,
        "a_B.java": GAMMA_SRC,
    }
    root = write_tree(sources)
    (root / "Latin1.java").write_bytes(b'class L { String s = "\xe9"; }\n')
    runs = {}
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        argv = ["analyze", str(root), "--format", "json,html,svg,text",
                "--jobs", str(jobs), "--out", str(out)]
        assert main(argv) == 0
        runs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs[1] == runs[2]
    assert sorted(runs[1]) == [
        "Alpha.java.html",
        "a_B.java.2.html",
        "a_B.java.html",
        "project.json",
        "project.svg",
        "project.txt",
    ]
    # the library API, in-process, gives the run's project.json bytes
    ops = OperatorSet.default()
    with pytest.raises(errors.MutdenseError) as broken:
        analyze_unit("Broken.java", sources["Broken.java"], ops)
    reports = [analyze_unit(path, sources[path], ops)
               for path in ("Alpha.java", "a/B.java", "a_B.java")]
    diagnostics = [Diagnostic("Broken.java", str(broken.value)),
                   Diagnostic("Latin1.java", "not valid UTF-8")]
    project = aggregate_project(reports, diagnostics)
    fragments = [emit_unit_json(u) for u in project.units]
    assert emit_json(project, fragments) == runs[1]["project.json"]
    # each page is its own unit's: a/B.java sorts before a_B.java and takes
    # the plain name, though discovery walks a_B.java first
    names = heatmap_filenames([u.path for u in project.units])
    assert names == ["Alpha.java.html", "a_B.java.html", "a_B.java.2.html"]
    for unit, name in zip(project.units, names):
        assert runs[1][name] == render_heatmap(unit, sources[unit.path]).encode("utf-8")


def test_threshold_gate_is_strictly_greater(write_tree, tmp_path, capsys):
    root = write_tree({"Gamma.java": GAMMA_SRC})  # combined average 4/5
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--out", str(out), "--threshold", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "Gamma.java" in err and "0.8000" in err and "0.5000" in err
    # equality does not trip the gate
    assert main(["analyze", str(root), "--out", str(out), "--threshold", "0.8"]) == 0
    assert main(["analyze", str(root), "--out", str(out), "--threshold", "4/5"]) == 0


@pytest.mark.parametrize(
    "args,config,cause",
    [
        (["--enable="], None, "operator ids []"),
        ([], {"enabledOperatorIds": []}, "operator ids []"),
        (["--operators", "null-type", "--enable", "ROR"], None, "['ROR']"),
    ],
    ids=["empty-enable-flag", "empty-config-list", "ids-outside-families"],
)
def test_empty_operator_set_is_fatal(write_tree, tmp_path, capsys, args, config, cause):
    # with no operator every density is 0, so a threshold could never trip
    root = write_tree({"Gamma.java": GAMMA_SRC})
    out = tmp_path / "out"
    if config is not None:
        cfg_file = tmp_path / "md.json"
        cfg_file.write_text(json.dumps(config))
        args = args + ["--config", str(cfg_file)]
    argv = ["analyze", str(root), "--out", str(out), "--threshold", "0"] + args
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "no operator is enabled" in err and cause in err
    assert not out.exists()


def test_explicit_style_values_are_used_as_given(write_tree, tmp_path):
    # "grayColor": "" is no default either: it is a _BAD_CONFIG_VALUES case
    root = write_tree({"Gamma.java": GAMMA_SRC})
    cfg_file = tmp_path / "md.json"
    cfg_file.write_text(json.dumps({"colorStops": []}))
    out = tmp_path / "out"
    argv = ["analyze", str(root), "--config", str(cfg_file), "--format", "html", "--out", str(out)]
    assert main(argv) == 0
    colors = re.findall(r'<tr style="background:([^"]*)"', (out / "Gamma.java.html").read_text())
    # no stop shades a line, even one that hosts mutants; the gray stays
    assert set(colors) == {"#ffffff", DEFAULT_STYLE.gray_color}


def test_missing_root_is_fatal(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    assert "root does not exist" in capsys.readouterr().err


def test_unwritable_output_is_fatal(write_tree, tmp_path, capfd, monkeypatch):
    # a page is written in the worker that renders it, and its write error
    # crosses the pool as the same one-line message the parent's writes give
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    root = trio(write_tree)
    for jobs in (1, 2):
        blocker = tmp_path / f"blocked-j{jobs}"
        blocker.write_text("a file, not a directory")
        paged = tmp_path / f"paged-j{jobs}"
        (paged / "Beta.java.html").mkdir(parents=True)  # a directory at a page's name
        for out in (blocker, paged):
            argv = ["analyze", str(root), "--format", "json,html", "--jobs", str(jobs),
                    "--out", str(out)]
            assert main(argv) == 1, out
            err = capfd.readouterr().err
            assert err.startswith("mutdense: cannot write output:"), err
            assert "Traceback" not in err and err.count("\n") == 1, err
        # a page goes to a temporary name first, which its failed rename removes
        assert [p.name for p in paged.iterdir() if p.suffix == ".tmp"] == [], jobs


def test_a_failed_artifact_write_leaves_no_temporary_file(write_tree, tmp_path, capfd):
    # project.json, .txt and .svg each go to a temporary name first and are
    # renamed into place, so a failed write leaves whole artifacts only
    root = trio(write_tree)
    clean = tmp_path / "clean"
    assert main(["analyze", str(root), "--format", "json,text", "--out", str(clean)]) == 0
    out = tmp_path / "out"
    (out / "project.txt").mkdir(parents=True)  # a directory at the text report's name
    assert main(["analyze", str(root), "--format", "json,text", "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert "mutdense: cannot write output:" in err and "Traceback" not in err, err
    assert sorted(p.name for p in out.iterdir()) == ["project.json", "project.txt"]
    assert (out / "project.json").read_bytes() == (clean / "project.json").read_bytes()
    assert list((out / "project.txt").iterdir()) == []


def test_a_failed_file_keeps_its_page_name(write_tree, tmp_path):
    # names come from the discovered paths, so the broken a/B.java still
    # holds a_B.java.html and a_B.java takes the next free name
    root = write_tree({"a/B.java": "class B { /* never closed\n", "a_B.java": GAMMA_SRC})
    out = tmp_path / "out"
    assert main(["analyze", str(root), "--format", "json,html", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["a_B.java.2.html", "project.json"]
    assert "<title>a_B.java</title>" in (out / "a_B.java.2.html").read_text(encoding="utf-8")


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


_READ_PIECES = [b"\r", b"\n", b"\r\n", b"\r\r\n", b"\xef\xbb\xbf", "\u00e9".encode(),
                "\u4e16".encode(), b"\xff", b"a", b"x = 1;", b" "]


def _seeded_bytes(rng):
    pieces = [p for p in _READ_PIECES if p != b"\xff" or rng.random() < 0.3]
    # some inputs are longer than a text reader's buffer, so a piece may
    # straddle two of its reads
    count = rng.choice((rng.randint(0, 12), rng.randint(2000, 6000)))
    data = b"".join(rng.choice(pieces) for _ in range(count))
    return data + b"\r" if rng.random() < 0.3 else data


def test_byte_read_equals_a_text_read(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "U.java"
    outcomes = Counter()
    for _ in range(400):
        path.write_bytes(_seeded_bytes(rng))
        try:
            with open(path, encoding="utf-8") as fh:
                expected = fh.read()
        except UnicodeDecodeError:
            with pytest.raises(UnicodeDecodeError):
                cli.read_text(str(path))
            outcomes["invalid"] += 1
            continue
        assert cli.read_text(str(path)) == expected
        outcomes["\r" in path.read_bytes().decode()] += 1
    assert min(outcomes.values()) >= 20, outcomes


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
    capsys.readouterr()
    for command in ("operators", "version"):
        assert main([command, "x"]) == 1
        assert capsys.readouterr() == ("", f"mutdense: {command} takes no arguments\n")


def test_run_accepts_programmatic_config(write_tree, tmp_path, capsys):
    root = write_tree({"Factorial.java": FACTORIAL_SRC})
    cfg = Config(roots=(str(root),), output_dir=str(tmp_path / "out"), formats=("json",))
    assert run(cfg) == 0
    assert (tmp_path / "out" / "project.json").exists()
