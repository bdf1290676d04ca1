"""Command-line front end: discovery, config, parallel analysis, artifacts.

Subcommands: ``analyze`` (the pipeline), ``operators`` (print the catalog),
``version``.  Flag values override config-file values, which override
defaults; ``MUTDENSE_JOBS`` sits below the config file as a default for
``--jobs``.  Exit codes: 0 success, 2 threshold gate tripped, 1 fatal.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mutdense import errors
from mutdense._version import VERSION
from mutdense.fault_model import (
    ALL_OPERATOR_IDS,
    CATALOG,
    Family,
    OperatorSet,
    find_mutation_sites,
)
from mutdense.metrics import (
    Diagnostic,
    ProjectReport,
    UnitReport,
    aggregate_project,
    build_unit_report,
)
from mutdense.reporting import (
    DEFAULT_STYLE,
    HeatmapStyle,
    emit_json,
    format_density,
    render_barchart,
    render_heatmap,
    render_text,
)
from mutdense.source_model import SourceUnit, locate_bodies, relevant_lines

_SIZE_LIMIT = 10 * 1024 * 1024
_FORMATS = ("json", "html", "svg", "text")


@dataclass(frozen=True)
class Config:
    roots: tuple[str, ...]
    include_globs: tuple[str, ...] = ("**/*.java",)
    exclude_globs: tuple[str, ...] = ()
    families: frozenset[Family] = frozenset(Family)
    enabled_operator_ids: frozenset[str] | None = None
    output_dir: str = "mutdense-out"
    formats: tuple[str, ...] = ("json", "text")
    threshold: Fraction | None = None
    top_lines: int = 10
    jobs: int = 1
    color_stops: tuple[tuple[int, str], ...] | None = None
    gray_color: str | None = None

    def operator_set(self) -> OperatorSet:
        return OperatorSet.default(self.families, self.enabled_operator_ids)

    def heatmap_style(self) -> HeatmapStyle:
        if self.color_stops is None and self.gray_color is None:
            return DEFAULT_STYLE
        return HeatmapStyle(
            color_stops=self.color_stops or DEFAULT_STYLE.color_stops,
            gray_color=self.gray_color or DEFAULT_STYLE.gray_color,
        )


class _Parser(argparse.ArgumentParser):
    # keep exit code 2 reserved for the threshold gate
    def error(self, message: str) -> None:  # type: ignore[override]
        raise errors.BadFlag(message)


def _analyze_parser(prog: str = "mutdense analyze") -> _Parser:
    p = _Parser(prog=prog, description="compute mutant density over a source tree")
    p.add_argument("roots", nargs="*", help="files or directories to analyze")
    p.add_argument("--operators", choices=("traditional", "null-type", "all"))
    p.add_argument("--enable", metavar="IDS", help="comma-separated operator ids")
    p.add_argument("--format", dest="formats", metavar="LIST",
                   help="comma-separated subset of json,html,svg,text")
    p.add_argument("--out", dest="output_dir", metavar="DIR")
    p.add_argument("--threshold", metavar="X",
                   help="fail (exit 2) when a unit's combined average exceeds X")
    p.add_argument("--top-lines", dest="top_lines", type=int, metavar="N")
    p.add_argument("--include", action="append", metavar="GLOB")
    p.add_argument("--exclude", action="append", metavar="GLOB")
    p.add_argument("--config", metavar="FILE", help="JSON config file")
    p.add_argument("--jobs", type=int, metavar="N")
    return p


_FAMILY_CHOICES = {
    "traditional": frozenset({Family.TRADITIONAL}),
    "null-type": frozenset({Family.NULL_TYPE}),
    "all": frozenset(Family),
}

_CONFIG_KEYS = (
    "roots", "includeGlobs", "excludeGlobs", "families", "enabledOperatorIds",
    "outputDir", "formats", "threshold", "topLines", "jobs",
    "colorStops", "grayColor",
)


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise errors.UnreadableConfig(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise errors.UnreadableConfig(f"config {path} must hold a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise errors.BadConfigKey(f"unknown config key {key!r} in {path}")
    return data


def _as_fraction(value, origin: str) -> Fraction:
    try:
        frac = Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise errors.BadFlag(f"{origin}: not a number: {value!r}") from exc
    if frac < 0:
        raise errors.BadFlag(f"{origin}: must be non-negative, got {value}")
    return frac


def _families_from_names(names, origin: str) -> frozenset[Family]:
    out = set()
    for name in names:
        try:
            out.add(Family(name))
        except ValueError as exc:
            raise errors.BadConfigKey(f"{origin}: unknown family {name!r}") from exc
    if not out:
        raise errors.BadConfigKey(f"{origin}: at least one family is required")
    return frozenset(out)


def _parse_formats(value, origin: str) -> tuple[str, ...]:
    items = value.split(",") if isinstance(value, str) else list(value)
    items = [s.strip() for s in items if s.strip()]
    bad = [s for s in items if s not in _FORMATS]
    if bad:
        raise errors.BadFlag(f"{origin}: unknown format(s) {bad}; pick from {_FORMATS}")
    if not items:
        raise errors.BadFlag(f"{origin}: at least one format is required")
    return tuple(dict.fromkeys(items))


def _parse_ids(value, origin: str) -> frozenset[str]:
    items = value.split(",") if isinstance(value, str) else list(value)
    ids = frozenset(s.strip() for s in items if s.strip())
    unknown = ids - ALL_OPERATOR_IDS
    if unknown:
        raise errors.BadFlag(f"{origin}: unknown operator ids {sorted(unknown)}")
    return ids


def load_config(cli_args: Sequence[str], config_file: str | None = None) -> Config:
    """Merge flags over config-file values over defaults."""
    ns = _analyze_parser().parse_args(list(cli_args))
    file_path = config_file or ns.config
    file_cfg = _read_config_file(file_path) if file_path else {}

    merged: dict = {}

    if "roots" in file_cfg:
        merged["roots"] = tuple(str(r) for r in file_cfg["roots"])
    if ns.roots:
        merged["roots"] = tuple(ns.roots)
    if not merged.get("roots"):
        raise errors.BadFlag("at least one root path is required")

    if "includeGlobs" in file_cfg:
        merged["include_globs"] = tuple(file_cfg["includeGlobs"])
    if ns.include:
        merged["include_globs"] = tuple(ns.include)
    if "excludeGlobs" in file_cfg:
        merged["exclude_globs"] = tuple(file_cfg["excludeGlobs"])
    if ns.exclude:
        merged["exclude_globs"] = tuple(ns.exclude)

    if "families" in file_cfg:
        merged["families"] = _families_from_names(file_cfg["families"], "families")
    if ns.operators:
        merged["families"] = _FAMILY_CHOICES[ns.operators]

    if "enabledOperatorIds" in file_cfg:
        merged["enabled_operator_ids"] = _parse_ids(
            file_cfg["enabledOperatorIds"], "enabledOperatorIds")
    if ns.enable:
        merged["enabled_operator_ids"] = _parse_ids(ns.enable, "--enable")

    if "outputDir" in file_cfg:
        merged["output_dir"] = str(file_cfg["outputDir"])
    if ns.output_dir:
        merged["output_dir"] = ns.output_dir

    if "formats" in file_cfg:
        merged["formats"] = _parse_formats(file_cfg["formats"], "formats")
    if ns.formats:
        merged["formats"] = _parse_formats(ns.formats, "--format")

    if "threshold" in file_cfg:
        merged["threshold"] = _as_fraction(file_cfg["threshold"], "threshold")
    if ns.threshold is not None:
        merged["threshold"] = _as_fraction(ns.threshold, "--threshold")

    if "topLines" in file_cfg:
        merged["top_lines"] = int(file_cfg["topLines"])
    if ns.top_lines is not None:
        if ns.top_lines < 0:
            raise errors.BadFlag("--top-lines must be non-negative")
        merged["top_lines"] = ns.top_lines

    env_jobs = os.environ.get("MUTDENSE_JOBS")
    if env_jobs:
        try:
            merged["jobs"] = int(env_jobs)
        except ValueError as exc:
            raise errors.BadFlag(f"MUTDENSE_JOBS: not an integer: {env_jobs!r}") from exc
    if "jobs" in file_cfg:
        merged["jobs"] = int(file_cfg["jobs"])
    if ns.jobs is not None:
        merged["jobs"] = ns.jobs
    if merged.get("jobs", 1) < 1:
        raise errors.BadFlag("--jobs must be at least 1")

    if "colorStops" in file_cfg:
        try:
            merged["color_stops"] = tuple(
                (int(t), str(c)) for t, c in file_cfg["colorStops"])
        except (TypeError, ValueError) as exc:
            raise errors.BadConfigKey("colorStops: expected [[threshold, color], ...]") from exc
    if "grayColor" in file_cfg:
        merged["gray_color"] = str(file_cfg["grayColor"])

    return Config(**merged)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def _glob_match(rel_path: str, pattern: str) -> bool:
    if fnmatch.fnmatch(rel_path, pattern):
        return True
    # '**/' may also match zero directories
    return pattern.startswith("**/") and fnmatch.fnmatch(rel_path, pattern[3:])


def _wanted(rel_path: str, config: Config) -> bool:
    if not any(_glob_match(rel_path, g) for g in config.include_globs):
        return False
    return not any(_glob_match(rel_path, g) for g in config.exclude_globs)


def discover(config: Config) -> tuple[list[tuple[str, str]], list[Diagnostic]]:
    """Resolve roots to a sorted, deduplicated [(display path, fs path)] list.

    Inner symbolic links are never followed; oversized files are skipped
    with a diagnostic.  A missing root is fatal.
    """
    found: list[tuple[str, str]] = []
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()

    def offer(display: str, fs_path: str, check_globs: bool) -> None:
        display = display.replace(os.sep, "/")
        if check_globs and not _wanted(display, config):
            return
        if not check_globs and any(
            _glob_match(display, g) for g in config.exclude_globs
        ):
            return
        real = os.path.realpath(fs_path)
        if real in seen:
            return
        seen.add(real)
        try:
            size = os.path.getsize(fs_path)
        except OSError as exc:
            diagnostics.append(Diagnostic(display, f"unreadable: {exc}"))
            return
        if size > _SIZE_LIMIT:
            diagnostics.append(
                Diagnostic(display, "skipped: exceeds the 10 MB size guard"))
            return
        found.append((display, fs_path))

    for root in config.roots:
        if not os.path.exists(root):
            raise errors.MutdenseError(f"root does not exist: {root}")
        if os.path.isfile(root):
            offer(root, root, check_globs=False)
            continue
        for dirpath, dirnames, filenames in os.walk(root, followlinks=False):
            dirnames.sort()
            for name in sorted(filenames):
                fs_path = os.path.join(dirpath, name)
                if os.path.islink(fs_path):
                    continue
                rel = os.path.relpath(fs_path, root)
                offer(rel, fs_path, check_globs=True)

    found.sort(key=lambda pair: pair[0])
    return found, diagnostics


# ---------------------------------------------------------------------------
# per-unit analysis (top level so worker processes can import it)
# ---------------------------------------------------------------------------


def analyze_path(
    display: str,
    fs_path: str,
    operator_set: OperatorSet,
    want_lines: bool = False,
) -> tuple[str, UnitReport | None, str | None, tuple[str, ...] | None]:
    """Run the full per-unit pipeline; failures come back as a message."""
    try:
        with open(fs_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return display, None, "not valid UTF-8", None
    except OSError as exc:
        return display, None, f"unreadable: {exc}", None
    try:
        unit = SourceUnit.from_text(display, text)
        spans = locate_bodies(unit)
        relevant = relevant_lines(unit, spans)
        mutants = find_mutation_sites(unit, spans, operator_set)
        report = build_unit_report(unit, relevant, mutants)
    except errors.MutdenseError as exc:
        return display, None, str(exc), None
    return display, report, None, unit.lines if want_lines else None


def _analyze_job(args: tuple) -> tuple:
    return analyze_path(*args)


def worker_count(jobs: int, files: int, cpus: int) -> int:
    """Pool size for ``--jobs``: never more workers than files or CPUs."""
    return min(jobs, files, cpus)


_UNSAFE_PATH_CHARS = re.compile(r"[/\\:]")


def heatmap_filename(display_path: str) -> str:
    return _UNSAFE_PATH_CHARS.sub("_", display_path) + ".html"


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def run(config: Config) -> int:
    try:
        operator_set = config.operator_set()
        style = config.heatmap_style()
    except ValueError as exc:
        print(f"mutdense: {exc}", file=sys.stderr)
        return 1

    try:
        files, diagnostics = discover(config)
    except errors.MutdenseError as exc:
        print(f"mutdense: {exc}", file=sys.stderr)
        return 1
    if not files and not diagnostics:
        print("mutdense: no input files matched", file=sys.stderr)
        return 1

    want_lines = "html" in config.formats
    jobs = [(display, fs, operator_set, want_lines) for display, fs in files]
    workers = worker_count(config.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_analyze_job, jobs))
    else:
        results = [_analyze_job(job) for job in jobs]

    unit_reports: list[UnitReport] = []
    unit_lines: dict[str, tuple[str, ...]] = {}
    for display, report, error, lines in results:
        if error is not None:
            diagnostics.append(Diagnostic(display, error))
        else:
            unit_reports.append(report)
            if lines is not None:
                unit_lines[display] = lines

    try:
        project = aggregate_project(unit_reports, diagnostics)
    except errors.DuplicatePath as exc:
        print(f"mutdense: {exc}", file=sys.stderr)
        return 1

    try:
        _write_artifacts(project, unit_lines, config, style)
    except OSError as exc:
        print(f"mutdense: cannot write output: {exc}", file=sys.stderr)
        return 1

    if config.threshold is not None:
        offenders = [
            u for u in project.units if u.avg_density_combined > config.threshold
        ]
        if offenders:
            for u in offenders:
                print(
                    f"mutdense: {u.path}: combined average "
                    f"{format_density(u.avg_density_combined)} exceeds threshold "
                    f"{format_density(config.threshold)}",
                    file=sys.stderr,
                )
            return 2

    print(
        f"mutdense: analyzed {len(project.units)} unit(s), "
        f"{len(project.diagnostics)} diagnostic(s) -> {config.output_dir}"
    )
    return 0


def _write_artifacts(
    project: ProjectReport,
    unit_lines: dict[str, tuple[str, ...]],
    config: Config,
    style: HeatmapStyle,
) -> None:
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    if "json" in config.formats:
        with open(os.path.join(out, "project.json"), "wb") as fh:
            fh.write(emit_json(project))
    if "text" in config.formats:
        with open(os.path.join(out, "project.txt"), "w", encoding="utf-8") as fh:
            fh.write(render_text(project, config.top_lines))
    if "svg" in config.formats and project.units:
        with open(os.path.join(out, "project.svg"), "w", encoding="utf-8") as fh:
            fh.write(render_barchart(project))
    if "html" in config.formats:
        for unit in project.units:
            lines = unit_lines.get(unit.path)
            if lines is None:
                continue
            shell = SourceUnit(path=unit.path, text="", lines=lines, tokens=())
            doc = render_heatmap(shell, unit, style)
            name = heatmap_filename(unit.path)
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                fh.write(doc)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if not args:
            raise errors.BadFlag(
                "usage: mutdense {analyze,operators,version} ...")
        command, rest = args[0], args[1:]
        if command == "analyze":
            return run(load_config(rest))
        if command == "operators":
            if rest:
                raise errors.BadFlag("operators takes no arguments")
            for op in CATALOG:
                print(f"{op.id:<6} {op.family.value:<12} {op.description}")
            return 0
        if command == "version":
            if rest:
                raise errors.BadFlag("version takes no arguments")
            print(f"mutdense {VERSION}")
            return 0
        raise errors.BadFlag(f"unknown command {command!r}")
    except errors.MutdenseError as exc:
        print(f"mutdense: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
