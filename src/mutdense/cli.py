"""Command-line front end: discovery, config, parallel analysis, artifacts.

Subcommands: ``analyze`` (the pipeline), ``operators`` (print the catalog),
``version``.  Flags override config-file values, which override defaults;
``MUTDENSE_JOBS`` is a default for ``--jobs``, read only when neither sets
``jobs``.  Each setting has one parser, in ``_CONFIG_KEYS``, whatever its
source, so an empty flag value means what an empty string means in the
file.  Exit codes: 0 success, 2 threshold gate tripped, 1 fatal.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import stat
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from mutdense import errors
from mutdense._version import VERSION
from mutdense.fault_model import ALL_OPERATOR_IDS, CATALOG, Family, OperatorSet
from mutdense.metrics import (
    Diagnostic,
    ProjectReport,
    UnitSummary,
    aggregate_project,
    analyze_source,
)
from mutdense.reporting import (
    DEFAULT_STYLE,
    HeatmapStyle,
    emit_json,
    emit_unit_json,
    format_density,
    render_barchart,
    render_heatmap,
    render_text,
)
from mutdense.source_model import SourceUnit

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

    def flag_names(self) -> dict[str, str]:
        return {a.dest: (a.option_strings or [a.dest])[0] for a in self._actions}


def _operator_families(name: str) -> list[str]:
    """``--operators`` as the ``families`` key's list of family names."""
    return [f.value for f in Family] if name == "all" else [name]


def _analyze_parser(prog: str = "mutdense analyze") -> _Parser:
    # every dest but --config's is a Config field; an absent flag sets nothing
    p = _Parser(prog=prog, description="compute mutant density over a source tree",
                argument_default=argparse.SUPPRESS)
    p.add_argument("roots", nargs="*", help="files or directories to analyze")
    p.add_argument("--operators", dest="families", type=_operator_families,
                   metavar="{traditional,null-type,all}")
    p.add_argument("--enable", dest="enabled_operator_ids", metavar="IDS",
                   help="comma-separated operator ids")
    p.add_argument("--format", dest="formats", metavar="LIST",
                   help="comma-separated subset of json,html,svg,text")
    p.add_argument("--out", dest="output_dir", metavar="DIR")
    p.add_argument("--threshold", metavar="X",
                   help="fail (exit 2) when a unit's combined average exceeds X")
    p.add_argument("--top-lines", dest="top_lines", type=int, metavar="N")
    p.add_argument("--include", dest="include_globs", action="append", metavar="GLOB")
    p.add_argument("--exclude", dest="exclude_globs", action="append", metavar="GLOB")
    p.add_argument("--config", metavar="FILE", help="JSON config file")
    p.add_argument("--jobs", type=int, metavar="N")
    return p


def _read_config_file(path: str) -> dict:
    """The raw key-value pairs of a JSON config file; an unknown key is an error."""
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


# The parsers below take one value from a config file, a flag or
# MUTDENSE_JOBS and raise ValueError; load_config names the source.


def _expect(ok: bool, what: str, value) -> None:
    if not ok:
        raise ValueError(f"expected {what}, got {json.dumps(value)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _str_value(value) -> str:
    _expect(isinstance(value, str), "a string", value)
    return value


def _nonempty_str(value) -> str:
    _expect(isinstance(value, str) and value != "", "a non-empty string", value)
    return value


def _str_tuple(value) -> tuple[str, ...]:
    _expect(_is_str_list(value), "a list of strings", value)
    return tuple(value)


def _str_items(value) -> list[str]:
    """The non-blank items of a comma-separated string or a list of strings."""
    _expect(isinstance(value, str) or _is_str_list(value),
            "a comma-separated string or a list of strings", value)
    items = value.split(",") if isinstance(value, str) else value
    return [s.strip() for s in items if s.strip()]


def _families(value) -> frozenset[Family]:
    names = frozenset(_str_tuple(value))
    unknown = names - {f.value for f in Family}
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}")
    if not names:
        raise ValueError("at least one family is required")
    return frozenset(map(Family, names))


def _operator_ids(value) -> frozenset[str]:
    ids = frozenset(_str_items(value))
    unknown = ids - ALL_OPERATOR_IDS
    if unknown:
        raise ValueError(f"unknown operator ids {sorted(unknown)}")
    return ids


def _formats(value) -> tuple[str, ...]:
    items = _str_items(value)
    bad = [s for s in items if s not in _FORMATS]
    if bad:
        raise ValueError(f"unknown format(s) {bad}; pick from {_FORMATS}")
    if not items:
        raise ValueError("at least one format is required")
    return tuple(dict.fromkeys(items))


# Fraction("1e100000000") builds 10**100000000, which runs for minutes
_EXPONENT_DIGITS = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_MAX_EXPONENT_DIGITS = 3


def _threshold(value) -> Fraction:
    _expect(isinstance(value, (int, float, str)) and not isinstance(value, bool),
            "a number", value)
    text = str(value)
    exponent = _EXPONENT_DIGITS.search(text)
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > _MAX_EXPONENT_DIGITS:
        raise ValueError(f"exponent has over {_MAX_EXPONENT_DIGITS} digits: {text[:40]!r}")
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {value!r}") from None
    if frac < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return frac


def _integer(value, minimum: int) -> int:
    _expect(_is_int(value) and value >= minimum, f"an integer of at least {minimum}", value)
    return value


def _color_stops(value) -> tuple[tuple[int, str], ...]:
    _expect(
        isinstance(value, list) and all(
            isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and isinstance(p[1], str)
            for p in value
        ),
        "[[threshold, color], ...]", value,
    )
    stops = tuple((t, c) for t, c in value)
    HeatmapStyle(color_stops=stops)  # raises ValueError unless strictly increasing
    return stops


# config-file key -> (Config field, the one parser of that setting)
_CONFIG_KEYS = {
    "roots": ("roots", _str_tuple),
    "includeGlobs": ("include_globs", _str_tuple),
    "excludeGlobs": ("exclude_globs", _str_tuple),
    "families": ("families", _families),
    "enabledOperatorIds": ("enabled_operator_ids", _operator_ids),
    "outputDir": ("output_dir", _nonempty_str),
    "formats": ("formats", _formats),
    "threshold": ("threshold", _threshold),
    "topLines": ("top_lines", lambda v: _integer(v, 0)),
    "jobs": ("jobs", lambda v: _integer(v, 1)),
    "colorStops": ("color_stops", _color_stops),
    "grayColor": ("gray_color", _str_value),
}
_FIELD_PARSERS = dict(_CONFIG_KEYS.values())


def _int_or_text(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def load_config(cli_args: Sequence[str], config_file: str | None = None) -> Config:
    """Merge flags over config-file values over defaults.

    Each value present goes through its setting's parser; a bad one raises
    BadConfigKey naming the key, or BadFlag naming the flag or MUTDENSE_JOBS.
    """
    parser = _analyze_parser()
    flags = vars(parser.parse_args(list(cli_args)))
    flag_config = flags.pop("config", None)
    file_path = config_file or flag_config

    # (Config field, value, its source, error class); a later value wins
    sources = []
    if file_path:
        sources += [(_CONFIG_KEYS[key][0], value, f"{key} in {file_path}", errors.BadConfigKey)
                    for key, value in _read_config_file(file_path).items()]
    flag_names = parser.flag_names()
    sources += [(field, value, flag_names[field], errors.BadFlag)
                for field, value in flags.items()]
    env_jobs = os.environ.get("MUTDENSE_JOBS")
    if env_jobs and all(field != "jobs" for field, _, _, _ in sources):
        sources.append(("jobs", _int_or_text(env_jobs), "MUTDENSE_JOBS", errors.BadFlag))

    merged: dict = {}
    for field, value, origin, error in sources:
        try:
            merged[field] = _FIELD_PARSERS[field](value)
        except ValueError as exc:
            raise error(f"{origin}: {exc}") from exc
    if not merged.get("roots"):
        raise errors.BadFlag("at least one root path is required")
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

    A display path is relative to its directory root, or the root itself for
    a file root.  Where files from different roots would share a display
    path, each of them is qualified with its root as given, round after
    round until no two display paths are equal.  A file reached twice (a
    repeated root, or hard links to one file) counts once, under the first
    path, by device and inode.  Inner symbolic links are never followed;
    special files (pipes, devices), oversized files and files whose display
    path is not valid UTF-8 are skipped with a diagnostic.  A missing root
    is fatal.
    """
    # (display, its root's prefix, fs path, problem or None); the prefix is
    # "" for a file root, whose display path already is the root
    entries: list[tuple[str, str, str, str | None]] = []
    seen: set[tuple[int, int]] = set()  # (st_dev, st_ino) of each file offered

    def offer(display: str, prefix: str, fs_path: str, check_globs: bool) -> None:
        display = display.replace(os.sep, "/")
        if check_globs and not _wanted(display, config):
            return
        if not check_globs and any(
            _glob_match(display, g) for g in config.exclude_globs
        ):
            return
        try:
            st = os.stat(fs_path)
        except OSError as exc:
            entries.append((display, prefix, fs_path, f"unreadable: {exc}"))
            return
        if (st.st_dev, st.st_ino) in seen:
            return
        seen.add((st.st_dev, st.st_ino))
        if not stat.S_ISREG(st.st_mode):
            problem = "skipped: not a regular file"
        elif st.st_size > _SIZE_LIMIT:
            problem = "skipped: exceeds the 10 MB size guard"
        else:
            problem = None
        entries.append((display, prefix, fs_path, problem))

    for root in config.roots:
        if not os.path.exists(root):
            raise errors.MutdenseError(f"root does not exist: {root}")
        if not os.path.isdir(root):
            offer(root, "", root, check_globs=False)
            continue
        prefix = root.replace(os.sep, "/").rstrip("/") + "/"
        for dirpath, dirnames, filenames in os.walk(root, followlinks=False):
            dirnames.sort()
            rel_dir = os.path.relpath(dirpath, root)
            for name in sorted(filenames):
                fs_path = os.path.join(dirpath, name)
                if os.path.islink(fs_path):
                    continue
                rel = name if rel_dir == "." else os.path.join(rel_dir, name)
                offer(rel, prefix, fs_path, check_globs=True)

    # qualifying may make a new clash (a/B.java from root a, and from root c
    # holding a/), so repeat; each entry is qualified at most once
    displays = [display for display, _, _, _ in entries]
    unqualified = set(range(len(entries)))
    while True:
        counts = Counter(displays)
        clashing = [k for k in unqualified if counts[displays[k]] > 1]
        if not clashing:
            break
        for k in clashing:
            displays[k] = entries[k][1] + displays[k]
            unqualified.discard(k)
    found: list[tuple[str, str]] = []
    diagnostics: list[Diagnostic] = []
    for display, (_, _, fs_path, problem) in zip(displays, entries):
        try:
            display.encode("utf-8")
        except UnicodeEncodeError:
            # the name's undecodable bytes, written as \xNN escapes
            display = os.fsencode(display).decode("utf-8", "backslashreplace")
            problem = "skipped: file name is not valid UTF-8"
        if problem is None:
            found.append((display, fs_path))
        else:
            diagnostics.append(Diagnostic(display, problem))
    found.sort(key=lambda pair: pair[0])
    return found, diagnostics


# ---------------------------------------------------------------------------
# per-unit analysis, in the workers (top level so worker processes can
# import it)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitSettings:
    """What a worker needs of the run's settings to analyze a unit."""

    operator_set: OperatorSet
    formats: tuple[str, ...]
    style: HeatmapStyle
    top_lines: int


class UnitResult(NamedTuple):
    """One file's outcome: an error, or the unit's finished pieces.

    ``json`` is the unit's ``project.json`` entry when json is requested and
    ``html`` its heatmap page when html is; ``summary`` is what the text
    table, the bar chart and the threshold gate read.
    """

    path: str
    error: str | None
    json: bytes | None = None
    html: bytes | None = None
    summary: UnitSummary | None = None


def analyze_path(display: str, fs_path: str, settings: UnitSettings) -> UnitResult:
    """Run the full per-unit pipeline and build the unit's pieces for the
    requested formats; failures come back as a message."""
    try:
        with open(fs_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return UnitResult(display, "not valid UTF-8")
    except OSError as exc:
        return UnitResult(display, f"unreadable: {exc}")
    try:
        unit = SourceUnit.from_text(display, text)
        report = analyze_source(unit, settings.operator_set)
    except errors.MutdenseError as exc:
        return UnitResult(display, str(exc))
    formats = settings.formats
    return UnitResult(
        display,
        None,
        json=emit_unit_json(report) if "json" in formats else None,
        html=(render_heatmap(unit, report, settings.style).encode("utf-8")
              if "html" in formats else None),
        summary=UnitSummary.from_report(report, settings.top_lines if "text" in formats else 0),
    )


def analyze_chunk(task: tuple[Sequence[tuple[str, str]], UnitSettings]) -> list[UnitResult]:
    """``analyze_path`` over one chunk of (display path, fs path) pairs."""
    files, settings = task
    return [analyze_path(display, fs_path, settings) for display, fs_path in files]


# each chunk takes 1 / (workers * _CHUNK_DIVISOR) of the files not yet sent:
# early chunks are large, so a task's overhead is paid rarely, and the last
# ones hold one file each, so the workers finish together instead of one
# waiting out the other's last large chunk
_CHUNK_DIVISOR = 2


def chunked(files: Sequence[tuple[str, str]], workers: int) -> list[Sequence[tuple[str, str]]]:
    """``files`` cut, in order, into chunks that shrink from a
    ``1 / (2 * workers)`` share of the files down to one file."""
    divisor = max(workers, 1) * _CHUNK_DIVISOR
    chunks = []
    start = 0
    while start < len(files):
        size = -(-(len(files) - start) // divisor)
        chunks.append(files[start:start + size])
        start += size
    return chunks


def worker_count(jobs: int, files: int, cpus: int) -> int:
    """Pool size for ``--jobs``: never more workers than files or CPUs."""
    return min(jobs, files, cpus)


_UNSAFE_PATH_CHARS = re.compile(r"[/\\:]")


def heatmap_filename(display_path: str) -> str:
    return _UNSAFE_PATH_CHARS.sub("_", display_path) + ".html"


def heatmap_filenames(display_paths: Sequence[str]) -> list[str]:
    """Distinct heatmap file names for ``display_paths``, in order.

    A path keeps ``heatmap_filename``'s name unless an earlier path already
    took it; it then takes the first free ``<name>.<k>.html``, k = 2, 3, ...
    """
    used: set[str] = set()
    names: list[str] = []
    for path in display_paths:
        name = heatmap_filename(path)
        stem = name[: -len(".html")]
        k = 2
        while name in used:
            name = f"{stem}.{k}.html"
            k += 1
        used.add(name)
        names.append(name)
    return names


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

    settings = UnitSettings(operator_set, config.formats, style, config.top_lines)
    workers = worker_count(config.jobs, len(files), os.cpu_count() or 1)
    tasks = [(chunk, settings) for chunk in chunked(files, workers)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(analyze_chunk, tasks))
    else:
        chunks = [analyze_chunk(task) for task in tasks]

    summaries: list[UnitSummary] = []
    pieces: dict[str, UnitResult] = {}
    for chunk in chunks:
        for result in chunk:
            if result.error is not None:
                diagnostics.append(Diagnostic(result.path, result.error))
            else:
                summaries.append(result.summary)
                pieces[result.path] = result

    try:
        project = aggregate_project(summaries, diagnostics)
    except errors.DuplicatePath as exc:
        print(f"mutdense: {exc}", file=sys.stderr)
        return 1

    try:
        _write_artifacts(project, pieces, config)
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
    project: ProjectReport, pieces: dict[str, UnitResult], config: Config
) -> None:
    """Write the run's artifacts; ``pieces`` holds each unit's worker result."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    if "json" in config.formats:
        with open(os.path.join(out, "project.json"), "wb") as fh:
            fh.write(emit_json(project, [pieces[u.path].json for u in project.units]))
    if "text" in config.formats:
        with open(os.path.join(out, "project.txt"), "w", encoding="utf-8") as fh:
            fh.write(render_text(project, config.top_lines))
    if "svg" in config.formats and project.units:
        with open(os.path.join(out, "project.svg"), "w", encoding="utf-8") as fh:
            fh.write(render_barchart(project))
    if "html" in config.formats:
        names = heatmap_filenames([unit.path for unit in project.units])
        for unit, name in zip(project.units, names):
            with open(os.path.join(out, name), "wb") as fh:
                fh.write(pieces[unit.path].html)


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
