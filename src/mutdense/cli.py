"""Command-line front end: discovery, config, parallel analysis, artifacts.

Subcommands: ``analyze`` (the pipeline), ``operators`` (print the catalog),
``version``.  Flags override config-file values, which override defaults;
``MUTDENSE_JOBS`` is a default for ``--jobs``, read only when neither sets
``jobs``.  Each setting has one parser, in ``_CONFIG_KEYS``, whatever its
source, so an empty flag value means what an empty string means in the
file.  Exit codes: 0 success, 2 threshold gate tripped, 1 fatal.
"""

import argparse
import fnmatch
import json
import os
import re
import stat
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from mutdense import errors
from mutdense._version import VERSION
from mutdense.fault_model import ALL_OPERATOR_IDS, CATALOG, Family, OperatorSet
from mutdense.metrics import (
    Diagnostic,
    ProjectReport,
    UnitSummary,
    aggregate_project,
    analyze_unit,
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

_SIZE_LIMIT = 10 * 1024 * 1024
_FORMATS = ("json", "html", "svg", "text")


class Config(NamedTuple):
    roots: tuple[str, ...]
    include_globs: tuple[str, ...] = ("**/*.java",)
    exclude_globs: tuple[str, ...] = ()
    operator_set: OperatorSet = OperatorSet.default()
    output_dir: str = "mutdense-out"
    formats: tuple[str, ...] = ("json", "text")
    threshold: Fraction | None = None
    top_lines: int = 10
    jobs: int = 1
    style: HeatmapStyle = DEFAULT_STYLE


class _Parser(argparse.ArgumentParser):
    # keep exit code 2 reserved for the threshold gate
    def error(self, message: str) -> None:  # type: ignore[override]
        raise errors.BadFlag(message)

    def flag_names(self) -> dict[str, str]:
        return {a.dest: (a.option_strings or [a.dest])[0] for a in self._actions}


def _operator_families(name: str) -> list[str]:
    """``--operators`` as the ``families`` key's list of family names."""
    return [f.value for f in Family] if name == "all" else [name]


def _int_or_text(text: str):
    """A flag's or MUTDENSE_JOBS's text as an int where it reads as one, so
    its setting's parser judges it as it would the config file's value."""
    try:
        return int(text)
    except ValueError:
        return text


def _analyze_parser() -> _Parser:
    # every dest but --config's is a _CONFIG_KEYS setting; an absent flag sets nothing
    p = _Parser(prog="mutdense analyze", description="compute mutant density over a source tree",
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
    p.add_argument("--top-lines", dest="top_lines", type=_int_or_text, metavar="N")
    p.add_argument("--include", dest="include_globs", action="append", metavar="GLOB")
    p.add_argument("--exclude", dest="exclude_globs", action="append", metavar="GLOB")
    p.add_argument("--config", metavar="FILE", help="JSON config file")
    p.add_argument("--jobs", type=_int_or_text, metavar="N")
    return p


def _read_config(path: str) -> dict:
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
    HeatmapStyle(color_stops=stops)  # raises ValueError unless a valid ramp
    return stops


# config-file key -> (Config field or what load_config builds one from, its parser)
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
    "grayColor": ("gray_color", lambda v: HeatmapStyle((), v).gray_color),
}
_FIELD_PARSERS = dict(_CONFIG_KEYS.values())


def load_config(cli_args: Sequence[str]) -> Config:
    """Merge flags over config-file values over defaults.

    Each value present goes through its setting's parser; a bad one raises
    BadConfigKey naming the key, or BadFlag naming the flag or MUTDENSE_JOBS.
    A selection that enables no operator raises MutdenseError.
    """
    parser = _analyze_parser()
    flags = vars(parser.parse_args(list(cli_args)))
    file_path = flags.pop("config", None)

    # (setting, value, its source, error class); a later value wins
    sources = []
    if file_path:
        sources += [(_CONFIG_KEYS[key][0], value, f"{key} in {file_path}", errors.BadConfigKey)
                    for key, value in _read_config(file_path).items()]
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
    try:
        merged["operator_set"] = OperatorSet.default(
            merged.pop("families", None), merged.pop("enabled_operator_ids", None))
    except ValueError as exc:  # no operator is enabled
        raise errors.MutdenseError(str(exc)) from exc
    # an explicit value is used as given: [] stops shade no line
    merged["style"] = HeatmapStyle(merged.pop("color_stops", DEFAULT_STYLE.color_stops),
                                   merged.pop("gray_color", DEFAULT_STYLE.gray_color))
    return Config(**merged)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def _glob_matcher(globs: Sequence[str]) -> Callable[[str], bool]:
    """One compiled test for "matches any of ``globs``" (``fnmatch`` rules;
    a leading ``**/`` may also match zero directories)."""
    patterns = []
    for glob in globs:
        glob = os.path.normcase(glob)
        patterns.append(fnmatch.translate(glob))
        if glob.startswith("**/"):
            patterns.append(fnmatch.translate(glob[3:]))
    # translate's groups are numbered apart, so its results join with '|'
    match = re.compile("|".join(patterns) or "(?!)").match
    return lambda path: match(os.path.normcase(path)) is not None


def discover(config: Config) -> tuple[list[tuple[str, str]], list[Diagnostic]]:
    """Resolve roots to a sorted, deduplicated [(display path, fs path)] list.

    A display path is relative to its directory root, or the root itself for
    a file root.  Where files from different roots would share a display
    path, each of them is qualified with its root as given, round after
    round until no two display paths are equal.  A file reached twice (a
    repeated root, or hard links to one file) counts once, under the first
    path, by device and inode.  Inner symbolic links are never followed;
    special files (pipes, devices), oversized files and files whose display
    path is not valid UTF-8 are skipped with a diagnostic, and so is a
    directory that cannot be listed.  A missing root is fatal.

    Each directory is listed once, its entries in name order: its files
    first, then each subdirectory's tree.  A file's display path is tested
    against the globs before its one ``stat``.
    """
    included = _glob_matcher(config.include_globs)
    excluded = _glob_matcher(config.exclude_globs)
    # (display, its root's prefix, fs path, problem or None); the prefix is
    # "" for a file root, whose display path already is the root
    entries: list[tuple[str, str, str, str | None]] = []
    seen: set[tuple[int, int]] = set()  # (st_dev, st_ino) of each file offered

    def offer(display: str, prefix: str, fs_path: str) -> None:
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
            display = root.replace(os.sep, "/")
            if not excluded(display):
                offer(display, "", root)
            continue
        prefix = root.replace(os.sep, "/").rstrip("/") + "/"
        # (fs path, display path of the directory with a trailing '/', or ""
        # for the root), popped in pre-order
        stack = [(root, "")]
        while stack:
            directory, shown = stack.pop()
            try:
                with os.scandir(directory) as listing:
                    listed = sorted(listing, key=lambda entry: entry.name)
            except OSError as exc:
                if shown:
                    entries.append((shown[:-1], prefix, directory, f"unreadable: {exc}"))
                else:
                    entries.append((root, "", root, f"unreadable: {exc}"))
                continue
            base = os.path.join(directory, "")
            subdirs = []
            for entry in listed:
                try:
                    if entry.is_symlink():
                        continue
                    is_dir = entry.is_dir()
                except OSError:
                    is_dir = False  # as os.path.isdir has it
                name = entry.name
                if is_dir:
                    subdirs.append((base + name, shown + name + "/"))
                    continue
                display = shown + name
                if included(display) and not excluded(display):
                    offer(display, prefix, base + name)
            stack.extend(reversed(subdirs))

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


def read_text(fs_path: str) -> str:
    """The file's text as ``open(fs_path, encoding="utf-8")`` reads it, with
    universal newlines: one byte read, one decode, then ``\r\n`` and a lone
    ``\r`` become ``\n``."""
    with open(fs_path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def analyze_path(display: str, fs_path: str, config: Config,
                 heatmap: str | None = None) -> UnitSummary | Diagnostic:
    """Run the full per-unit pipeline, write the unit's heatmap to the name
    ``heatmap`` (if one is given) in ``config.output_dir`` and build its
    ``project.json`` entry when json is requested.  A unit that cannot be
    analyzed comes back as a ``Diagnostic``; a failed write raises
    UnwritableOutput."""
    try:
        text = read_text(fs_path)
    except UnicodeDecodeError:
        return Diagnostic(display, "not valid UTF-8")
    except OSError as exc:
        return Diagnostic(display, f"unreadable: {exc}")
    try:
        report = analyze_unit(display, text, config.operator_set)
    except errors.MutdenseError as exc:
        return Diagnostic(display, str(exc))
    if heatmap is not None:
        page = render_heatmap(report, text, config.style).encode("utf-8")
        try:
            _write_whole(config.output_dir, heatmap, page)
        except OSError as exc:
            raise errors.UnwritableOutput(f"cannot write output: {exc}") from exc
    formats = config.formats
    return UnitSummary.from_report(report, config.top_lines if "text" in formats else 0,
                                   emit_unit_json(report) if "json" in formats else None)


def analyze_chunk(task: tuple[Sequence[tuple[str, str, str | None]], Config]
                  ) -> list[UnitSummary | Diagnostic]:
    """``analyze_path`` over one chunk of (display path, fs path, heatmap
    name or None) triples."""
    units, config = task
    return [analyze_path(display, fs_path, config, heatmap)
            for display, fs_path, heatmap in units]


# each chunk takes 1 / (workers * _CHUNK_DIVISOR) of the files not yet sent:
# early chunks are large, so a task's overhead is paid rarely, and the last
# ones hold one file each, so the workers finish together instead of one
# waiting out the other's last large chunk
_CHUNK_DIVISOR = 2


def chunked(files: Sequence[tuple], workers: int) -> list[Sequence[tuple]]:
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


def process_pool(workers: int):
    """A ``concurrent.futures`` pool of ``workers`` processes.  The pool's
    modules (``multiprocessing`` with them) are imported here, so a run
    with one worker never loads them."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_UNSAFE_PATH_CHARS = re.compile(r"[/\\:]")
# the longest file name, in bytes, that common file systems accept
_NAME_MAX = 255


def heatmap_filename(display_path: str, k: int = 1) -> str:
    """``display_path`` with each '/', '\\' and ':' made '_', then ``.<k>``
    when k > 1, then ``.html``.  A name longer than ``_NAME_MAX`` bytes
    keeps what fits of the path, then '~' and a hash of the whole path."""
    stem = _UNSAFE_PATH_CHARS.sub("_", display_path)
    suffix = f".{k}.html" if k > 1 else ".html"
    if len(os.fsencode(stem + suffix)) <= _NAME_MAX:
        return stem + suffix
    import hashlib  # only a path this long pays for the import

    digest = hashlib.sha256(os.fsencode(display_path)).hexdigest()[:16]
    room = _NAME_MAX - len(f"~{digest}{suffix}")
    cut = stem[:room]  # a character takes at least one byte
    while len(os.fsencode(cut)) > room:
        cut = cut[:-1]
    return f"{cut}~{digest}{suffix}"


def heatmap_filenames(display_paths: Sequence[str]) -> list[str]:
    """Distinct heatmap file names for ``display_paths``, in order.

    A path keeps ``heatmap_filename``'s name unless an earlier path already
    took it; it then takes the first free ``heatmap_filename(path, k)``,
    k = 2, 3, ...
    """
    used: set[str] = set()
    names: list[str] = []
    for path in display_paths:
        name = heatmap_filename(path)
        k = 2
        while name in used:
            name = heatmap_filename(path, k)
            k += 1
        used.add(name)
        names.append(name)
    return names


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def run(config: Config) -> int:
    """Analyze the configured tree and write its artifacts.  Returns 0, or 2
    when the threshold gate trips; a fatal error raises MutdenseError."""
    files, diagnostics = discover(config)
    if not files and not diagnostics:
        raise errors.MutdenseError("no input files matched")
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise errors.UnwritableOutput(f"cannot write output: {exc}") from exc

    # each page's name comes from the discovered paths alone, so the worker
    # that renders a page writes it
    names = (heatmap_filenames([display for display, _ in files])
             if "html" in config.formats else [None] * len(files))
    units = [(display, fs_path, name) for (display, fs_path), name in zip(files, names)]
    workers = worker_count(config.jobs, len(units), usable_cpus())
    tasks = [(chunk, config) for chunk in chunked(units, workers)]
    if workers > 1:
        with process_pool(workers) as pool:
            chunks = list(pool.map(analyze_chunk, tasks))
    else:
        chunks = [analyze_chunk(task) for task in tasks]

    # files are sorted by display path, and chunked and map keep their
    # order, so the results come in the order aggregate_project gives
    results = [result for chunk in chunks for result in chunk]
    diagnostics += [r for r in results if isinstance(r, Diagnostic)]
    project = aggregate_project([r for r in results if not isinstance(r, Diagnostic)],
                                diagnostics)
    try:
        _write_artifacts(project, config)
    except OSError as exc:
        raise errors.UnwritableOutput(f"cannot write output: {exc}") from exc

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


def _write_artifacts(project: ProjectReport, config: Config) -> None:
    """Write ``project.json``, ``.txt`` and ``.svg``; ``project.units`` are
    the workers' summaries, and the workers wrote the heatmaps."""
    out = config.output_dir
    if "json" in config.formats:
        _write_whole(out, "project.json", emit_json(project, [u.json for u in project.units]))
    if "text" in config.formats:
        _write_whole(out, "project.txt", render_text(project, config.top_lines).encode("utf-8"))
    if "svg" in config.formats and project.units:
        _write_whole(out, "project.svg", render_barchart(project).encode("utf-8"))


def _write_whole(out: str, name: str, data: bytes) -> None:
    """Write ``data`` to a temporary name in ``out``, then rename it to
    ``name``: an interrupted write leaves no partial artifact, and a failed
    one no temporary file.  The temporary name is the same for every
    artifact, so a long ``name`` cannot make it too long; each process writes
    one file at a time."""
    temporary = os.path.join(out, f".mutdense.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            fh.write(data)
        os.replace(temporary, os.path.join(out, name))
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:  # it was never created
            pass
        raise


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
        if command not in ("operators", "version"):
            raise errors.BadFlag(f"unknown command {command!r}")
        if rest:
            raise errors.BadFlag(f"{command} takes no arguments")
        if command == "operators":
            for op in CATALOG:
                print(f"{op.id:<6} {op.family.value:<12} {op.description}")
        else:
            print(f"mutdense {VERSION}")
        return 0
    except errors.MutdenseError as exc:
        print(f"mutdense: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
