"""``cli.discover`` against the ``os.walk`` walk it replaced.

``walk_discover`` below is that walk, kept as the reference: one
``fnmatch`` call per file and glob, ``os.path.relpath`` per directory and
``os.path.islink`` per file.  Both must give the same found files and the
same diagnostics, in the same order, on trees with every rule discovery
has: symbolic links, special files, hard links, the size guard, excluded
subtrees, undecodable names, unlistable directories and clashing roots.
"""

from __future__ import annotations

import errno
import fnmatch
import os
import random
import stat
from collections import Counter

import pytest

from mutdense import errors
from mutdense.cli import Config, discover
from mutdense.metrics import Diagnostic

_SIZE_LIMIT = 10 * 1024 * 1024


def _glob_match(rel_path: str, pattern: str) -> bool:
    if fnmatch.fnmatch(rel_path, pattern):
        return True
    # '**/' may also match zero directories
    return pattern.startswith("**/") and fnmatch.fnmatch(rel_path, pattern[3:])


def _wanted(rel_path: str, config: Config) -> bool:
    if not any(_glob_match(rel_path, g) for g in config.include_globs):
        return False
    return not any(_glob_match(rel_path, g) for g in config.exclude_globs)


def walk_discover(config: Config) -> tuple[list[tuple[str, str]], list[Diagnostic]]:
    """The reference: discovery through ``os.walk``."""
    entries: list[tuple[str, str, str, str | None]] = []
    seen: set[tuple[int, int]] = set()

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

        def unlisted(exc: OSError) -> None:
            if exc.filename == root:
                entries.append((root, "", root, f"unreadable: {exc}"))
            else:
                display = os.path.relpath(exc.filename, root).replace(os.sep, "/")
                entries.append((display, prefix, exc.filename, f"unreadable: {exc}"))

        for dirpath, dirnames, filenames in os.walk(root, onerror=unlisted, followlinks=False):
            dirnames.sort()
            rel_dir = os.path.relpath(dirpath, root)
            for name in sorted(filenames):
                fs_path = os.path.join(dirpath, name)
                if os.path.islink(fs_path):
                    continue
                rel = name if rel_dir == "." else os.path.join(rel_dir, name)
                offer(rel, prefix, fs_path, check_globs=True)

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
            display = os.fsencode(display).decode("utf-8", "backslashreplace")
            problem = "skipped: file name is not valid UTF-8"
        if problem is None:
            found.append((display, fs_path))
        else:
            diagnostics.append(Diagnostic(display, problem))
    found.sort(key=lambda pair: pair[0])
    return found, diagnostics


def _same(config: Config):
    expected = walk_discover(config)
    assert discover(config) == expected
    return expected


def _touch(path, text="class A { int f(int x) { return x + 1; } }\n"):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def odd_tree(tmp_path):
    """One tree with every kind of entry discovery judges."""
    root = tmp_path / "t"
    for rel in ("A.java", "b/B.java", "b/c/C.java", "b/c/d.txt", "b-c/E.java", "b.java",
                "generated/G.java", "src/generated/H.java", "src/main/I.java",
                "src/main/generated.java", "z/Z.java"):
        _touch(root / rel)
    outside = tmp_path / "outside"
    _touch(outside / "Evil.java")
    os.symlink(outside / "Evil.java", root / "FileLink.java")
    os.symlink(outside, root / "dirlink")
    os.symlink(outside, root / "X.java")  # a linked directory with a source name
    os.symlink(tmp_path / "missing.java", root / "Broken.java")
    if hasattr(os, "mkfifo"):
        os.mkfifo(root / "b" / "P.java")
    os.link(root / "A.java", root / "b" / "c" / "HardA.java")
    (root / "a").mkdir()
    os.link(root / "src" / "main" / "I.java", root / "a" / "I.java")
    with open(root / "z" / "Big.java", "wb") as fh:
        fh.truncate(_SIZE_LIMIT + 1)
    try:
        with open(os.path.join(os.fsencode(root / "b"), b"\xff.java"), "w") as fh:
            fh.write("class X {}\n")
    except (OSError, ValueError):
        pass  # a filesystem that refuses the name; the other entries remain
    return root


@pytest.mark.parametrize("include,exclude", [
    (("**/*.java",), ()),
    (("**/*.java",), ("**/generated/**",)),
    (("**/*.java",), ("generated/**", "*.txt")),
    (("*.java",), ()),
    (("src/**", "**/*.txt"), ("**/main/*.java",)),
    ((), ()),
])
def test_walk_matches_os_walk(odd_tree, monkeypatch, include, exclude):
    monkeypatch.chdir(odd_tree.parent)
    for roots in (("t",), ("t/",), (str(odd_tree),), ("t", "t/b"), ("t/b", "t")):
        _same(Config(roots=roots, include_globs=include, exclude_globs=exclude))


def test_file_roots_match_os_walk(odd_tree, monkeypatch):
    monkeypatch.chdir(odd_tree.parent)
    file_roots = ("t/A.java", "t/b/c/HardA.java", "t/z/Big.java", "t/FileLink.java",
                  "t/b/c/d.txt")
    if hasattr(os, "mkfifo"):
        file_roots += ("t/b/P.java",)
    for exclude in ((), ("**/c/*",), ("t/*.java",)):
        found, diagnostics = _same(Config(roots=file_roots, exclude_globs=exclude))
        assert found or diagnostics
        _same(Config(roots=("t", *file_roots), exclude_globs=exclude))


@pytest.mark.parametrize("denied", ["t/b", "t/b/c", "t", "t/src/generated"])
def test_unlistable_directories_match_os_walk(odd_tree, monkeypatch, denied):
    # a stand-in for os.scandir, because chmod 000 denies nothing to root
    monkeypatch.chdir(odd_tree.parent)
    real_scandir = os.scandir

    def scandir(path="."):
        if os.fspath(path).rstrip("/") == denied:
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    for roots in (("t",), ("t/",), ("t", "t/b/c")):
        for exclude in ((), ("**/generated/**",)):
            _, diagnostics = _same(Config(roots=roots, exclude_globs=exclude))
            assert any(d.error.startswith("unreadable: ") for d in diagnostics)


def test_clashing_roots_match_os_walk(tmp_path, monkeypatch):
    # qualifying a/B.java and b/B.java makes a/B.java clash with c's a/B.java
    for rel in ("a/B.java", "a/OnlyA.java", "b/B.java", "b/sub/OnlyB.java", "c/a/B.java"):
        _touch(tmp_path / rel)
    monkeypatch.chdir(tmp_path)
    found, _ = _same(Config(roots=("a", "b", "c")))
    assert [d for d, _ in found] == [
        "OnlyA.java", "a/B.java", "b/B.java", "c/a/B.java", "sub/OnlyB.java"]
    _same(Config(roots=("c", "b/", str(tmp_path / "a"))))


_NAMES = ["a", "A", "a.java", "a-b.java", "a_b", "b", "B.java", "_", "z.java", "é.java",
          "Ab.java", "a.b"]


@pytest.mark.parametrize("seed", range(12))
def test_seeded_layouts_match_os_walk(tmp_path, monkeypatch, seed):
    """Files and directories whose names sort between one another, so the
    order of the walk shows."""
    rng = random.Random(seed)
    root = tmp_path / "r"
    root.mkdir()
    dirs = [root]
    for _ in range(rng.randint(5, 40)):
        parent = rng.choice(dirs)
        path = parent / rng.choice(_NAMES)
        if path.exists() or path.is_symlink():
            continue
        roll = rng.random()
        if roll < 0.35:
            path.mkdir()
            dirs.append(path)
        elif roll < 0.9:
            _touch(path)
        else:
            os.symlink(rng.choice(dirs), path)
    monkeypatch.chdir(tmp_path)
    for exclude in ((), ("**/a/**",), ("*.java",)):
        _same(Config(roots=("r",), exclude_globs=exclude))
