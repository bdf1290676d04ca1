"""Shared fixtures: hand-checked sources and seeded snippet generators.

The expected numbers attached to each fixture were computed by hand from
the operator rules before the engine existed; tests treat them as frozen
oracles, not as recordings of engine output.
"""

from __future__ import annotations

import random
import sys

import pytest

from mutdense.source_model import SourceUnit

# Worked example: the loop header on line 4 must carry exactly two
# traditional mutants (ROR on '<', AOR-S on '++'); the println line
# has only string-concatenation '+' and yields none.
FACTORIAL_SRC = """\
public class Factorial {
    static final int NUM_FACTS = 100;
    public static void main(String[] args) {
        for(int i = 0; i < NUM_FACTS; i++)
            System.out.println(i + "! is " + factorial(i));
    }
    public static int factorial(int n) {
        int result = 1;
        for(int i = 2; i <= n; i++)
            result *= i;
        return result;
    }
}
"""
FACTORIAL_LOOP_LINE = 4

# ranking trio, hand-computed:
#   Alpha: relevant {2,3,4} = 3; T: 1 AOR-B ('+')          -> avg T 1/3, N 0,   combined 1/3
#   Beta:  relevant {2..7} = 6;  T: 1 ROR ('==')           -> avg T 1/6
#          N: NIV(s) + NNC + NRV(line 6; line 4 is bare null, skipped) = 3 -> avg N 3/6
#          combined 4/6
#   Gamma: relevant {2..6} = 5;  T: AOR-B(*), ASR-S(+=), AOR-B(%), AOR-U(-) = 4
#          -> avg T 4/5, N 0, combined 4/5
# rank by combined: Gamma (0.8) > Beta (0.6667) > Alpha (0.3333)
ALPHA_SRC = """\
class Alpha {
    int f(int x) {
        return x + 1;
    }
}
"""

BETA_SRC = """\
class Beta {
    String g(String s, int k) {
        if (s == null) {
            return null;
        }
        return s + "!";
    }
}
"""

GAMMA_SRC = """\
class Gamma {
    int h(int a, int b) {
        int c = a * b;
        c += a % 2;
        return -c;
    }
}
"""

RANKED_PATHS = ["Gamma.java", "Beta.java", "Alpha.java"]

# no bodies at all: relevantLineCount 0, averages 0, empty: true
INTERFACE_SRC = """\
interface Quiet {
    int size();
    String name();
}
"""

# single line stacking five binary arithmetic sites (top-line fixture)
SHAPE_SRC = """\
class Shape {
    int area(int w, int h) {
        return w * h + w % 3 - h / 2;
    }
}
"""
SHAPE_HOT_LINE = 3
SHAPE_HOT_COUNT = 5

# twenty local declarations built from nested generics; every '<'/'>' in
# the bodies is a type bracket, so ROR and SOR must match nothing
GENERICS_ZOO_SRC = """\
class GenericsZoo {
    <T extends Comparable<T> & Cloneable> T pick(List<T> xs) {
        Map<String, List<Integer>> d01 = null;
        List<List<List<String>>> d02 = null;
        Map<String, Map<String, Map<String, Long>>> d03 = null;
        Set<? extends Number> d04 = null;
        Set<? super Integer> d05 = null;
        Map.Entry<String, Integer> d06 = null;
        List<String[]> d07 = null;
        Map<String[], List<Long[]>> d08 = null;
        Comparable<? extends Comparable<? extends Number>> d09 = null;
        List<? extends Map<String, ? super List<Integer>>> d10 = null;
        return xs.iterator().next();
    }
    void fill() {
        Map<String, ? extends List<? super Number>> d11 = null;
        Pair<Alpha, Beta> d12 = null;
        Chain<A, B> d13 = null;
        Grid<Row, Col> d14 = null;
        Box<Box<Box<Deep>>> d15 = null;
        Map<Key.Part, Value.Part> d16 = null;
        Set<?> d17 = null;
        List<Map<String, Set<Long>>> d18 = null;
        Func<In, Out> d19 = null;
        Table<Name, List<Cell>> d20 = null;
    }
}
"""
GENERICS_DECL_COUNT = 20


def make_unit(src: str, path: str = "Unit.java") -> SourceUnit:
    return SourceUnit.from_text(path, src)


@pytest.fixture
def write_tree(tmp_path):
    """Materialize {relative path: source} under a temp directory."""

    def _write(files: dict[str, str], subdir: str = "proj"):
        root = tmp_path / subdir
        for rel, src in files.items():
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(src, encoding="utf-8")
        return root

    return _write


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

# every template keeps '+', '-', '&', '|', '^' strictly binary (operand on
# the left) and avoids generics, strings, commas between angle candidates,
# and unary minus, so a naive occurrence count is a valid oracle
_BINARY_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>",
               "<", ">", "<=", ">=", "==", "!="]
_LOGIC_OPS = ["&&", "||"]
_COMPOUND_OPS = ["+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="]
_STEP_OPS = ["++", "--"]
_MUTABLE_TOKENS = frozenset(_BINARY_OPS + _LOGIC_OPS + _COMPOUND_OPS + _STEP_OPS)

_NAMES = ["a", "b", "c", "d", "e", "f2", "g2", "h2", "k", "m"]


def gen_straightline_class(rng: random.Random) -> tuple[str, int]:
    """A class with one straight-line method body; returns (source,
    count of traditional-operator tokens emitted)."""
    lines = []
    emitted = 0
    for _ in range(rng.randint(3, 12)):
        kind = rng.randrange(5)
        v, x, y, z = (rng.choice(_NAMES) for _ in range(4))
        lit = rng.randint(0, 99)
        if kind == 0:
            op = rng.choice(_BINARY_OPS)
            lines.append(f"        {v} = {x} {op} {lit};")
            emitted += 1
        elif kind == 1:
            op1 = rng.choice(_BINARY_OPS)
            op2 = rng.choice(_BINARY_OPS)
            while op1 == "<" and op2 == ">":
                # 'x < y > z' reads as a generic group, which the naive
                # occurrence oracle cannot see; keep the corpus generic-free
                op2 = rng.choice(_BINARY_OPS)
            lines.append(f"        {v} = {x} {op1} {y} {op2} {z};")
            emitted += 2
        elif kind == 2:
            op = rng.choice(_COMPOUND_OPS)
            lines.append(f"        {v} {op} {lit};")
            emitted += 1
        elif kind == 3:
            op = rng.choice(_STEP_OPS)
            lines.append(f"        {v}{op};")
            emitted += 1
        else:
            rel1 = rng.choice(["<", ">", "<=", ">=", "==", "!="])
            rel2 = rng.choice(["<", ">", "<=", ">=", "==", "!="])
            logic = rng.choice(_LOGIC_OPS)
            lines.append(f"        {v} = {x} {rel1} {y} {logic} {z} {rel2} {lit};")
            emitted += 3
    body = "\n".join(lines)
    src = "class G {\n    void m() {\n" + body + "\n    }\n}\n"
    return src, emitted


def oracle_traditional_count(unit: SourceUnit) -> int:
    """Brute-force token scan: count occurrences of mutable operator
    tokens, with no binarity or bracket logic at all."""
    return sum(1 for tok in unit.tokens if tok.text in _MUTABLE_TOKENS)


def gen_mixed_unit(rng: random.Random, idx: int) -> tuple[str, str]:
    """A (path, source) pair drawn from several shapes, for property tests
    that quantify over many units."""
    roll = rng.randrange(4)
    if roll == 0:
        return f"Iface{idx}.java", INTERFACE_SRC.replace("Quiet", f"Quiet{idx}")
    if roll == 1:
        src, _ = gen_straightline_class(rng)
        return f"Gen{idx}.java", src.replace("class G", f"class G{idx}")
    if roll == 2:
        name = f"Holder{idx}"
        fields = "\n".join(
            f"        this.f{j} = f{j};" for j in range(rng.randint(1, 3))
        )
        params = ", ".join(f"String f{j}" for j in range(rng.randint(1, 3)))
        return (
            f"{name}.java",
            f"class {name} {{\n    {name}({params}) {{\n{fields}\n    }}\n"
            f"    String get() {{\n        return new String(\"x\");\n    }}\n}}\n",
        )
    src, _ = gen_straightline_class(rng)
    extra = (
        "    String maybe(String s) {\n"
        "        if (s != null) {\n"
        "            return s;\n"
        "        }\n"
        "        return null;\n"
        "    }\n"
    )
    src = src.replace("class G {\n", f"class Mix{idx} {{\n")
    assert src.endswith("}\n")
    src = src[: -len("}\n")] + extra + "}\n"
    return f"Mix{idx}.java", src


# characters for seeded token soup: every token class, a line end and a
# few characters outside the scanner's subset
SOUP_ALPHABET = 'abcXYZ_$019 \t\n+-*/%<>=!&|^~?:;.,(){}[]@"\'\\é世#'


def seeded_soups(alphabet: str, seed: int = 2718, count: int = 300):
    """``count`` random strings of up to 120 characters from ``alphabet``."""
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one PASS/FAIL line per acceptance criterion after the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        terminalreporter.write_line(results[number])
