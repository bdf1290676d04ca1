"""Seeded Java source trees for the end-to-end benchmark.

Two corpora, each a pure function of its seed:

* ``dense``: about 200 method-dense files (about 2 MB).  Straight-line
  "kernel" classes whose traditional-operator tokens are counted while they
  are written (the oracle), service classes that mix arithmetic, relational
  and null-check bodies with generics, string concatenation, text blocks,
  lambdas, nested, local and anonymous classes, enums and comments, two
  generated-style accessor files with more than 1,000 methods each, and a
  few records and enums with constant bodies.
* ``sparse``: about 4,000 small units (interfaces, DTO holders, short
  straight-line classes) in a deep package tree, each with a license header
  and an import block, next to about as many resource files, an excluded
  ``generated/`` subtree and a few planned broken files.

Records and enum-constant-body methods are the analyzer's known gaps: the
plan counts them (``gap_methods``) but no check depends on how they are
analyzed.  This module imports nothing from the repository, so no edit to
the program or its tests can move the corpus.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

LICENSE = """\
/*
 * Copyright (c) 2021 Example Corp. Licensed under the Apache License 2.0.
 */
"""

# Traditional-operator tokens of the straight-line templates.  '+', '-',
# '&', '|', '^' always follow an operand, no string literal sits next to a
# '+', and '<' is never followed by a '>' closer within one statement, so
# every token below yields exactly one traditional mutant.
_BINARY_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>",
               "<", ">", "<=", ">=", "==", "!="]
_RELATIONAL = ["<", ">", "<=", ">=", "==", "!="]
_LOGIC_OPS = ["&&", "||"]
_COMPOUND_OPS = ["+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="]
_STEP_OPS = ["++", "--"]
_VARS = ["a", "b", "c", "d", "e", "f2", "g2", "h2", "k", "m"]

_WORDS = ["order", "item", "price", "stock", "route", "batch", "score", "token",
          "ledger", "quota", "region", "tenant", "window", "bucket", "signal"]


@dataclass
class Plan:
    """What the analyzer must report for a generated tree.

    Paths are display paths, relative to ``root``.
    """

    corpus: str
    seed: int
    root: str
    units: set[str] = field(default_factory=set)
    diagnostics: dict[str, str] = field(default_factory=dict)  # path -> message fragment
    oracle: dict[str, int] = field(default_factory=dict)  # path -> traditional mutants
    gap_methods: int = 0
    gap_units: set[str] = field(default_factory=set)
    files: dict[str, bytes] = field(default_factory=dict)  # every file written

    def java_bytes(self) -> int:
        return sum(len(self.files[p]) for p in self.units)

    def digest(self) -> str:
        """sha256 over every planned file's path and bytes."""
        digest = hashlib.sha256()
        for path in sorted(self.files):
            digest.update(path.encode("utf-8") + b"\0" + self.files[path])
        return digest.hexdigest()[:16]


def straightline_body(rng: random.Random, indent: str, statements: int) -> tuple[list[str], int]:
    """Straight-line statements over the ``_VARS`` fields, with the count of
    traditional-operator tokens they hold."""
    lines: list[str] = []
    emitted = 0
    for _ in range(statements):
        kind = rng.randrange(5)
        v, x, y, z = (rng.choice(_VARS) for _ in range(4))
        lit = rng.randint(1, 99)
        if kind == 0:
            lines.append(f"{indent}{v} = {x} {rng.choice(_BINARY_OPS)} {lit};")
            emitted += 1
        elif kind == 1:
            op1, op2 = rng.choice(_BINARY_OPS), rng.choice(_BINARY_OPS)
            while op1 == "<" and op2 in (">", ">>", ">>>"):
                op2 = rng.choice(_BINARY_OPS)
            lines.append(f"{indent}{v} = {x} {op1} {y} {op2} {z};")
            emitted += 2
        elif kind == 2:
            lines.append(f"{indent}{v} {rng.choice(_COMPOUND_OPS)} {lit};")
            emitted += 1
        elif kind == 3:
            lines.append(f"{indent}{v}{rng.choice(_STEP_OPS)};")
            emitted += 1
        else:
            lines.append(
                f"{indent}{v} = {x} {rng.choice(_RELATIONAL)} {y} "
                f"{rng.choice(_LOGIC_OPS)} {z} {rng.choice(_RELATIONAL)} {lit};")
            emitted += 3
    return lines, emitted


# ---------------------------------------------------------------------------
# dense corpus
# ---------------------------------------------------------------------------

DENSE_KERNELS = 60
DENSE_SERVICES = 128
DENSE_GENERATED = 2
DENSE_GENERATED_METHODS = 1100
DENSE_RECORDS = 5
DENSE_ENUMS = 5


def _kernel_class(rng: random.Random, pkg: str, name: str) -> tuple[str, int]:
    out = [f"package {pkg};", "", f"/** Straight-line arithmetic kernels, batch {name}. */",
           f"public final class {name} {{",
           "    private int " + ", ".join(_VARS) + ";", ""]
    emitted = 0
    for i in range(40):
        lines, n = straightline_body(rng, "        ", rng.randint(4, 12))
        emitted += n
        if i % 5 == 0:
            out.append(f"    // stage {i}: {rng.choice(_WORDS)} update")
        out.append(f"    void step{i}(int p, long q) {{")
        out.extend(lines)
        out.append("    }")
        out.append("")
    out.append("}")
    return "\n".join(out) + "\n", emitted


def _m_arith(rng, i):
    a, b = rng.randint(2, 97), rng.randint(2, 31)
    return f"""\
    int score{i}(int x, int y) {{
        int t = x * y + {a};
        t -= y % {b};
        if (t > limit) {{
            t = t / 2;
        }}
        return t << 1;
    }}
"""


def _m_loop(rng, i):
    lit = rng.randint(0, 500)
    return f"""\
    int count{i}(int[] values, int bound) {{
        int n = 0;
        for (int j = 0; j < values.length; j++) {{
            if (values[j] >= bound && values[j] != {lit}) {{
                n++;
            }}
        }}
        return n;
    }}
"""


def _m_null(rng, i):
    w = rng.choice(_WORDS)
    return f"""\
    String describe{i}(String key, Map<String, Integer> m) {{
        if (key == null || m == null) {{
            return "{w}-none";
        }}
        Integer v = m.get(key);
        if (v != null) {{
            return key + "=" + v;
        }}
        return new String(key);
    }}
"""


def _m_generic(rng, i):
    return f"""\
    <T extends Comparable<T>> T max{i}(List<T> items) {{
        T best = null;
        for (T it : items) {{
            if (best == null || it.compareTo(best) > 0) {{
                best = it;
            }}
        }}
        return best;
    }}
"""


def _m_lambda(rng, i):
    lit = rng.randint(1, 9)
    return f"""\
    List<Integer> scale{i}(List<Integer> xs, int f) {{
        List<Integer> out = new ArrayList<>();
        xs.forEach(x -> out.add(x * f - {lit}));
        Function<Integer, Integer> g = v -> v + f;
        out.replaceAll(g::apply);
        return out;
    }}
"""


def _m_anonymous(rng, i):
    return f"""\
    Comparator<String> order{i}(final int bias) {{
        return new Comparator<String>() {{
            @Override
            public int compare(String a, String b) {{
                return a.length() - b.length() + bias;
            }}
        }};
    }}
"""


def _m_local(rng, i):
    lit = rng.randint(2, 40)
    return f"""\
    int local{i}(int seed) {{
        class Acc {{
            int sum;
            void add(int v) {{
                sum += v * {lit};
            }}
        }}
        Acc acc = new Acc();
        for (int j = 0; j < seed; j++) {{
            acc.add(j);
        }}
        return acc.sum;
    }}
"""


def _m_text(rng, i):
    w = rng.choice(_WORDS)
    return f"""\
    String render{i}(String name, int total) {{
        String head = "{w}: " + name + ", total: " + total;
        String body = \"\"\"
            <{w}>
              <total>%d</total>
            </{w}>
            \"\"\";
        return String.format(body, total) + head;
    }}
"""


def _m_bits(rng, i):
    s = rng.randint(3, 29)
    return f"""\
    long mix{i}(long h, int k) {{
        h ^= h >>> 33;
        h *= 0xff51afd7ed558ccdL;
        h = (h << {s}) | (h >>> {64 - s});
        return h & ~k;
    }}
"""


def _m_switch(rng, i):
    return f"""\
    int classify{i}(char c) {{
        switch (c) {{
            case 'a':
                return 1;
            case '\\n':
                return 2;
            default:
                return c > 'z' ? -1 : 0;
        }}
    }}
"""


_SERVICE_METHODS = [_m_arith, _m_loop, _m_null, _m_generic, _m_lambda,
                    _m_anonymous, _m_local, _m_text, _m_bits, _m_switch]


def _service_class(rng: random.Random, pkg: str, name: str) -> str:
    w = rng.choice(_WORDS)
    parts = [f"""\
package {pkg};

import java.util.ArrayList;
import java.util.Comparator;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * {name} keeps per-{w} totals and renders them.
 */
public class {name} {{
    // cache keyed by {w}
    private final Map<String, List<Integer>> cache = new HashMap<>();
    private final List<Map<String, Long>> history = new ArrayList<>();
    private final String label;
    private int limit;

    public {name}(int limit, String label) {{
        this.limit = limit * 2 + 1;
        this.label = label == null ? "{w}" : label;
    }}

"""]
    for i in range(30):
        parts.append(rng.choice(_SERVICE_METHODS)(rng, i))
        parts.append("\n")
    parts.append(f"""\
    /* nested holder for one {w} entry */
    static final class Entry<K extends Comparable<K>, V> {{
        private final K key;
        private V value;

        Entry(K key, V value) {{
            this.key = key;
            this.value = value;
        }}

        boolean sameKey(Entry<K, V> other) {{
            return other != null && key.compareTo(other.key) == 0;
        }}

        V swap(V next) {{
            V old = value;
            value = next;
            return old;
        }}
    }}

    enum Mode {{
        FAST, SLOW;

        int weight(int base) {{
            return this == FAST ? base : base * {rng.randint(2, 9)};
        }}
    }}
}}
""")
    return "".join(parts)


def _generated_accessors(rng: random.Random, pkg: str, name: str, methods: int) -> str:
    out = [f"package {pkg};", "", "// Generated code: do not edit.",
           f"public class {name} {{"]
    for k in range(40):
        out.append(f"    private int value{k} = {rng.randint(0, 999)};")
    out.append("    private String[] names = new String[7];")
    out.append("")
    for k in range(methods):
        if rng.randrange(3) == 0:
            out.append(f"    public String getName{k}() {{")
            out.append(f"        return names[{k % 7}];")
        else:
            out.append(f"    public int getValue{k}(int d) {{")
            out.append(f"        return value{k % 40} + d * {rng.randint(1, 99)};")
        out.append("    }")
    out.append("}")
    return "\n".join(out) + "\n"


def _record_file(rng: random.Random, pkg: str, name: str) -> tuple[str, int]:
    lit = rng.randint(1, 50)
    src = f"""\
package {pkg};

/** Immutable 2-D point; the compact constructor validates. */
public record {name}(int x, int y) {{
    public {name} {{
        if (x < 0 || y < -{lit}) {{
            throw new IllegalArgumentException("negative");
        }}
    }}

    int manhattan() {{
        return Math.abs(x) + Math.abs(y);
    }}

    {name} shift(int dx) {{
        return new {name}(x + dx, y - dx);
    }}
}}
"""
    return src, 3


def _enum_file(rng: random.Random, pkg: str, name: str) -> tuple[str, int]:
    lit = rng.randint(2, 9)
    src = f"""\
package {pkg};

/** Binary operations, one constant body each. */
public enum {name} {{
    PLUS {{
        int apply(int a, int b) {{
            return a + b;
        }}
    }},
    MINUS {{
        int apply(int a, int b) {{
            return a - b;
        }}
    }},
    SCALE {{
        int apply(int a, int b) {{
            return a * b + {lit};
        }}
    }};

    abstract int apply(int a, int b);
}}
"""
    return src, 3


def dense_plan(seed: int, root: str) -> Plan:
    rng = random.Random(f"dense-{seed}")
    plan = Plan("dense", seed, root)

    def add(path: str, src: str) -> None:
        plan.files[path] = src.encode("utf-8")
        plan.units.add(path)

    for n in range(DENSE_KERNELS):
        pkg = f"com.example.calc.p{n % 6}"
        name = f"Kernel{n}"
        path = f"{pkg.replace('.', '/')}/{name}.java"
        src, emitted = _kernel_class(rng, pkg, name)
        add(path, src)
        plan.oracle[path] = emitted
    for n in range(DENSE_SERVICES):
        pkg = f"com.example.svc.m{n % 8}"
        name = f"{rng.choice(_WORDS).capitalize()}Service{n}"
        add(f"{pkg.replace('.', '/')}/{name}.java", _service_class(rng, pkg, name))
    for n in range(DENSE_GENERATED):
        pkg = "com.example.gen"
        name = f"GeneratedAccessors{n}"
        add(f"{pkg.replace('.', '/')}/{name}.java",
            _generated_accessors(rng, pkg, name, DENSE_GENERATED_METHODS))
    for maker, count, stem in ((_record_file, DENSE_RECORDS, "Point"),
                               (_enum_file, DENSE_ENUMS, "Op")):
        for n in range(count):
            pkg = "com.example.model"
            name = f"{stem}{n}"
            path = f"{pkg.replace('.', '/')}/{name}.java"
            src, methods = maker(rng, pkg, name)
            add(path, src)
            plan.gap_methods += methods
            plan.gap_units.add(path)
    return plan


# ---------------------------------------------------------------------------
# sparse corpus
# ---------------------------------------------------------------------------

SPARSE_MODULES = 8
SPARSE_LEAF_DIRS = 50  # per module
SPARSE_UNITS_PER_DIR = 10
SPARSE_GENERATED_PER_MODULE = 40
SPARSE_BROKEN_BRACES = 3
SPARSE_BROKEN_UTF8 = 3

_IMPORTS = ["java.util.List", "java.util.Map", "java.util.Optional", "java.util.Set",
            "java.io.Serializable", "java.time.Instant", "java.util.Objects",
            "java.util.function.Supplier"]


def _header(rng: random.Random, pkg: str) -> str:
    imports = "".join(f"import {i};\n" for i in sorted(rng.sample(_IMPORTS, 3)))
    return f"{LICENSE}package {pkg};\n\n{imports}\n"


def _sparse_interface(rng, name):
    w = rng.choice(_WORDS)
    return f"""\
/** Port for {w} lookups. */
public interface {name} {{
    Optional<String> find{w.capitalize()}(String id);

    int count();
}}
""", 0


def _sparse_dto(rng, name):
    w = rng.choice(_WORDS)
    return f"""\
/** Value holder for one {w}. */
public class {name} implements Serializable {{
    private final String id;

    public {name}(String id) {{
        this.id = id;
    }}

    public String getId() {{
        return id;
    }}
}}
""", 0


def _sparse_straight(rng, name):
    lines, emitted = straightline_body(rng, "        ", rng.randint(2, 4))
    body = "\n".join(lines)
    return f"""\
final class {name} {{
    private int {", ".join(_VARS)};

    void apply(int p) {{
{body}
    }}
}}
""", emitted


def sparse_plan(seed: int, root: str) -> Plan:
    rng = random.Random(f"sparse-{seed}")
    plan = Plan("sparse", seed, root)
    makers = [_sparse_interface, _sparse_dto, _sparse_straight]
    broken = sorted(rng.sample(range(SPARSE_MODULES * SPARSE_LEAF_DIRS),
                               SPARSE_BROKEN_BRACES + SPARSE_BROKEN_UTF8))
    brace_dirs, utf8_dirs = set(broken[::2]), set(broken[1::2])
    for m in range(SPARSE_MODULES):
        for d in range(SPARSE_LEAF_DIRS):
            a, b, c = rng.choice(_WORDS), rng.choice(_WORDS), rng.choice(_WORDS)
            pkg = f"com.example.m{m}.{a}.{b}.{c}.d{d}"
            base = f"module{m}/src/main/java/{pkg.replace('.', '/')}"
            for u in range(SPARSE_UNITS_PER_DIR):
                maker = makers[rng.randrange(3)]
                name = f"{maker.__name__.split('_')[-1].capitalize()}{m}x{d}x{u}"
                body, emitted = maker(rng, name)
                path = f"{base}/{name}.java"
                plan.files[path] = (_header(rng, pkg) + body).encode("utf-8")
                plan.units.add(path)
                if maker is _sparse_straight:
                    plan.oracle[path] = emitted
                res = f"module{m}/src/main/resources/{pkg.replace('.', '/')}/{name}"
                if u % 3 == 0:
                    plan.files[res + ".properties"] = f"{a}.{b}={rng.randint(0, 9999)}\n".encode()
                elif u % 3 == 1:
                    plan.files[res + ".xml"] = f"<{a} id=\"{u}\"><{b}/></{a}>\n".encode()
                else:
                    plan.files[res + ".json"] = f'{{"{a}": {rng.randint(0, 99)}}}\n'.encode()
            flat = m * SPARSE_LEAF_DIRS + d
            if flat in brace_dirs:
                path = f"{base}/Broken{flat}.java"
                plan.files[path] = (_header(rng, pkg) + f"class Broken{flat} {{\n"
                                    "    void f() {\n        int a = 1;\n}\n").encode()
                plan.diagnostics[path] = "unclosed '{'"
            elif flat in utf8_dirs:
                path = f"{base}/Latin{flat}.java"
                plan.files[path] = (_header(rng, pkg).encode() + b"// caf\xe9 cr\xe8me\n"
                                    + f"class Latin{flat} {{ }}\n".encode())
                plan.diagnostics[path] = "not valid UTF-8"
        for g in range(SPARSE_GENERATED_PER_MODULE):
            path = f"module{m}/generated/com/example/m{m}/Gen{g}.java"
            plan.files[path] = f"class Gen{g} {{ int f(int a) {{ return a + {g}; }} }}\n".encode()
    return plan


CORPORA = {"dense": dense_plan, "sparse": sparse_plan}


def write_tree(plan: Plan, base: str) -> None:
    """Write every planned file under ``base/plan.root``."""
    top = os.path.join(base, plan.root)
    made: set[str] = set()
    for rel, data in plan.files.items():
        path = os.path.join(top, rel)
        parent = os.path.dirname(path)
        if parent not in made:
            os.makedirs(parent, exist_ok=True)
            made.add(parent)
        with open(path, "wb") as fh:
            fh.write(data)
