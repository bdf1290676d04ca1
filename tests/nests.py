"""Units nested ``depth`` deep, each with the mutants it must give.

Each generator returns the unit's source and, by construction, its
mutant count per operator id.  ``test_nesting_cost_grows_linearly`` runs
them at small depths, and the workflow's extreme-input steps at 8,000:

    python tests/nests.py write _nested_anonymous_returns 8000 Nest.java
    python tests/nests.py check _nested_anonymous_returns 8000 out/project.json

``check`` exits 1 unless ``project.json`` holds one unit with exactly
those counts.
"""

from __future__ import annotations

import json
import sys
from collections import Counter


def _nested_creations(depth: int) -> tuple[str, Counter]:
    # one NOI per 'new' and the NRV
    src = "class C {\nObject f() {\nreturn " + "new A(" * depth + "x" + ")" * depth + ";\n}\n}\n"
    return src, Counter(NOI=depth, NRV=1)


def _nested_lambda_returns(depth: int) -> tuple[str, Counter]:
    # only f's own 'return' is an NRV: the others leave a block lambda
    opening = "return g(() -> {\n" * depth
    src = "class C {\nObject f() {\n" + opening + "return x;\n" + "});\n" * depth + "}\n}\n"
    return src, Counter(NRV=1)


def _nested_switch_rules(depth: int) -> tuple[str, Counter]:
    # a switch rule's block is no lambda: one NRV per 'return'
    opening = "switch (k) {\ncase 1, 2 -> {\n" * depth
    closing = "}\ndefault -> {\nreturn y;\n}\n}\n" * depth
    src = "class C {\nObject f() {\n" + opening + "return x;\n" + closing + "}\n}\n"
    return src, Counter(NRV=depth + 1)


def _nested_switches(depth: int) -> tuple[str, Counter]:
    # statement and expression switches in turn: each statement switch's
    # rule and the innermost block hold creation statements, so the 'yield'
    # has the one NOI, and f's NRV
    opening = "switch (k) {\ncase 1 -> {\no = switch (k) {\ncase 2 -> {\n" * depth
    closing = "}\ndefault -> o;\n};\n}\ndefault -> new C();\n}\n" * depth
    innermost = "new A();\nyield new B();\n"
    src = "class C {\nObject f() {\n" + opening + innermost + closing + "return o;\n}\n}\n"
    return src, Counter(NOI=1, NRV=1)


def _comparison_chain(depth: int) -> tuple[str, Counter]:
    # one ROR per '<' and the NRV
    src = "class C {\nObject f() {\nreturn " + "a < " * depth + "a;\n}\n}\n"
    return src, Counter(ROR=depth, NRV=1)


def _nested_anonymous_returns(depth: int) -> tuple[str, Counter]:
    # one NOI per 'new' and one NRV per 'return'; each of the nest's
    # returns holds the rest of the nest
    opening = "return new A() {\nObject g() {\n" * depth
    src = "class C {\nObject f() {\n" + opening + "return x;\n" + "}\n};\n" * depth + "}\n}\n"
    return src, Counter(NOI=depth, NRV=depth + 1)


def _nested_lambda_anonymous(depth: int) -> tuple[str, Counter]:
    # one NOI per 'new'; each lambda returns an anonymous class whose method
    # holds the next lambda, so only the innermost method's return and f's
    # are NRVs
    opening = "g(() -> {\nreturn new A() {\nObject h() {\n" * depth
    closing = "}\n};\n});\n" * depth
    src = "class C {\nObject f() {\n" + opening + "return x;\n" + closing + "return y;\n}\n}\n"
    return src, Counter(NOI=depth, NRV=2)


def _nested_anonymous_arguments(depth: int) -> tuple[str, Counter]:
    # each anonymous class's arguments hold another anonymous class and the
    # rest of the nest: one NOI per 'new', one NRV per g and f's NRV
    nest = "new A(new B() {\nObject g() {\nreturn x;\n}\n}, " * depth + "null" + ") { }" * depth
    src = "class C {\nObject f() {\nreturn " + nest + ";\n}\n}\n"
    return src, Counter(NOI=2 * depth, NRV=depth + 1)


NESTS = (_nested_creations, _nested_lambda_returns, _nested_switch_rules, _nested_switches,
         _comparison_chain, _nested_anonymous_returns, _nested_lambda_anonymous,
         _nested_anonymous_arguments)


def main(argv: list[str]) -> int:
    command, name, depth, path = argv
    src, expected = {nest.__name__: nest for nest in NESTS}[name](int(depth))
    if command == "write":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(src)
        return 0
    with open(path, encoding="utf-8") as fh:
        units = json.load(fh)["units"]
    found = [Counter(m["operatorId"] for m in unit["mutants"]) for unit in units]
    if found != [expected]:
        print(f"{name} {depth}: expected {[expected]}, found {found}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
