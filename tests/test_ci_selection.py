"""The CI jobs that run a subset of the tests select it with ``pytest -k``.

``-k`` matches each term, case-insensitively, against the names of the
collected tests and selects nothing, without failing, for a term that names
no test; so a renamed test class would quietly shrink such a job.  Every
``or`` term of every ``-k`` expression in the workflow must name at least one
test class or function in the files its step runs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a pytest call that selects with -k: the test files it names, then the expression
SELECTING_STEP = re.compile(r"python -m pytest (?P<args>[^\n]*?) -k (?:\"(?P<quoted>[^\"]*)\"|(?P<bare>\S+))")


def selecting_steps():
    """(test files, -k expression) of each pytest call in the workflow that uses -k."""
    steps = []
    for match in SELECTING_STEP.finditer(WORKFLOW.read_text()):
        files = [word for word in match["args"].split() if word.endswith(".py")]
        steps.append((files, match["quoted"] or match["bare"]))
    return steps


def defined_names(path):
    tree = ast.parse((ROOT / path).read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def test_every_selection_term_names_a_test():
    steps = selecting_steps()
    selecting_lines = [line for line in WORKFLOW.read_text().splitlines()
                       if "pytest" in line and " -k " in line]
    assert steps and len(steps) == len(selecting_lines), selecting_lines
    for files, expression in steps:
        assert files, expression
        names = set().union(*(defined_names(path) for path in files))
        for term in re.split(r"\s+or\s+", expression.strip()):
            # a term with and, not or brackets would need pytest's own parser
            assert term.isidentifier() and term not in ("and", "not"), (expression, term)
            assert any(term.lower() in name.lower() for name in names), (files, term)
