"""Every public library name and class member has a caller in the library
or the benchmark.

A name in a module's ``__all__``, or a method, property or field of a
library class, that nothing under ``src/fieldtomo`` or ``bench`` uses is
code kept alive by its tests alone.  The check is syntactic: a name
counts as used when some module loads it as a bare name or as an
attribute, or when a benchmark string names it (the tracer's ``TARGETS``
entries are ``"module.function"`` strings).  A member counts as used
when some module loads an attribute of its name, on any object.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "fieldtomo").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Public names that wait for the ROADMAP item that gives them a caller.
AWAITING_A_CALLER = {
    "measurement.read_trajectory_csv": "ROADMAP item 8: reconstruct --trajectory FILE",
    "dce.unconditional_mixture": "ROADMAP item 4: mixed states",
}


def public_names() -> set[str]:
    """``module.name`` for every entry of every library ``__all__``."""
    names = set()
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names |= {f"{path.stem}.{name}" for name in ast.literal_eval(node.value)}
    return names


def usage() -> tuple[set[str], set[str]]:
    """Identifiers loaded in the library or the benchmark, and every
    string constant in the benchmark."""
    loads, strings = set(), set()
    for path in LIBRARY + BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif path in BENCH and isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return loads, strings


def test_every_public_name_has_a_caller():
    loads, strings = usage()
    unused = {
        name for name in public_names()
        if not {name, name.split(".")[1]} & (loads | strings)
    }
    # Equality, not inclusion: a listed name leaves the list once it has a
    # caller or is gone.
    assert unused == AWAITING_A_CALLER.keys()


# Class members that wait for a caller; none do.
MEMBERS_AWAITING_A_CALLER: set[str] = set()


def class_members() -> set[str]:
    """``module.Class.member`` for every method, property and annotated field
    defined in a library class body, dunder methods aside."""
    members = set()
    for path in LIBRARY:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    members.add(f"{path.stem}.{cls.name}.{node.name}")
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    members.add(f"{path.stem}.{cls.name}.{node.target.id}")
    return members


def test_every_class_member_is_loaded():
    loads, _ = usage()
    unused = {name for name in class_members() if name.rsplit(".", 1)[1] not in loads}
    assert unused == MEMBERS_AWAITING_A_CALLER
