"""Every underscore-led name the docs cite is an attribute of spinread.

The README's backtick spans and the ``:func:`` / ``:class:`` roles of the
package's docstrings name private functions, classes and constants, maybe
module- or class-qualified (``markov._spin_codes``, ``_Segments.factors``).
A rename or a deletion that leaves such a name behind fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import spinread

ROOT = Path(__file__).resolve().parents[1]
# the package and its modules, by the name a qualified citation starts with
MODULES = {
    "spinread": spinread,
    **{m.name: importlib.import_module(f"spinread.{m.name}") for m in pkgutil.iter_modules(spinread.__path__)},
}
# a dotted name with an underscore-led part
_NAME = r"((?:\w+\.)*_\w+(?:\.\w+)*)"
README_SPAN = re.compile(rf"`{_NAME}(?:\([^`]*\))?`")
ROLE = re.compile(rf":(?:func|class):`{_NAME}`")


def _resolves(name: str) -> bool:
    """Whether ``name`` is a module of spinread, or an attribute of one,
    followed by attributes of what it names."""
    head, *rest = name.split(".")
    if head in MODULES:
        roots = [MODULES[head]]
    else:
        roots = [getattr(m, head) for m in MODULES.values() if hasattr(m, head)]
    for obj in roots:
        try:
            for part in rest:
                obj = getattr(obj, part)
        except AttributeError:
            continue
        return True
    return False


def test_readme_names_resolve():
    names = set(README_SPAN.findall((ROOT / "README.md").read_text()))
    assert names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_docstring_roles_resolve():
    names = {
        (path.name, name)
        for path in sorted((ROOT / "src" / "spinread").glob("*.py"))
        for name in ROLE.findall(path.read_text())
    }
    assert names
    assert sorted((f, n) for f, n in names if not _resolves(n)) == []
