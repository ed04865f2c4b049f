"""Every backticked `module.name` and `Class.attr` in README.md names
something rodd defines, so deleting a name cannot leave the README
pointing at it."""

import importlib
import pkgutil
import re
from pathlib import Path

import rodd

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name: importlib.import_module(f"rodd.{info.name}")
           for info in pkgutil.iter_modules(rodd.__path__) if info.name != "__main__"}
_MISSING = object()


def _readme_names():
    """(head, attribute path) of each backticked dotted name that starts
    with `rodd`, a rodd module or a capitalized (class) name; `np.` and
    instance names such as `book.` are not rodd's to resolve."""
    text = README.read_text(encoding="utf-8")
    spans = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)", text)
    return sorted({(head, rest) for head, rest in spans
                   if head == "rodd" or head in MODULES or head[0].isupper()})


def _defined(head, rest):
    """Whether rodd defines head.rest: one of its modules, a name in one, or
    an attribute or dataclass field of a class that one of them defines."""
    parts = rest.split(".")
    if head == "rodd":
        owner, parts = MODULES.get(parts[0], _MISSING), parts[1:]
    elif head in MODULES:
        owner = MODULES[head]
    else:
        owner = next((vars(m)[head] for m in MODULES.values()
                      if isinstance(vars(m).get(head), type)), _MISSING)
    for part in parts:
        fields = getattr(owner, "__dataclass_fields__", {})  # a field without a default
        owner = fields[part] if part in fields else getattr(owner, part, _MISSING)
    return owner is not _MISSING


def test_every_readme_name_resolves_in_rodd():
    names = _readme_names()
    assert names
    missing = [f"{head}.{rest}" for head, rest in names if not _defined(head, rest)]
    assert not missing, f"README names what rodd does not define: {missing}"
