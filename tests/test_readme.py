"""Every backticked `module.name` and `Class.attr` in README.md names
something rodd defines, so deleting a name cannot leave the README
pointing at it; the numbers of its operating points follow their closed
forms."""

import importlib
import math
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


def _operating_points():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Operating points"):text.index("## Library notes")]
    return " ".join(section.split())


def _p_ambiguous(K, mu, q, M):
    """P(a pair is ambiguous) in the noiseless K-clique: the receiver hears
    n ~ Binom(M, (1-q)^K) quiet slots, and each of the mu - 1 wrong
    messages survives them with probability (1-q)^n."""
    quiet = (1 - q) ** K
    return math.fsum(math.comb(M, n) * quiet**n * (1 - quiet) ** (M - n)
                     * (1 - (1 - (1 - q) ** n) ** (mu - 1)) for n in range(M + 1))


def test_readme_message_code_operating_point_follows_the_closed_form():
    text = _operating_points()
    at_256 = {0.05: "33.8", 0.07: "13.6", 0.09: "10.1", 0.11: "11.9", 0.13: "18.3"}
    for q, percent in at_256.items():
        assert f"{100 * _p_ambiguous(10, 1024, q, 256):.1f}" == percent
        assert f"{percent}% at q = {q}" in text
    worst = max(_p_ambiguous(10, 1024, q, 512) for q in at_256)
    assert f"{100 * worst:.2f}" == "0.02"
    assert "at M = 512 it is at most 0.02% across q in [0.05, 0.13]" in text
    at_09 = _p_ambiguous(10, 1024, 0.09, 512)
    assert f"{100 * at_09:.3f}" == "0.001" and round(90_000 * at_09) == 1
    assert "0.001% at q = 0.09, about one pair in 90,000" in text
    # a wrong message is eliminated per slot with probability q(1-q)^K
    grid = [i / 10_000 for i in range(1, 10_000)]
    assert max(grid, key=lambda q: q * (1 - q) ** 10) == round(1 / 11, 4)
    assert "`q = 0.09 ~ 1/(K+1)`" in text


def test_readme_discovery_operating_point_is_the_false_alarm_optimum():
    # a non-neighbor is eliminated per slot with probability q(1-q)^(d+1)
    degree, grid = 50, [i / 10_000 for i in range(1, 10_000)]
    best = max(grid, key=lambda q: q * (1 - q) ** (degree + 1))
    assert best == round(1 / (degree + 2), 4) == 0.0192
    assert "false-alarm-optimal 1/(degree+2) = 0.0192" in _operating_points()
    assert round(best, 2) == 0.02
