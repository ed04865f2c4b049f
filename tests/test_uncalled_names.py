"""Every public module-level function and class of rodd that nothing else
in rodd's own source uses is listed here with the reason it stays: a
public op-level or paper view, or a hook that the benchmark's tracer times.
A helper whose last caller goes must go with it, or be given a reason."""

import ast
from pathlib import Path

import rodd

SRC = Path(rodd.__file__).resolve().parent

UNCALLED = {
    "analysis.asymmetric_rate_bound": "one-node view of asymmetric_rate_bounds; traced",
    "analysis.gauss_symmetric_capacity": "the paper's Gaussian symmetric capacity",
    "analysis.or_rate_at_p": "the paper's OR rate at one on-probability p",
    "discovery.discovery_metrics": "op-level miss, false-alarm and accuracy of one receiver",
    "discovery.eliminate": "op-level elimination of one receiver's record",
    "discovery.observe_discovery": "op-level record of one receiver",
    "discovery.random_access_baseline": "the paper's random-access cost comparison",
    "signatures.derive_bit": "the paper's O(1) reconstruction of one mask bit",
    "signatures.derive_mask": "one receiver's mask; traced",
    "sparsecode.decode": "op-level decoding of one receiver's record",
    "sparsecode.encode": "op-level encoding of one message",
    "validate.erased_fraction": "Monte Carlo estimator that validate_suite is checked against",
    "validate.mc_gauss_rate": "Monte Carlo estimator that validate_suite is checked against",
    "validate.mc_or_rate": "Monte Carlo estimator that validate_suite is checked against",
    "validate.mc_weight_distribution": "Monte Carlo estimator that validate_suite is "
                                       "checked against",
}


def _uncalled():
    """`module.name` of each public top-level def or class of rodd that its
    source names nowhere outside that def: not bare in its own module, not
    as `module.name` and not in a `from .module import name`."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined, used = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    refs = [(node.module, alias.name) for alias in node.names]
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in trees:
                    refs = [(node.value.id, node.attr)]
                else:
                    refs = [(module, node.id)] if isinstance(node, ast.Name) else []
                used.update(ref for ref in refs if ref != (module, own))
    return sorted(f"{module}.{name}" for module, name in defined
                  if (module, name) not in used)


def test_every_uncalled_public_name_has_a_reason():
    assert all(UNCALLED.values())
    assert _uncalled() == sorted(UNCALLED)
