"""Source-layout guards: no susystep module reads an underscore-prefixed
(private) attribute of another susystep module, every name a module
exports in ``__all__`` exists, the real-dtype rule has one home, and the
package's line count does not grow past its ceiling."""

import ast
import importlib
from pathlib import Path

import susystep

PACKAGE = Path(susystep.__file__).resolve().parent
# Lines of src/ (the benchmark record's ``src_lines``) may fall, never rise:
# lower this with each change that shrinks the package (the aim is 1978).
SRC_LINE_CEILING = 2084


def _module_aliases(tree, module):
    """Local names bound to sibling susystep modules in ``tree``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                for a in node.names:
                    aliases[a.asname or a.name] = a.name
            elif node.module == "susystep":  # from susystep import x
                for a in node.names:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("susystep.") and a.asname:
                    aliases[a.asname] = a.name.split(".", 1)[1]
    aliases.pop(module, None)
    return aliases


def private_reads(path):
    """(line, module.attribute) of every private cross-module access in
    ``path``: ``mod._name`` on a sibling module, or ``from .mod import _name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = path.stem
    aliases = _module_aliases(tree, module)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module and node.level <= 1:
            source = node.module.split(".")[-1]
            if source != module and (node.level == 1 or node.module.startswith("susystep")):
                found += [(node.lineno, f"{source}.{a.name}") for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_reads_another_modules_private_names():
    offenders = {p.name: private_reads(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in offenders.items() if reads} == {}


def test_every_exported_name_is_defined():
    missing = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"susystep.{path.stem}" if path.stem != "__init__" else "susystep")
        gone = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if gone:
            missing[path.name] = gone
    assert missing == {}


def test_guard_sees_attribute_and_import_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import specfun\nfrom .solutions import _rotated, make_exponents\n"
                      "specfun._gauss_series(1, 2, 3, 0.1)\nspecfun.hyp2f1(1, 2, 3, 0.1)\n")
    assert private_reads(sample) == [(2, "solutions._rotated"), (3, "specfun._gauss_series")]


def test_the_real_dtype_rule_lives_only_in_errors():
    # one copy of the rule that a real x, z, omega or grid has dtype kind
    # "iuf": every other module calls errors.real_array
    holders = [p.name for p in sorted(PACKAGE.rglob("*.py")) if '"iuf"' in p.read_text()]
    assert holders == ["errors.py"]


def test_src_lines_stay_at_or_below_the_ceiling():
    lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.rglob("*.py")))
    assert lines <= SRC_LINE_CEILING
