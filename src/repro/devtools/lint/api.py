"""P-series checkers: picklability and public-API integrity.

* **P401** — backend payload types cross process boundaries: a sharded
  worker returns its shard's ``VerdictColumns``, which is also what a
  shard checkpoint stores (the shard itself travels as a plain bit
  array).  They must be ``@dataclass(frozen=True, slots=True)`` so they
  stay picklable, immutable in flight and structurally stable.
* **P402** — ``repro/__init__`` re-exports its public API lazily
  through ``_PUBLIC_API``; a stale ``(module, attribute)`` entry only
  explodes on first attribute access, so the analyzer resolves every
  entry against the actual module ASTs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .context import ModuleContext
from .model import Finding, LintConfig, RULES

_DATACLASS_NAMES = ("dataclasses.dataclass", "dataclass")


def _finding(ctx: ModuleContext, rule: str, node: ast.AST,
             message: str) -> Finding:
    return Finding(rule=rule, path=ctx.rel_path, line=node.lineno,
                   col=node.col_offset, scope=ctx.qualname(node),
                   message=message, hint=RULES[rule].hint)


def check_api(ctx: ModuleContext, config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    if config.enabled("P401"):
        findings.extend(_check_payloads(ctx, config))
    if config.enabled("P402") \
            and ctx.rel_path.endswith(config.public_api_module):
        findings.extend(_check_public_api(ctx))
    return findings


# ----------------------------------------------------------------------
# P401 — payload classes
# ----------------------------------------------------------------------
def _dataclass_flags(ctx: ModuleContext, class_node: ast.ClassDef
                     ) -> Optional[Dict[str, bool]]:
    """``{"frozen": ..., "slots": ...}`` of the dataclass decorator."""
    for decorator in class_node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if ctx.dotted(target) not in _DATACLASS_NAMES:
            continue
        flags = {"frozen": False, "slots": False}
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg in flags:
                    flags[keyword.arg] = (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True)
        return flags
    return None


def _check_payloads(ctx: ModuleContext,
                    config: LintConfig) -> List[Finding]:
    required = config.payload_classes_for(ctx.rel_path)
    if not required:
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) \
                or node.name not in required:
            continue
        flags = _dataclass_flags(ctx, node)
        if flags is None:
            findings.append(_finding(
                ctx, "P401", node,
                f"{node.name} is a backend payload but not a "
                "dataclass"))
            continue
        missing = sorted(flag for flag, on in flags.items() if not on)
        if missing:
            findings.append(_finding(
                ctx, "P401", node,
                f"{node.name} is a backend payload but its dataclass "
                f"decorator lacks {'/'.join(missing)}=True"))
    return findings


# ----------------------------------------------------------------------
# P402 — lazy-export drift
# ----------------------------------------------------------------------
def _public_api_entries(ctx: ModuleContext
                        ) -> List[Tuple[ast.AST, str, str, str]]:
    """(node, exported name, module, attribute) from ``_PUBLIC_API``."""
    entries: List[Tuple[ast.AST, str, str, str]] = []
    for node in ctx.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        names = [target.id for target in node.targets
                 if isinstance(target, ast.Name)]
        if "_PUBLIC_API" not in names \
                or not isinstance(node.value, ast.Dict):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Tuple)
                    and len(value.elts) == 2
                    and all(isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                            for elt in value.elts)):
                entries.append((key if key is not None else node,
                                "?", "?", "?"))
                continue
            module, attribute = (elt.value for elt in value.elts)
            entries.append((key, key.value, module, attribute))
    return entries


def _top_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Tuple):
                    names.update(elt.id for elt in target.elts
                                 if isinstance(elt, ast.Name))
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name
                         for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING/optional-dependency guards still bind names.
            names.update(_top_level_names(
                ast.Module(body=list(ast.iter_child_nodes(node)),
                           type_ignores=[])))
    return names


def _module_file(src_root: Path, module: str) -> Optional[Path]:
    base = src_root.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _check_public_api(ctx: ModuleContext) -> List[Finding]:
    # src root: the directory the top-level package lives in.
    src_root = ctx.path.parent.parent
    findings: List[Finding] = []
    entries = _public_api_entries(ctx)
    for node, exported, module, attribute in entries:
        if module == "?":
            findings.append(_finding(
                ctx, "P402", node,
                "_PUBLIC_API entry is not a literal "
                "(name, (module, attribute)) pair"))
            continue
        module_file = _module_file(src_root, module)
        if module_file is None:
            findings.append(_finding(
                ctx, "P402", node,
                f"_PUBLIC_API exports {exported!r} from {module} but "
                "that module does not exist"))
            continue
        tree = ast.parse(module_file.read_text(),
                         filename=str(module_file))
        if attribute not in _top_level_names(tree):
            findings.append(_finding(
                ctx, "P402", node,
                f"_PUBLIC_API exports {exported!r} as "
                f"{module}.{attribute}, but {module} defines no "
                f"top-level {attribute!r}"))
    return findings
