"""protocol-drift: one schema module is the source of truth for the wire.

``repro.ipc.protocol`` declares every message type (``MSG_*``) and the
required fields per type (``REQUEST_FIELDS``).  Wrapper, daemon and service code must construct and match
messages only in that vocabulary:

- referencing an undeclared ``protocol.MSG_*`` constant;
- passing ``make_request`` / ``.call`` / ``.notify`` / ``._ipc*`` a
  payload field the schema does not declare for that type;
- comparing ``message["type"]`` / ``msg_type`` against an undeclared
  literal;
- defining an ``_on_<type>`` dispatch handler for an undeclared type

are all **protocol-drift** findings.  A separate **protocol-doc-drift**
check keeps ``docs/PROTOCOL.md`` bidirectionally in sync: every declared
type appears in the doc's message tables, and every type the doc tables
name is declared.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.core import Context, Finding, Rule, SourceFile, dotted_name

__all__ = ["ProtocolDriftRule", "SchemaInfo", "load_schema"]

#: Call names whose first argument is a message type and whose keyword
#: arguments become payload fields on the wire.
_CONSTRUCTOR_NAMES = frozenset(
    {"make_request", "call", "notify", "_ipc", "_ipc_retry"}
)
#: Keywords those helpers accept that are not payload fields.
_NON_PAYLOAD_KWARGS = frozenset({"seq", "timeout", "await_reply"})

#: Backticked tokens leading a markdown table row: the doc's type column.
_DOC_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`", re.MULTILINE)

#: Binary-codec tables in the schema module that must be *derived* from
#: ``REQUEST_FIELDS`` (comprehension, call, …), never hand-written dict
#: literals — a literal copy can silently drift from the schema the moment
#: a message type is added or a field changes.
_DERIVED_TABLES = frozenset({"MESSAGE_TAGS", "TAG_MESSAGES", "BINARY_FIELDS"})


@dataclass
class SchemaInfo:
    rel: str
    constants: dict[str, str] = field(default_factory=dict)  # MSG_X -> value
    fields: dict[str, set[str]] = field(default_factory=dict)  # type -> fields

    @property
    def types(self) -> set[str]:
        return set(self.fields) | set(self.constants.values())


def load_schema(ctx: Context) -> SchemaInfo | None:
    """Parse the schema module: from the analyzed set when present,
    falling back to ``LintConfig.schema_path`` under the repo root."""
    cached = ctx.state.get("protocol.schema")
    if cached is not None:
        return cached if isinstance(cached, SchemaInfo) else None
    cfg = ctx.config
    source = None
    for candidate in ctx.files:
        if candidate.matches((cfg.schema_path, cfg.schema_path.split("/", 1)[-1])):
            source = candidate
            break
    if source is None:
        path = cfg.schema_path
        if not os.path.isabs(path):
            path = os.path.join(ctx.root, path)
        if not os.path.exists(path):
            ctx.state["protocol.schema"] = False
            return None
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        rel = os.path.relpath(path, ctx.root).replace(os.sep, "/")
        source = SourceFile(path, rel, text)
    schema = _parse_schema(source)
    ctx.state["protocol.schema"] = schema
    return schema


def _parse_schema(source: SourceFile) -> SchemaInfo:
    schema = SchemaInfo(rel=source.rel)
    for node in source.tree.body:
        # Schema declarations may be plain or annotated assignments.
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        if target.id.startswith("MSG_") and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                schema.constants[target.id] = node.value.value
        elif target.id == "REQUEST_FIELDS" and isinstance(node.value, ast.Dict):
            for key, value in zip(node.value.keys, node.value.values):
                type_name = _const_or_name(key, schema.constants)
                if type_name is None or not isinstance(value, ast.Dict):
                    continue
                names = {
                    k.value
                    for k in value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
                schema.fields[type_name] = names
    return schema


def _const_or_name(node: ast.AST | None, constants: dict[str, str]) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


class ProtocolDriftRule(Rule):
    id = "protocol-drift"
    doc_id = "protocol-doc-drift"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        schema = load_schema(ctx)
        if schema is None:
            return
        if source.rel == schema.rel:
            yield from self._check_schema_derivations(source)
            return
        for node in source.nodes:
            if isinstance(node, ast.Attribute) and node.attr.startswith("MSG_"):
                if node.attr not in schema.constants:
                    yield source.finding(
                        self.id, node,
                        f"{node.attr} is not declared in the schema module "
                        f"({schema.rel})",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_constructor(source, node, schema)
            elif isinstance(node, ast.Compare):
                yield from self._check_comparison(source, node, schema)
        if source.matches(ctx.config.protocol_handler_suffixes):
            yield from self._check_handlers(source, schema)

    # -- the schema module itself -------------------------------------------

    def _check_schema_derivations(self, source: SourceFile) -> Iterable[Finding]:
        """The binary tag/field tables must be derived, not hand-written.

        ``MESSAGE_TAGS`` / ``TAG_MESSAGES`` / ``BINARY_FIELDS`` extend
        themselves when ``REQUEST_FIELDS`` grows precisely because they are
        computed from it.  A hand-written ``{...}`` literal (with or without
        an annotation) freezes a copy that drifts silently — flag it at the
        source instead of debugging a codec mismatch on the wire.
        """
        for node in source.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if not isinstance(target, ast.Name) or target.id not in _DERIVED_TABLES:
                continue
            if isinstance(value, ast.Dict):
                yield source.finding(
                    self.id, value,
                    f"{target.id} is a hand-written dict literal; binary "
                    f"codec tables must be derived from REQUEST_FIELDS so "
                    f"they cannot drift from the schema",
                )

    # -- construction sites -------------------------------------------------

    def _check_constructor(
        self, source: SourceFile, call: ast.Call, schema: SchemaInfo
    ) -> Iterable[Finding]:
        name = dotted_name(call.func)
        if name is None or name.split(".")[-1] not in _CONSTRUCTOR_NAMES:
            return
        if not call.args:
            return
        first = call.args[0]
        msg_type: str | None = None
        if isinstance(first, ast.Attribute) and first.attr.startswith("MSG_"):
            msg_type = schema.constants.get(first.attr)
            if msg_type is None:
                return  # already reported as an undeclared constant
        elif isinstance(first, ast.Name) and first.id.startswith("MSG_"):
            msg_type = schema.constants.get(first.id)
            if msg_type is None:
                yield source.finding(
                    self.id, first,
                    f"{first.id} is not declared in the schema module "
                    f"({schema.rel})",
                )
                return
        elif (
            name.split(".")[-1] == "make_request"
            and isinstance(first, ast.Constant)
            and isinstance(first.value, str)
        ):
            msg_type = first.value
            if msg_type not in schema.types:
                yield source.finding(
                    self.id, first,
                    f"message type {msg_type!r} is not declared in the "
                    f"schema module ({schema.rel})",
                )
                return
        if msg_type is None:
            return
        allowed = schema.fields.get(msg_type, set()) | _NON_PAYLOAD_KWARGS
        for keyword in call.keywords:
            if keyword.arg is None:  # **payload: can't check statically
                continue
            if keyword.arg not in allowed:
                yield source.finding(
                    self.id, keyword.value,
                    f"field {keyword.arg!r} is not declared for "
                    f"{msg_type!r} in the schema module "
                    f"(REQUEST_FIELDS in {schema.rel})",
                )

    # -- match sites ---------------------------------------------------------

    def _check_comparison(
        self, source: SourceFile, node: ast.Compare, schema: SchemaInfo
    ) -> Iterable[Finding]:
        if not _is_type_expr(node.left):
            return
        for comparator in node.comparators:
            literals: list[ast.Constant] = []
            if isinstance(comparator, ast.Constant):
                literals = [comparator]
            elif isinstance(comparator, (ast.Tuple, ast.Set, ast.List)):
                literals = [
                    elt for elt in comparator.elts if isinstance(elt, ast.Constant)
                ]
            for lit in literals:
                if not isinstance(lit.value, str):
                    continue
                base = lit.value[: -len("_reply")] if lit.value.endswith(
                    "_reply"
                ) else lit.value
                if base not in schema.types:
                    yield source.finding(
                        self.id, lit,
                        f"matches message type {lit.value!r}, which is not "
                        f"declared in the schema module ({schema.rel})",
                    )

    def _check_handlers(
        self, source: SourceFile, schema: SchemaInfo
    ) -> Iterable[Finding]:
        for node in source.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not item.name.startswith("_on_"):
                    continue
                handled = item.name[len("_on_"):]
                if handled not in schema.types:
                    yield source.finding(
                        self.id, item,
                        f"dispatch handler {item.name} has no declared "
                        f"message type {handled!r} in the schema module "
                        f"({schema.rel})",
                    )

    # -- doc sync ------------------------------------------------------------

    def finalize(self, ctx: Context) -> Iterable[Finding]:
        cfg = ctx.config
        if cfg.protocol_doc_path is None:
            return
        schema = load_schema(ctx)
        if schema is None:
            return
        doc_path = cfg.protocol_doc_path
        if not os.path.isabs(doc_path):
            doc_path = os.path.join(ctx.root, doc_path)
        if not os.path.exists(doc_path):
            return
        with open(doc_path, "r", encoding="utf-8") as fh:
            doc = fh.read()
        doc_rel = os.path.relpath(doc_path, ctx.root).replace(os.sep, "/")
        documented = set(_DOC_ROW_RE.findall(doc))
        for msg_type in sorted(schema.types - documented):
            yield Finding(
                path=doc_rel, line=1, col=1, rule=self.doc_id,
                message=(
                    f"message type {msg_type!r} is declared in {schema.rel} "
                    "but missing from the message tables in this document"
                ),
                snippet=msg_type,
            )
        for lineno, line in enumerate(doc.splitlines(), start=1):
            match = _DOC_ROW_RE.match(line)
            if match and match.group(1) not in schema.types:
                yield Finding(
                    path=doc_rel, line=lineno, col=1, rule=self.doc_id,
                    message=(
                        f"documents {match.group(1)!r}, which is not "
                        f"declared in the schema module ({schema.rel})"
                    ),
                    snippet=line.strip(),
                )


def _is_type_expr(node: ast.AST) -> bool:
    """``message["type"]`` / ``msg["type"]`` / a ``msg_type`` name."""
    if isinstance(node, ast.Subscript):
        idx = node.slice
        return isinstance(idx, ast.Constant) and idx.value == "type"
    if isinstance(node, ast.Name):
        return node.id in ("msg_type", "message_type")
    return False
