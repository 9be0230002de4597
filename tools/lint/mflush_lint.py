#!/usr/bin/env python3
"""mflush-lint: project-specific static checks for the MFLUSH tree.

Checks (each can be selected with --check, default all):

  completeness  For every type with a paired `save_state`/`load_state` or
                `save`/`load` (methods, out-of-class definitions, or free
                `save_xxx`/`load_xxx` helpers over an ArchiveWriter/Reader),
                every non-static data member must be referenced in BOTH
                bodies and in the same order — a new field can never
                silently break resume==continuous. `save_content` (JobSpec)
                is checked for completeness only. Members that are
                intentionally not serialized carry an explicit annotation
                in an adjacent comment:
                    // lint: transient — <why this member is rebuilt>
                    // lint: content-exempt — <why content excludes it>
                References and const members are exempt automatically
                (they cannot be assigned by a loader).

  padding       Every trivially-copyable struct serialized via raw
                `put`/`put_vec`/`put_deque`/`put_map` memcpy must have no
                padding holes: snapshot bytes must be canonical across
                processes (holes carry uninitialized, ASLR-dependent stack
                bytes). Layout facts come from compiling a generated probe
                TU with the project compiler (layout_probe.py) — exact ABI
                answers, not parser guesses. Fix findings by making the
                padding explicit: zero-initialized `std::uint8_t _padN[...]`
                members. A struct can opt out (e.g. when it is never
                byte-compared) with `// lint: padding-ok — <why>` above its
                definition.

  getenv        All environment access must go through the strict parsers
                in common/env.h (mflush::env) — a typo in an MFLUSH_* value
                must hard-error, never silently default. Any other call
                site of `getenv` is a finding.

  envelope      Every checksummed format is sealed or framed by
                common/envelope. Writing a trailing checksum
                (`put(fnv1a(`) or comparing one (`fnv1a(...) ==/!=`)
                anywhere else is a finding.

Exit status: 0 clean, 1 findings, 2 tool error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpplite
import layout_probe

SAVE_LOAD_PAIRS = (("save_state", "load_state"), ("save", "load"))


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


class TreeModel:
    def __init__(self) -> None:
        self.files: list[cpplite.FileModel] = []
        self.classes: dict[str, cpplite.ClassInfo] = {}  # qualified name key
        self.by_simple: dict[str, list[cpplite.ClassInfo]] = {}
        self.enums: set[str] = set()
        self.free_pairs: dict[str, cpplite.FreePair] = {}
        self.helpers: dict[str, cpplite.Method] = {}

    def add(self, fm: cpplite.FileModel) -> None:
        self.files.append(fm)
        for ci in fm.classes:
            self.classes.setdefault(ci.qualified, ci)
            self.by_simple.setdefault(ci.name, []).append(ci)
        for name, method in fm.helpers.items():
            self.helpers.setdefault(name, method)
        self.enums |= fm.enums
        for suffix, pair in fm.free_pairs.items():
            existing = self.free_pairs.setdefault(suffix, pair)
            if existing is not pair:
                existing.save = existing.save or pair.save
                existing.load = existing.load or pair.load

    def resolve(
        self, name: str, scope: cpplite.ClassInfo | None = None
    ) -> cpplite.ClassInfo | None:
        """Look up a type name, preferring the enclosing class's scope."""
        simple = name.split("::")[-1]
        if scope is not None:
            nested = self.classes.get(f"{scope.qualified}::{simple}")
            if nested is not None:
                return nested
        exact = self.classes.get(name)
        if exact is not None:
            return exact
        cands = self.by_simple.get(simple, [])
        if len(cands) == 1:
            return cands[0]
        return None  # unknown or ambiguous — never guess

    def methods_of(self, ci: cpplite.ClassInfo) -> dict[str, cpplite.Method]:
        out = dict(ci.methods)
        for fm in self.files:
            for (cls, name), method in fm.external_methods.items():
                if cls == ci.name and name not in out:
                    out[name] = method
        return out

    def has_save_load(self, ci: cpplite.ClassInfo) -> bool:
        methods = self.methods_of(ci)
        return any(
            s in methods and l in methods for s, l in SAVE_LOAD_PAIRS
        ) or ci.name in {
            p.target_type for p in self.free_pairs.values()
        }


def collect_sources(roots: list[str]) -> list[str]:
    out = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for fn in sorted(filenames):
                if fn.endswith((".h", ".hpp", ".cpp", ".cc")):
                    out.append(os.path.join(dirpath, fn))
    return sorted(out)


def build_model(paths: list[str]) -> TreeModel:
    model = TreeModel()
    for path in paths:
        model.add(cpplite.parse_file(path))
    return model


# ---------------------------------------------------------------------------
# check: completeness + order
# ---------------------------------------------------------------------------


def _annotated(member: cpplite.Member, marker: str) -> bool:
    return re.search(rf"lint:\s*{marker}\b", member.annotations) is not None


def _checked_members(ci: cpplite.ClassInfo) -> list[cpplite.Member]:
    out = []
    for m in ci.members:
        if m.is_static or m.is_reference or m.is_const:
            continue
        if _annotated(m, "transient"):
            continue
        out.append(m)
    return out


def _expand_helpers(
    body: str, helpers: dict[str, cpplite.Method], depth: int = 3
) -> str:
    """Splice the bodies of called serialization helpers into `body`.

    `JobSpec::save` delegates to `put_job_fields(ar, *this)`; the member
    references live in the helper. Inserting the helper body at the call
    site keeps both the reference set and the first-reference order of the
    expanded text faithful to the emitted archive stream. Depth-limited so
    (indirectly) recursive helpers cannot loop.
    """
    if depth <= 0 or not helpers:
        return body
    out: list[str] = []
    pos = 0
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", body):
        h = helpers.get(m.group(1))
        if h is None:
            continue
        inner = {k: v for k, v in helpers.items() if k != m.group(1)}
        out.append(body[pos : m.end()])
        out.append(" " + _expand_helpers(h.body, inner, depth - 1) + " ")
        pos = m.end()
    out.append(body[pos:])
    return "".join(out)


def _reference_order(body: str, members: list[cpplite.Member]) -> list[str]:
    """Member names ordered by first reference position in `body`."""
    firsts = []
    for m in members:
        match = re.search(rf"\b{re.escape(m.name)}\b", body)
        if match:
            firsts.append((match.start(), m.name))
    return [name for _, name in sorted(firsts)]


def check_completeness(model: TreeModel) -> list[str]:
    findings: list[str] = []

    def check_pair(
        where: str,
        members: list[cpplite.Member],
        save_name: str,
        save_body: str,
        load_name: str,
        load_body: str,
    ) -> None:
        for m in members:
            in_save = re.search(rf"\b{re.escape(m.name)}\b", save_body)
            in_load = re.search(rf"\b{re.escape(m.name)}\b", load_body)
            if not in_save:
                findings.append(
                    f"{where}: member `{m.name}` is not referenced in "
                    f"{save_name}() — serialize it or annotate it "
                    f"`// lint: transient — <why>`"
                )
            if not in_load:
                findings.append(
                    f"{where}: member `{m.name}` is not referenced in "
                    f"{load_name}() — a snapshot would restore without it"
                )
        save_order = _reference_order(save_body, members)
        load_order = _reference_order(load_body, members)
        common = [n for n in save_order if n in load_order]
        load_common = [n for n in load_order if n in save_order]
        if common != load_common:
            findings.append(
                f"{where}: {save_name}/{load_name} reference members in "
                f"different orders (save: {', '.join(common)}; load: "
                f"{', '.join(load_common)}) — the archive has no framing, "
                f"order IS the format"
            )

    for ci in model.classes.values():
        methods = model.methods_of(ci)
        members = _checked_members(ci)
        for save_name, load_name in SAVE_LOAD_PAIRS:
            save_m = methods.get(save_name)
            load_m = methods.get(load_name)
            if save_m is None and load_m is None:
                continue
            where = f"{ci.file}:{ci.line}: {ci.kind} {ci.name}"
            if save_m is None or load_m is None:
                # Unpaired methods named exactly save/load but unrelated to
                # archiving (e.g. a cache's load()) must not trip the check:
                # require the archive types in the signature.
                present = save_m or load_m
                if "Archive" in present.params:
                    findings.append(
                        f"{where}: has {present.name}() but no matching "
                        f"{load_name if save_m else save_name}()"
                    )
                continue
            if "Archive" not in save_m.params and "Archive" not in load_m.params:
                continue  # unrelated save/load pair, not serialization
            check_pair(
                where,
                members,
                save_name,
                _expand_helpers(save_m.body, model.helpers),
                load_name,
                _expand_helpers(load_m.body, model.helpers),
            )
        if "save_content" in methods:
            where = f"{ci.file}:{ci.line}: {ci.kind} {ci.name}"
            body = _expand_helpers(methods["save_content"].body, model.helpers)
            for m in ci.members:
                if m.is_static or m.is_reference or m.is_const:
                    continue
                if _annotated(m, "transient") or _annotated(m, "content-exempt"):
                    continue
                if not re.search(rf"\b{re.escape(m.name)}\b", body):
                    findings.append(
                        f"{where}: member `{m.name}` is not referenced in "
                        f"save_content() — content keys would collide for "
                        f"jobs differing only in `{m.name}`; serialize it "
                        f"or annotate `// lint: content-exempt — <why>`"
                    )

    for pair in model.free_pairs.values():
        if pair.save is None or pair.load is None:
            continue
        ci = model.resolve(pair.target_type)
        if ci is None:
            continue
        where = (
            f"{ci.file}:{ci.line}: {ci.kind} {ci.name} "
            f"(via save_{pair.suffix}/load_{pair.suffix})"
        )
        members = _checked_members(ci)
        save_body = _expand_helpers(pair.save.body, model.helpers)
        load_body = _expand_helpers(pair.load.body, model.helpers)
        for m in members:
            in_save = re.search(rf"\b{re.escape(m.name)}\b", save_body)
            in_load = re.search(rf"\b{re.escape(m.name)}\b", load_body)
            if not in_save:
                findings.append(
                    f"{where}: member `{m.name}` is not referenced in "
                    f"save_{pair.suffix}() — serialize it or annotate it "
                    f"`// lint: transient — <why>`"
                )
            if not in_load:
                findings.append(
                    f"{where}: member `{m.name}` is not referenced in "
                    f"load_{pair.suffix}() — a snapshot would restore "
                    f"without it"
                )
        save_order = _reference_order(save_body, members)
        load_order = _reference_order(load_body, members)
        common = [n for n in save_order if n in load_order]
        load_common = [n for n in load_order if n in save_order]
        if common != load_common:
            findings.append(
                f"{where}: save_{pair.suffix}/load_{pair.suffix} reference "
                f"members in different orders (save: {', '.join(common)}; "
                f"load: {', '.join(load_common)})"
            )
    return findings


# ---------------------------------------------------------------------------
# check: padding holes in memcpy-serialized structs
# ---------------------------------------------------------------------------

_RAW_PUT_RE = re.compile(r"\b(?:put_vec|put_deque|put_map|put)\s*(?:<[^;(]*>)?\s*\(")
_RAW_GET_RE = re.compile(r"\bget\s*<\s*([A-Za-z_][\w:<>, ]*?)\s*>")
_GETVEC_RE = re.compile(r"\b(?:get_vec|get_deque|get_map|put_vec|put_deque|put_map|put)\s*\(\s*([^();]*?)\s*\)")


_RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?(?:auto|[A-Za-z_][\w:<>, ]*?)\s*&{0,2}\s*"
    r"([A-Za-z_]\w*)\s*:\s*([^);]+?)\s*\)"
)


def _container_element(type_text: str) -> str | None:
    args = cpplite.template_args(type_text)
    if args and cpplite.base_name(type_text) in ("vector", "array", "deque"):
        return args[0]
    return None


def _resolve_expr_type(
    expr: str,
    ci: cpplite.ClassInfo | None,
    params: str,
    model: TreeModel,
    locals_: dict[str, str],
) -> str | None:
    """Declared type of `expr` (a member, param, local, or dotted chain)."""
    expr = expr.strip()
    if expr in ("*this", "this") and ci is not None:
        return ci.qualified
    expr = expr.lstrip("*& ")
    parts = re.split(r"\.|->", expr)
    head = re.sub(r"\[.*?\]", "", parts[0]).strip()
    if not re.fullmatch(r"[A-Za-z_]\w*", head):
        return None
    cur_type: str | None = locals_.get(head)
    if cur_type is None and ci is not None:
        for m in ci.members:
            if m.name == head:
                cur_type = m.type
                break
    if cur_type is None:
        for p in params.split(","):
            pm = re.match(
                r"\s*(?:const\s+)?([A-Za-z_][\w:<>, ]*?)\s*[&*]?\s*"
                rf"{re.escape(head)}\s*$",
                p,
            )
            if pm:
                cur_type = pm.group(1)
                break
    if cur_type is None:
        return None
    if "[" in parts[0]:
        cur_type = _container_element(cur_type) or cur_type
    holder_scope = ci
    for field in parts[1:]:
        plain = re.sub(r"\[.*?\]", "", field).strip()
        holder = model.resolve(cpplite.base_name(cur_type), holder_scope)
        if holder is None:
            return None
        nxt = None
        for m in holder.members:
            if m.name == plain:
                nxt = m.type
                break
        if nxt is None:
            return None
        cur_type = nxt
        if "[" in field:
            cur_type = _container_element(cur_type) or cur_type
        holder_scope = holder
    return cur_type


def collect_memcpy_types(
    model: TreeModel,
) -> dict[str, set[str]]:
    """Qualified struct name -> serialization sites that memcpy it."""
    out: dict[str, set[str]] = {}

    def add_type(
        type_text: str, why: str, scope: cpplite.ClassInfo | None
    ) -> None:
        for name in cpplite.element_class_names(type_text, model.enums):
            target = model.resolve(name, scope)
            if target is not None:
                out.setdefault(target.qualified, set()).add(why)

    def scan_body(
        body: str, params: str, ci: cpplite.ClassInfo | None, where: str
    ) -> None:
        if not _RAW_PUT_RE.search(body) and not _RAW_GET_RE.search(body):
            return
        # Bind range-for loop variables to their element types so puts
        # through loop aliases resolve (`for (auto& q : per_core_)
        # ar.put_deque(q);`).
        locals_: dict[str, str] = {}
        for m in _RANGE_FOR_RE.finditer(body):
            rtype = _resolve_expr_type(m.group(2), ci, params, model, locals_)
            if rtype:
                elem = _container_element(rtype)
                if elem:
                    locals_[m.group(1)] = elem
        for m in _RAW_GET_RE.finditer(body):
            add_type(m.group(1), where, ci)
        unresolved: list[str] = []
        for m in _GETVEC_RE.finditer(body):
            arg = m.group(1)
            t = _resolve_expr_type(arg, ci, params, model, locals_)
            if t is None:
                unresolved.append(arg)
            else:
                add_type(t, where, ci)
        if unresolved and ci is not None:
            # A put through an alias the resolver cannot follow:
            # conservatively include the element types of every container
            # member — but never types that archive themselves field-wise
            # (their own save/load pair serializes them; raw memcpy of
            # them would be a different, directly-resolvable call).
            for mem in ci.members:
                for name in cpplite.element_class_names(
                    mem.type, model.enums
                ):
                    target = model.resolve(name, ci)
                    if target is None or target is ci:
                        continue
                    if model.has_save_load(target):
                        continue
                    elem = _container_element(mem.type)
                    if elem is None:
                        continue  # plain member: only containers are put_*'d
                    out.setdefault(target.qualified, set()).add(
                        f"{where} (unresolved put of `{unresolved[0]}`; "
                        f"container member {mem.name})"
                    )

    for ci in model.classes.values():
        for name, method in model.methods_of(ci).items():
            if name not in (
                "save", "load", "save_state", "load_state", "save_content"
            ):
                continue
            scan_body(
                method.body,
                method.params,
                ci,
                f"{ci.file}: {ci.name}::{name}",
            )
    for pair in model.free_pairs.values():
        ci = model.resolve(pair.target_type)
        for method in (pair.save, pair.load):
            if method is None:
                continue
            scan_body(
                method.body, method.params, ci, f"free {method.name}"
            )
    for name, method in model.helpers.items():
        scan_body(method.body, method.params, None, f"helper {name}")

    # Transitive closure: a memcpy'd struct's class-typed members (and
    # their members, ...) land in the byte stream too.
    queue = list(out.keys())
    while queue:
        qname = queue.pop()
        ci = model.classes.get(qname)
        if ci is None:
            continue
        for mem in ci.members:
            for sub in cpplite.element_class_names(mem.type, model.enums):
                target = model.resolve(sub, ci)
                if target is not None and target.qualified not in out:
                    out[target.qualified] = {f"member of memcpy'd {ci.name}"}
                    queue.append(target.qualified)
    return out


def _hidden(ci: cpplite.ClassInfo) -> bool:
    return ci.access != "public" or any(
        ci.access_of.get(m.name) != "public" for m in ci.members
    )


def _in_template(model: TreeModel, ci: cpplite.ClassInfo) -> bool:
    """True if `ci` is a template or nested anywhere inside one."""
    parts = ci.qualified.split("::")
    for k in range(1, len(parts) + 1):
        encl = model.classes.get("::".join(parts[:k]))
        if encl is not None and encl.is_template:
            return True
    return False


def _template_instantiations(
    model: TreeModel, ci: cpplite.ClassInfo
) -> list[tuple[str, list[cpplite.ClassInfo], list[str], str]]:
    """Instantiations of a template-nested candidate, found at member sites.

    `TokenTable<T>::Entry` has no layout until T is known; every member of
    the form `TokenTable<Outstanding> x_;` names one concrete layout. Yields
    (instantiated type expression, resolved class-typed args, extra headers,
    use site) per such member.
    """
    parts = ci.qualified.split("::")
    for k in range(1, len(parts) + 1):
        encl = model.classes.get("::".join(parts[:k]))
        if encl is not None and encl.is_template:
            prefix = "::".join(parts[:k])
            simple = parts[k - 1]
            rest = parts[k:]
            break
    else:
        return []
    out: list[tuple[str, list[cpplite.ClassInfo], list[str], str]] = []
    seen: set[str] = set()
    for holder in model.classes.values():
        for mem in holder.members:
            if cpplite.base_name(mem.type) != simple:
                continue
            args = cpplite.template_args(mem.type)
            if not args:
                continue
            qargs: list[str] = []
            arg_cis: list[cpplite.ClassInfo] = []
            headers: list[str] = []
            for a in args:
                aci = model.resolve(cpplite.base_name(a), holder)
                if aci is not None:
                    qargs.append(aci.qualified)
                    arg_cis.append(aci)
                    headers.append(aci.file)
                else:
                    qargs.append(a)
            name = f"{prefix}<{', '.join(qargs)}>"
            if rest:
                name += "::" + "::".join(rest)
            if name in seen:
                continue
            seen.add(name)
            out.append(
                (name, arg_cis, headers,
                 f"{holder.file}: member {holder.name}::{mem.name}")
            )
    return out


def check_padding(
    model: TreeModel, cxx: str, include_dirs: list[str]
) -> list[str]:
    candidates = collect_memcpy_types(model)
    findings: list[str] = []
    probe_types: list[layout_probe.ProbeType] = []
    queue = sorted(candidates)
    done: set[str] = set()
    while queue:
        qname = queue.pop(0)
        if qname in done:
            continue
        done.add(qname)
        ci = model.classes[qname]
        if re.search(r"lint:\s*padding-ok\b", ci.annotations):
            continue
        where = f"{ci.file}:{ci.line}: {ci.kind} {ci.qualified}"
        why = sorted(candidates[qname])[0]
        if not ci.file.endswith((".h", ".hpp")):
            findings.append(
                f"{where}: serialized by memcpy (via {why}) but defined "
                f"outside a header — the layout probe cannot include it; "
                f"move it to a header or annotate "
                f"`// lint: padding-ok — <why>`"
            )
            continue
        if _in_template(model, ci):
            # No layout until instantiated: probe each concrete use, and
            # treat class-typed template args as memcpy'd themselves
            # (their bytes land inside the instantiated element).
            for name, arg_cis, headers, use in _template_instantiations(
                model, ci
            ):
                bad = [a for a in arg_cis if _hidden(a)]
                for a in bad:
                    findings.append(
                        f"{a.file}:{a.line}: {a.kind} {a.qualified}: "
                        f"memcpy'd as a template argument of {name} (via "
                        f"{use}) but non-public — offsetof probing is "
                        f"impossible; make it a plain public struct or "
                        f"annotate `// lint: padding-ok — <why>`"
                    )
                if bad:
                    continue
                for a in arg_cis:
                    if a.qualified not in candidates:
                        candidates[a.qualified] = {
                            f"template argument of {name} ({use})"
                        }
                        queue.append(a.qualified)
                probe_types.append(
                    layout_probe.ProbeType(
                        name=name,
                        header=ci.file,
                        members=[
                            m.name for m in ci.members if not m.is_static
                        ],
                        file=ci.file,
                        line=ci.line,
                        why=f"{why}; instantiated at {use}",
                        extra_headers=headers,
                        ns=ci.namespace,
                    )
                )
            continue
        if _hidden(ci):
            findings.append(
                f"{where}: serialized by memcpy (via {why}) but the type or "
                f"its data members are non-public — offsetof probing is "
                f"impossible; make it a plain public struct or annotate "
                f"`// lint: padding-ok — <why>`"
            )
            continue
        probe_types.append(
            layout_probe.ProbeType(
                name=ci.qualified,
                header=ci.file,
                members=[m.name for m in ci.members if not m.is_static],
                file=ci.file,
                line=ci.line,
                why=why,
                ns=ci.namespace,
            )
        )
    findings.extend(
        layout_probe.find_padding_holes(probe_types, cxx, include_dirs)
    )
    return findings


# ---------------------------------------------------------------------------
# check: raw getenv ban
# ---------------------------------------------------------------------------


def check_getenv(model: TreeModel, allow_files: list[str]) -> list[str]:
    findings = []
    for fm in model.files:
        rel = fm.path.replace("\\", "/")
        if any(rel.endswith(allowed) for allowed in allow_files):
            continue
        for m in re.finditer(r"\bgetenv\s*\(", fm.clean):
            findings.append(
                f"{fm.path}:{cpplite.line_of(fm.clean, m.start())}: raw "
                f"getenv() — route this through the strict parsers in "
                f"common/env.h (mflush::env::u64_or/flag_or/str_or) so a "
                f"malformed value hard-errors instead of silently "
                f"defaulting"
            )
    return findings


# ---------------------------------------------------------------------------
# check: checksum framing outside common/envelope
# ---------------------------------------------------------------------------

ENVELOPE_FILES = ("common/envelope.h", "common/envelope.cpp")
_FNV_CALL = r"fnv1a\s*\((?:[^()]|\([^()]*\))*\)"
_ENVELOPE_RE = re.compile(
    rf"\bput\s*(?:<[^>]*>)?\s*\(\s*fnv1a\s*\(|{_FNV_CALL}\s*[!=]=|[!=]=\s*fnv1a\s*\("
)


def check_envelope(model: TreeModel) -> list[str]:
    findings = []
    for fm in model.files:
        if fm.path.replace("\\", "/").endswith(ENVELOPE_FILES):
            continue
        for m in _ENVELOPE_RE.finditer(fm.clean):
            findings.append(
                f"{fm.path}:{cpplite.line_of(fm.clean, m.start())}: "
                f"hand-rolled checksum framing — seal/unseal or "
                f"frame/unframe through common/envelope.h instead"
            )
    return findings


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root",
        default=os.path.join(os.path.dirname(__file__), "..", ".."),
        help="repository root (default: ../../ from this script)",
    )
    ap.add_argument(
        "--src",
        action="append",
        default=None,
        help="source roots relative to --root (default: src); repeatable, "
        "may also name single files (used by the fixture self-tests)",
    )
    ap.add_argument(
        "--check",
        default="completeness,padding,getenv,envelope",
        help="comma list: completeness,padding,getenv,envelope",
    )
    ap.add_argument("--cxx", default=os.environ.get("CXX", "c++"))
    ap.add_argument(
        "--getenv-allow",
        action="append",
        default=["common/env.h"],
        help="file suffixes allowed to call getenv directly",
    )
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    src_roots = [os.path.join(root, s) for s in (args.src or ["src"])]
    for s in src_roots:
        if not os.path.exists(s):
            print(f"mflush-lint: no such source root: {s}", file=sys.stderr)
            return 2
    paths = collect_sources(src_roots)
    model = build_model(paths)

    checks = {c.strip() for c in args.check.split(",") if c.strip()}
    unknown = checks - {"completeness", "padding", "getenv", "envelope"}
    if unknown:
        print(f"mflush-lint: unknown checks: {sorted(unknown)}", file=sys.stderr)
        return 2

    findings: list[str] = []
    if "completeness" in checks:
        findings += check_completeness(model)
    if "padding" in checks:
        findings += check_padding(model, args.cxx, [root, *src_roots])
    if "getenv" in checks:
        findings += check_getenv(model, args.getenv_allow)
    if "envelope" in checks:
        findings += check_envelope(model)

    for f in findings:
        print(f"mflush-lint: {f}")
    n_classes = len(model.classes)
    print(
        f"mflush-lint: {len(paths)} files, {n_classes} types, "
        f"{len(findings)} finding(s) "
        f"[checks: {', '.join(sorted(checks))}]",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
