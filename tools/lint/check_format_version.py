#!/usr/bin/env python3
"""Format-version gate: fail when a serialized layout changes without a bump.

The binary archive has no framing — field order IS the format — so any
change to a serialized layout silently invalidates every stored artifact
(snapshots, which warm-store entries are; campaign cache entries; worker
wire messages) unless the matching format-version constant is bumped and
old artifacts are rejected at load time.

This gate compares two git revisions (typically the PR base and HEAD):

  1. parse every C++ source under src/ at both revisions (tools/lint/cpplite
     structural parser — same engine as mflush_lint);
  2. fingerprint each artifact family from its root type (ROOTS below): the
     root's `fields` walk, with every nested walk expanded in place (virtual
     entries through each subclass, class templates with their arguments
     bound, loop variables as container elements), flattens
     to one token per serialized leaf — its member path from the root and
     its declared type, plus the layout of a raw (memcpy'd) record: each
     member's byte offset and type and the record's sizeof, from LP64
     scalar sizes with natural alignment (explicit `_pad*` arrays count
     as bytes but are not named, so making a hole explicit is no change
     while resizing a pad is). An argument the gate cannot resolve is
     fingerprinted by its text. So a nested type's changes land in the
     domain of the artifact that carries it (SimMetrics and RunResult in
     `worker`), and a reordered walk, a changed field type, a widened
     array or a resized pad all change the fingerprint;
  3. fail if a domain's fingerprint changed but its version constant did
     not.

Usage:
    python3 tools/lint/check_format_version.py --base origin/main
    python3 tools/lint/check_format_version.py --base HEAD~1 --head HEAD

With no --head the working tree is used, so the gate runs identically in CI
(fetch-depth 0, base = merge target) and locally before committing.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpplite  # noqa: E402
import mflush_lint  # noqa: E402

# Domain -> (version header, constant name). A domain owns the bytes of the
# artifacts stamped with that constant.
DOMAINS = {
    "snapshot": ("src/sim/snapshot.h", "kFormatVersion"),
    "campaign": ("src/sim/campaign.h", "kFormatVersion"),
    "worker": ("src/sim/backend.h", "kProtocolVersion"),
    "daemon": ("src/sim/wire.h", "kProtocolVersion"),
    "spec": ("src/sim/experiment_spec.cpp", "kSpecVersion"),
}

# Domain -> the outermost serialized types of its artifacts; `Type.method`
# fingerprints that entry method instead of the type's walk. A root the base
# does not have yet is new, not changed. A warm-store entry is a snapshot,
# stored as captured, under the campaign job key of its parent: it has no
# domain of its own.
ROOTS = {
    "snapshot": ["Header", "CmpSimulator"],
    "campaign": ["JobSpec.save_content"],
    "worker": ["JobSpec.save", "RunResult"],
    "daemon": ["Message"],
    "spec": ["ExperimentSpec"],
}

_OP_RE = re.compile(
    r"\bar\s*\.\s*(io|flag|enum_u8|fixed_count|walk|put|put_vec)\s*"
    r"(?:<[^;()]*>)?\s*\("
)
_RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?(?:auto|[A-Za-z_][\w:<>, ]*?)\s*&{0,2}\s*"
    r"(\[[^\]]*\]|[A-Za-z_]\w*)\s*:\s*([^;]+?)\s*\)\s*(?=[{\w])"
)
_CONTAINERS = ("vector", "deque", "array")
# Scalar sizes (= alignments) under the LP64 ABI the simulator builds for.
_SCALARS = {
    "bool": 1, "char": 1, "int8_t": 1, "uint8_t": 1, "char8_t": 1,
    "int16_t": 2, "uint16_t": 2, "short": 2, "char16_t": 2,
    "int": 4, "unsigned": 4, "int32_t": 4, "uint32_t": 4, "float": 4,
    "char32_t": 4, "wchar_t": 4, "long": 8, "int64_t": 8, "uint64_t": 8,
    "size_t": 8, "double": 8, "ptrdiff_t": 8, "intptr_t": 8, "uintptr_t": 8,
}


def _norm(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _close(text: str, open_at: int) -> int:
    """Offset of the parenthesis closing the one at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def _args(text: str) -> list[str]:
    return [a.strip() for a, _ in cpplite._angle_paren_split(text, ",")]


class Fingerprinter:
    """Flattens the walks of one tree into leaf tokens."""

    def __init__(self, model: mflush_lint.TreeModel) -> None:
        self.model = model
        # Simple name -> alias target / enum underlying type / constant
        # expression, for record sizes; a name defined two ways maps to None.
        self.aliases: dict[str, str | None] = {}
        self.enums: dict[str, str | None] = {}
        self.consts: dict[str, str | None] = {}
        # Headers first: a .cpp-local constant never sizes a header record.
        for fm in sorted(model.files, key=lambda f: not f.path.endswith(".h")):
            header = fm.path.endswith(".h")
            for m in re.finditer(r"\busing\s+(\w+)\s*=\s*([^;]+);", fm.clean):
                _note(self.aliases, m.group(1), _norm(m.group(2)), True)
            for m in re.finditer(
                r"\benum\s+(?:class\s+|struct\s+)?(\w+)\s*(?::\s*([\w:\s]+?))?\s*\{",
                fm.clean,
            ):
                _note(self.enums, m.group(1), m.group(2) or "int", True)
            for m in re.finditer(
                r"\bconstexpr\s+[\w:]+\s+(\w+)\s*=\s*([^;{}]+);", fm.clean
            ):
                _note(self.consts, m.group(1), _norm(m.group(2)), header)
        # Template parameter -> argument while a class template instance
        # (WakeupWheel<Req>) is being expanded.
        self.bound: dict[str, str] = {}
        self.subclasses: dict[str, list[cpplite.ClassInfo]] = {}
        for ci in sorted(model.classes.values(), key=lambda c: c.qualified):
            for b in ci.bases:
                self.subclasses.setdefault(b, []).append(ci)

    # --- types --------------------------------------------------------------

    def _sub(self, type_text: str) -> str:
        for param, arg in self.bound.items():
            type_text = re.sub(rf"\b{param}\b", arg, type_text)
        return type_text

    def _instance(self, cls, type_text: str, scope) -> dict[str, str]:
        """Bindings of cls's template parameters in `type_text`."""
        out = {}
        for param, arg in zip(cls.tparams, cpplite.template_args(type_text)):
            c = None if "<" in arg else self.model.resolve(arg, scope)
            out[param] = c.qualified if c is not None else arg
        return out

    def class_of(self, type_text: str, scope: cpplite.ClassInfo | None):
        t = self._pointee(type_text)
        if cpplite.base_name(t) in _CONTAINERS + ("unordered_map", "pair",
                                                  "shared_ptr", "basic_string"):
            return None
        qualified = re.sub(r"\bconst\b|[&*]|<.*$", "", t, flags=re.S).strip()
        return self.model.classes.get(qualified) or self.model.resolve(
            cpplite.base_name(t), scope
        )

    @staticmethod
    def _pointee(type_text: str) -> str:
        t = type_text.strip()
        if cpplite.base_name(t) == "unique_ptr":
            return cpplite.template_args(t)[0]
        return t

    def writer(self, ci: cpplite.ClassInfo) -> str | None:
        """Body of the type's fields() walk."""
        walk = self.model.methods_of(ci).get("fields")
        return None if walk is None else walk.body

    def serialized_by_walk(self, ci: cpplite.ClassInfo) -> bool:
        return self.writer(ci) is not None or ci.name in self.subclasses

    def is_raw(self, type_text: str, scope) -> bool:
        t = self._pointee(type_text)
        if cpplite.base_name(t) in _CONTAINERS + ("unordered_map", "pair"):
            return all(
                re.fullmatch(r"\d+", a) or self.is_raw(a, scope)
                for a in cpplite.template_args(t)
            )
        ci = self.class_of(t, scope)
        return ci is None or not self.serialized_by_walk(ci)

    def resolve_path(self, ci, path: str):
        """(declared type, owning class) of a member path relative to ci."""
        cur_type, owner = ci.qualified, ci
        for seg in path.split("."):
            name = seg.rstrip("[]")
            if name in ("first", "second") and cpplite.base_name(cur_type) == "pair":
                cur_type = cpplite.template_args(cur_type)[name == "second"]
            else:
                holder = self.class_of(cur_type, owner)
                if holder is None:
                    return None, owner
                member = next((m for m in holder.members if m.name == name), None)
                if member is None:
                    return None, owner
                cur_type, owner = self._sub(member.type), holder
            for _ in range(seg.count("[]")):
                args = cpplite.template_args(self._pointee(cur_type))
                cur_type = args[0] if args else cur_type
        return cur_type, owner

    def value(self, expr: str, depth: int = 8) -> int | None:
        """A constant integer expression (array extents), or None."""
        e = re.sub(r"(\d)'(?=\d)", r"\1", expr)
        e = re.sub(r"\b(\d+)[uUlL]+\b", r"\1", e)
        for name in set(re.findall(r"[A-Za-z_]\w*", e)):
            sub = self.consts.get(name)
            v = self.value(sub, depth - 1) if sub and depth else None
            if v is None:
                return None
            e = re.sub(rf"\b{name}\b", str(v), e)
        if not re.fullmatch(r"[\d\s+\-*/()<>]+", e):
            return None
        try:
            return int(eval(e.replace("/", "//")))  # digits and operators only
        except (SyntaxError, ZeroDivisionError):
            return None

    def size_align(self, type_text: str, scope, depth: int = 8):
        """(sizeof, alignof) of a member type, or None when unknown."""
        t = _norm(re.sub(r"\b(?:const|volatile|mutable)\b|\bstd::", "",
                         self._sub(type_text)))
        if depth <= 0 or not t:
            return None
        if t.endswith("*"):
            return 8, 8
        words = t.split()
        if len(words) > 1 and set(words) <= {"unsigned", "signed", "long",
                                              "int", "short", "char"}:
            n = next((k for w, k in (("char", 1), ("short", 2), ("long", 8))
                      if w in words), 4)
            return n, n
        base = cpplite.base_name(t)
        if base == "array":
            args = cpplite.template_args(t)
            inner = self.size_align(args[0], scope, depth - 1) if args else None
            n = self.value(args[1]) if len(args) == 2 else None
            return None if inner is None or n is None else (n * inner[0], inner[1])
        if base in _SCALARS:
            return _SCALARS[base], _SCALARS[base]
        ci = None if "<" in t else self.class_of(t, scope)
        if ci is not None:
            rec = self.record(ci, 0)
            return None if rec[1] is None else rec[1:]
        for table in (self.enums, self.aliases):
            if table.get(base):
                return self.size_align(table[base], scope, depth - 1)
        return None

    def record(self, ci: cpplite.ClassInfo, depth: int = 4, busy=()):
        """(layout token, sizeof, alignof) of a raw record: each member's
        name, byte offset and type, explicit `_pad*` arrays counted as bytes
        but not named (an explicit pad filling an implicit hole is no layout
        change; resizing one moves every later byte). Unknown sizes print
        `?`."""
        if ci.qualified in busy:
            return "{?}", None, 1
        busy = (*busy, ci.qualified)
        parts, off, align = [], 0, 1
        for m in ci.members:
            if m.is_static:
                continue
            mtype = self._sub(m.type)
            sa = self.size_align(mtype, ci)
            count = 1
            for dim in re.findall(r"\[([^\]]*)\]", m.extent):
                n = self.value(dim)
                count = None if n is None or count is None else count * n
            if sa is None or count is None or off is None:
                off = None
            else:
                off = -(-off // sa[1]) * sa[1]
                align = max(align, sa[1])
            if not m.name.startswith("_pad"):
                sub = self.class_of(mtype, ci) if depth else None
                nested = self.record(sub, depth - 1, busy)[0] if sub else ""
                at = "?" if off is None else off
                parts.append(f"{m.name}@{at}:{_norm(mtype)}{m.extent}{nested}")
            if off is not None:
                off += count * sa[0]
        size = None if off is None else -(-off // align) * align
        token = "{" + ";".join(parts) + "}#" + ("?" if size is None else str(size))
        return token, size, align

    # --- bodies -------------------------------------------------------------

    def expand_type(self, ci, prefix: str, depth: int) -> list[str]:
        if depth <= 0:
            return [f"{prefix}<depth>"]
        out: list[str] = []
        body = self.writer(ci)
        if body is not None:
            out += self.expand_body(ci, body, prefix, depth)
        for sub in self.subclasses.get(ci.name, []):
            out += self.expand_type(sub, f"{prefix}<{sub.name}>.", depth - 1)
        return out

    def norm_path(self, expr: str, ci, binds: dict) -> str | None:
        """An argument expression as a member path relative to ci."""
        e = expr.strip()
        m = re.fullmatch(r"static_cast\s*<[^>]*>\s*\((.*)\)", e, re.S)
        if m:
            e = m.group(1)
        e = re.split(r"[?]|[!=]=", e)[0].strip().lstrip("*&").strip()
        e = re.sub(r"\bthis\s*->\s*", "", e)
        if e in ("this", ""):
            return ""
        segs = []
        for i, seg in enumerate(re.split(r"\s*(?:\.|->)\s*", e)):
            sm = re.fullmatch(r"([A-Za-z_]\w*)((?:\s*\[[^\]]*\])*)\s*(\(\s*\))?", seg)
            if sm is None:
                return None
            if sm.group(3):  # a call: .size() is the count, others accessors
                if i == 0:
                    return None
                continue
            name = sm.group(1) + "[]" * sm.group(2).count("[")
            if i == 0 and sm.group(1) in binds:
                if not isinstance(binds[sm.group(1)], str):
                    return None
                name = binds[sm.group(1)] + "[]" * sm.group(2).count("[")
            elif i == 0 and not any(mm.name == sm.group(1) for mm in ci.members):
                return None
            segs.append(name)
        return ".".join(s for s in segs if s)

    def dispatch(self, ci, path: str, prefix: str, depth: int, expand):
        """Tokens of one serialized value. expand: True for io (walks and
        containers unfold), False for a raw put, None for a count prefix."""
        type_text, owner = self.resolve_path(ci, path) if path else (ci.qualified, ci)
        if type_text is None:
            return [f"{prefix}{path}:?"]
        t = self._pointee(type_text)
        base = cpplite.base_name(t)
        if expand and base in _CONTAINERS + ("pair",) and not self.is_raw(t, owner):
            if base == "pair":
                return self.dispatch(ci, path + ".first", prefix, depth, True) + \
                    self.dispatch(ci, path + ".second", prefix, depth, True)
            head = [] if base == "array" else [f"{prefix}{path}:{_norm(type_text)}"]
            return head + self.dispatch(ci, path + "[]", prefix, depth, True)
        cls = self.class_of(t, owner)
        if expand and cls is not None and self.serialized_by_walk(cls):
            outer = self.bound
            self.bound = {**outer, **self._instance(cls, t, owner)}
            try:
                return self.expand_type(
                    cls, f"{prefix}{path}." if path else prefix, depth - 1
                )
            finally:
                self.bound = outer
        layout = "".join(
            self.record(c)[0]
            for c in (
                self.model.resolve(n, owner)
                for n in cpplite.element_class_names(t, self.model.enums)
            )
            if expand is not None and c is not None
            and not self.serialized_by_walk(c)
        )
        return [f"{prefix}{path}:{_norm(type_text)}{layout}"]

    def expand_body(self, ci, body: str, prefix: str, depth: int):
        # on_load hooks rebuild derived state: nothing they touch is written.
        for m in reversed(list(re.finditer(r"\bar\s*\.\s*on_load\s*\(", body))):
            body = body[: m.start()] + body[_close(body, m.end() - 1) + 1 :]
        # Range-for variables name container elements from their loop on.
        loops: list[tuple[int, dict]] = []
        scope: dict = {}
        for m in _RANGE_FOR_RE.finditer(body):
            rng = self.norm_path(m.group(2), ci, scope)
            elem = None if rng is None else rng + "[]"
            var = m.group(1)
            if var.startswith("["):
                a, b = (v.strip() for v in var.strip("[]").split(","))
                scope[a] = None if elem is None else elem + ".first"
                scope[b] = None if elem is None else elem + ".second"
            else:
                scope[var] = elem
            loops.append((m.start(), dict(scope)))

        out: list[str] = []
        for m in _OP_RE.finditer(body):
            local = next((b for at, b in reversed(loops) if at < m.start()), {})
            op = m.group(1)
            args = _args(body[m.end() : _close(body, m.end() - 1)])
            if op != "io":
                args = args[:1]
            for a in args:
                if op == "walk":
                    out += self.expand_type(ci, prefix, depth - 1)
                    continue
                path = self.norm_path(a, ci, local)
                if path is None:
                    # Unresolved: its text, so any edit to it still shows.
                    out.append(f"{prefix}?{_norm(a)}")
                    continue
                # x.size(): a count prefix, the elements follow
                count = re.search(r"\.\s*size\s*\(\s*\)$", a)
                mode = None if count else op == "io"
                out += self.dispatch(ci, path, prefix, depth, mode)
        return [t for i, t in enumerate(out) if i == 0 or out[i - 1] != t]

    def root(self, name: str) -> str | None:
        type_name, _, method = name.partition(".")
        ci = self.model.resolve(type_name)
        if ci is None:
            return None
        if method:
            m = self.model.methods_of(ci).get(method)
            if m is None:
                return None
            return "\n".join(self.expand_body(ci, m.body, "", 12))
        return "\n".join(self.expand_type(ci, "", 12))


def _note(table: dict, name: str, value: str, definitive: bool) -> None:
    """Record a definition; a conflicting definitive one makes it None."""
    if name not in table:
        table[name] = value
    elif definitive and table[name] != value:
        table[name] = None


def _git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", root, *args],
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def _tree_at(root: str, rev: str | None) -> mflush_lint.TreeModel:
    """Parse all src/ C++ sources at `rev` (None = working tree)."""
    model = mflush_lint.TreeModel()
    if rev is None:
        for path in mflush_lint.collect_sources([os.path.join(root, "src")]):
            rel = os.path.relpath(path, root)
            model.add(cpplite.parse_file(rel, open(path).read()))
        return model
    listing = _git(root, "ls-tree", "-r", "--name-only", rev, "--", "src")
    for rel in sorted(listing.splitlines()):
        if not rel.endswith((".h", ".hpp", ".cpp", ".cc")):
            continue
        text = _git(root, "show", f"{rev}:{rel}")
        model.add(cpplite.parse_file(rel, text))
    return model


def fingerprints(model: mflush_lint.TreeModel) -> dict[str, dict[str, str]]:
    """domain -> {root -> flattened token string}."""
    fp = Fingerprinter(model)
    out: dict[str, dict[str, str]] = {}
    for dom, roots in ROOTS.items():
        out[dom] = {}
        for name in roots:
            sig = fp.root(name)
            if sig:  # an empty fingerprint: not serialized in this tree
                out[dom][name] = sig
    return out


def _version_at(root: str, rev: str | None, dom: str) -> int | None:
    header, const = DOMAINS[dom]
    try:
        if rev is None:
            text = open(os.path.join(root, header)).read()
        else:
            text = _git(root, "show", f"{rev}:{header}")
    except (OSError, subprocess.CalledProcessError):
        return None
    m = re.search(rf"\b{const}\s*=\s*(\d+)", text)
    return int(m.group(1)) if m else None


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base git revision")
    ap.add_argument(
        "--head", default=None, help="head revision (default: working tree)"
    )
    ap.add_argument("--root", default=None, help="repo root (default: cwd)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root or os.getcwd())

    try:
        base_model = _tree_at(root, args.base)
    except subprocess.CalledProcessError as e:
        print(f"check_format_version: cannot read base {args.base!r}: "
              f"{e.stderr.strip()}", file=sys.stderr)
        return 2
    head_model = _tree_at(root, args.head)
    base_sigs = fingerprints(base_model)
    head_sigs = fingerprints(head_model)

    failures = 0
    for dom in DOMAINS:
        old, new = base_sigs[dom], head_sigs[dom]
        changed = sorted(k for k in old if old[k] != new.get(k))
        if not changed:
            continue
        v_old = _version_at(root, args.base, dom)
        v_new = _version_at(root, args.head, dom)
        if v_old is None:
            continue  # domain born in this change; its version is fresh
        if v_old == v_new:
            header, const = DOMAINS[dom]
            print(
                f"check_format_version: serialized layout of domain "
                f"'{dom}' changed but {header}:{const} is still {v_new}.\n"
                f"  changed roots: {', '.join(changed)}\n"
                f"  Bump {const} (old artifacts must be rejected, not "
                f"misread) or revert the layout change."
            )
            failures += 1
        else:
            print(
                f"check_format_version: domain '{dom}' layout changed, "
                f"version bumped {v_old} -> {v_new} "
                f"({len(changed)} root(s)) — ok"
            )
    if failures == 0:
        print("check_format_version: all serialized-layout domains clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
