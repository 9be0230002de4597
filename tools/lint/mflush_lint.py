"""mflush-lint: project-specific static checks for the MFLUSH tree.

Checks (each can be selected with --check, default all):

  completeness  Every serialized type states its field sequence once, as a
                `template <class Ar> void fields(Ar& ar)` walk that both
                archives run (common/archive.h). Every non-static data
                member must be referenced in its type's walk, so a new field
                can never silently break resume==continuous or a wire
                format. Members deliberately outside the walk carry an
                annotation in an adjacent comment:
                    // lint: transient — <why this member is rebuilt>
                    // lint: hand-coded — <which hand-written codec writes it>
                References and const members are exempt automatically. A
                type without a walk whose save/load (or save_state/
                load_state) pair names its members writes its field list
                twice: that is a finding too.

                Padding holes need no lint: raw memcpy only accepts
                RawArchivable types, so a padded record does not compile.

  getenv        All environment access must go through the strict parsers
                in common/env.h (mflush::env) — a typo in an MFLUSH_* value
                must hard-error, never silently default. Any other call
                site of `getenv` is a finding.

  envelope      Every checksummed format is sealed or framed by
                common/envelope. Writing a trailing checksum
                (`put(checksum(`, `put(fnv1a(`) or comparing one
                (`checksum(...) ==/!=`, likewise fnv1a) anywhere else is a
                finding.

Exit status: 0 clean, 1 findings, 2 tool error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpplite

ENTRY_PAIRS = (("save_state", "load_state"), ("save", "load"))


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


class TreeModel:
    def __init__(self) -> None:
        self.files: list[cpplite.FileModel] = []
        self.classes: dict[str, cpplite.ClassInfo] = {}  # qualified name key
        self.by_simple: dict[str, list[cpplite.ClassInfo]] = {}
        self.enums: set[str] = set()

    def add(self, fm: cpplite.FileModel) -> None:
        self.files.append(fm)
        for ci in fm.classes:
            self.classes.setdefault(ci.qualified, ci)
            self.by_simple.setdefault(ci.name, []).append(ci)
        self.enums |= fm.enums

    def resolve(
        self, name: str, scope: cpplite.ClassInfo | None = None
    ) -> cpplite.ClassInfo | None:
        """Look up a type name, preferring the enclosing class's scope."""
        simple = name.split("::")[-1]
        if scope is not None:
            parts = scope.qualified.split("::")
            for k in range(len(parts), 0, -1):
                nested = self.classes.get("::".join(parts[:k] + [simple]))
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
# check: every member in its type's walk
# ---------------------------------------------------------------------------


def checked_members(ci: cpplite.ClassInfo) -> list[cpplite.Member]:
    """Members a walk must name: not static/reference/const, not annotated."""
    return [
        m
        for m in ci.members
        if not (m.is_static or m.is_reference or m.is_const)
        and not re.search(r"lint:\s*(transient|hand-coded)\b", m.annotations)
    ]


def _names(member: cpplite.Member, body: str) -> bool:
    return re.search(rf"\b{re.escape(member.name)}\b", body) is not None


def check_completeness(model: TreeModel) -> list[str]:
    findings: list[str] = []
    for ci in model.classes.values():
        methods = model.methods_of(ci)
        members = checked_members(ci)
        where = f"{ci.file}:{ci.line}: {ci.kind} {ci.qualified}"
        walk = methods.get("fields")
        if walk is not None:
            for m in members:
                if not _names(m, walk.body):
                    findings.append(
                        f"{where}: member `{m.name}` is missing from "
                        f"fields() — serialize it or annotate it "
                        f"`// lint: transient — <why>`"
                    )
            continue
        for save_name, load_name in ENTRY_PAIRS:
            save, load = methods.get(save_name), methods.get(load_name)
            if save is None or load is None:
                continue
            if "Archive" not in save.params + load.params:
                continue  # an unrelated save/load pair, not serialization
            if any(_names(m, save.body) or _names(m, load.body) for m in members):
                findings.append(
                    f"{where}: {save_name}()/{load_name}() write the field "
                    f"list twice — write one `fields()` walk instead"
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
# The envelope's own checksum, and FNV-1a (the content hash it replaced).
_SUM = r"\b(?:\w+::)*(?:fnv1a|checksum)\s*\("
_SUM_CALL = _SUM + r"(?:[^()]|\([^()]*\))*\)"
_ENVELOPE_RE = re.compile(
    rf"\bput\s*(?:<[^>]*>)?\s*\(\s*{_SUM}|{_SUM_CALL}\s*[!=]=|[!=]=\s*{_SUM}"
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
        default="completeness,getenv,envelope",
        help="comma list: completeness,getenv,envelope",
    )
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
    unknown = checks - {"completeness", "getenv", "envelope"}
    if unknown:
        print(f"mflush-lint: unknown checks: {sorted(unknown)}", file=sys.stderr)
        return 2

    findings: list[str] = []
    if "completeness" in checks:
        findings += check_completeness(model)
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
