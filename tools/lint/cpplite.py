"""Lightweight structural C++ parser for mflush-lint and the format gate.

This is NOT a general C++ front-end. It is a deliberately small structural
parser that understands exactly as much C++ as the mflush codebase uses:
namespaces, class/struct definitions (with their base classes), data-member
declarations, and the bodies of serialization functions — each type's
`fields` walk, the `save`/`load`, `save_state`/`load_state` and
`save_content` entries, and free functions taking an ArchiveWriter or
ArchiveReader (including the `put_*`/`save_*` writers of trees that predate
the walks, which the format gate still reads as a base). No clang front-end
is available to the tools, so this module is the engine; layout questions
are the compiler's own (common/archive.h rejects padded raw records).

The parser is intentionally conservative: clang-format keeps the tree in a
narrow stylistic corridor, and the lint self-tests (selftest.py) pin the
behaviours the checks rely on. Anything the parser cannot classify is
skipped, never guessed.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional

# ---------------------------------------------------------------------------
# comment / string stripping
# ---------------------------------------------------------------------------


def strip_comments(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets.

    Every replaced character becomes a space (newlines are kept) so that
    byte offsets and line numbers in the result match the original file.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:
                out[j] = out[j + 1] = " "
                j += 2
            i = j
        elif c == '"' or (c == "'" and not (i and text[i - 1].isalnum())):
            # (a quote after a digit is a separator, 0x0040'0000)
            quote = c
            out[i] = " "
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    out[j] = " "
                    j += 1
                    if j < n and text[j] != "\n":
                        out[j] = " "
                    j += 1
                    continue
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n:
                out[j] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# block tree
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Block:
    header: str  # text between the previous ';'/'{'/'}' and this '{'
    header_start: int  # offset of the header in the file
    open_off: int  # offset of '{'
    close_off: int  # offset of matching '}'
    children: list["Block"]

    def body(self, clean: str) -> str:
        return clean[self.open_off + 1 : self.close_off]


def parse_blocks(clean: str) -> list[Block]:
    """Build the brace-block tree of a comment-stripped file."""
    roots: list[Block] = []
    stack: list[Block] = []
    last_boundary = 0
    i, n = 0, len(clean)
    while i < n:
        c = clean[i]
        if c == "{":
            header = clean[last_boundary:i]
            blk = Block(header, last_boundary, i, -1, [])
            (stack[-1].children if stack else roots).append(blk)
            stack.append(blk)
            last_boundary = i + 1
        elif c == "}":
            if stack:
                stack.pop().close_off = i
            last_boundary = i + 1
        elif c == ";":
            last_boundary = i + 1
        i += 1
    return roots


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Member:
    name: str
    type: str
    line: int
    is_static: bool = False
    is_reference: bool = False
    is_const: bool = False
    annotations: str = ""  # raw comment text attached to the declaration
    extent: str = ""  # C array extents, e.g. "[2]" for `PhysReg src[2]`


@dataclasses.dataclass
class Method:
    name: str
    params: str  # raw parameter list text
    body: str  # comment-stripped body text
    line: int


@dataclasses.dataclass
class ClassInfo:
    name: str
    kind: str  # "class" | "struct"
    file: str
    line: int
    members: list[Member]
    methods: dict[str, Method]
    qualified: str = ""  # enclosing-class-qualified name, e.g. "L2Cache::Bank"
    bases: list[str] = dataclasses.field(default_factory=list)
    tparams: list[str] = dataclasses.field(default_factory=list)  # template


@dataclasses.dataclass
class FileModel:
    path: str
    text: str
    clean: str
    classes: list[ClassInfo]
    # out-of-class method bodies: (class name, method name) -> Method
    external_methods: dict[tuple[str, str], Method]
    enums: set[str]


_CLASS_RE = re.compile(
    r"\b(class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?(?:\[\[[^\]]*\]\]\s*)?"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::([^;{]*))?$"
)
_SERIAL = r"(fields|save_state|load_state|save_content|save|load)"
_METHOD_RE = re.compile(rf"\b{_SERIAL}\s*\($")
_EXTERNAL_RE = re.compile(rf"\b([A-Za-z_]\w*)\s*::\s*{_SERIAL}\s*\(")
_ENUM_RE = re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)")

_SKIP_KEYWORDS = (
    "using", "typedef", "friend", "static_assert", "template", "return",
    "if", "for", "while", "switch", "case", "else", "do", "goto", "public",
    "private", "protected", "enum", "class", "struct", "namespace",
    "explicit", "virtual", "operator", "concept", "requires",
)


def _mask_children(block: Block, clean: str) -> str:
    """Body text of `block` with the contents of child blocks blanked."""
    base = block.open_off + 1
    body = list(clean[base : block.close_off])
    for child in block.children:
        for i in range(child.open_off + 1, child.close_off):
            if body[i - base] != "\n":
                body[i - base] = " "
    return "".join(body)


def _angle_paren_split(text: str, seps: str) -> list[tuple[str, int]]:
    """Split `text` on separator chars at angle/paren/brace depth 0.

    Returns (segment, start_offset) pairs. '}' and ';' both terminate a
    segment (a masked function body `{}` has no trailing ';').
    """
    segs: list[tuple[str, int]] = []
    depth_a = depth_p = depth_b = 0
    start = 0
    for i, c in enumerate(text):
        if c == "<" and "<" in (text[i - 1 : i], text[i + 1 : i + 2]):
            continue  # a shift, 1 << 18
        if c == "<":
            depth_a += 1
        elif c == ">":
            if depth_a > 0:
                depth_a -= 1
        elif c == "(":
            depth_p += 1
        elif c == ")":
            depth_p -= 1
        elif c == "{":
            depth_b += 1
        elif c == "}":
            depth_b -= 1
            if depth_b <= 0 and depth_p == 0 and "}" in seps:
                segs.append((text[start:i], start))
                start = i + 1
                depth_a = depth_b = 0
            continue
        if c in seps and c != "}" and depth_a == 0 and depth_p == 0 and depth_b == 0:
            segs.append((text[start:i], start))
            start = i + 1
    if text[start:].strip():
        segs.append((text[start:], start))
    return segs


def _top_level_has_paren(text: str) -> bool:
    """True if `text` contains '(' outside template angle brackets."""
    depth_a = 0
    for c in text:
        if c == "<":
            depth_a += 1
        elif c == ">":
            if depth_a > 0:
                depth_a -= 1
        elif c == "(" and depth_a == 0:
            return True
    return False


_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(\[[^\]]*\]\s*)*$")


def _parse_member(seg: str, line: int, raw_lines: list[str]) -> Optional[Member]:
    decl = seg.strip()
    if not decl:
        return None
    # An access label glues to the following declaration segment
    # ("private:\n  std::vector<MicroOp> pool_") — peel it off so the
    # first member after the label is not mistaken for a keyword line.
    decl = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", decl)
    if not decl:
        return None
    first_word = re.match(r"[A-Za-z_]\w*", decl)
    is_static = False
    # Peel leading specifiers.
    while first_word:
        w = first_word.group(0)
        if w in ("static", "inline", "constexpr", "mutable", "thread_local"):
            if w == "static":
                is_static = True
            decl = decl[first_word.end() :].lstrip()
            first_word = re.match(r"[A-Za-z_]\w*", decl)
            continue
        break
    if not first_word:
        return None
    if first_word.group(0) in _SKIP_KEYWORDS:
        return None
    # Strip default initializer: "= ..." or "{...}" tail. Only what is left
    # tells a function from a member initialized by a call
    # (`double min_ = std::numeric_limits<double>::infinity();`).
    cut = _angle_paren_split(decl, "=")
    head = cut[0][0] if cut else decl
    brace = head.find("{")
    if brace != -1:
        head = head[:brace]
    head = head.rstrip()
    if _top_level_has_paren(head) or re.search(r"\boperator\b", decl):
        return None  # function declaration / member function pointer
    if not head or head.endswith(("<", ",", ":")):
        return None
    m = _NAME_RE.search(head)
    if not m:
        return None
    name = m.group(1)
    type_text = head[: m.start()].strip()
    if not type_text:
        return None
    # Collect comment text attached to this declaration: trailing comments
    # on the declaration's lines plus immediately preceding comment-only
    # lines (the natural places for a `lint:` annotation).
    notes: list[str] = []
    li = line - 1  # 0-based index of the first declaration line
    k = li - 1
    while k >= 0 and raw_lines[k].lstrip().startswith(("//", "///")):
        notes.insert(0, raw_lines[k])
        k -= 1
    for k in range(li, min(li + seg.count("\n") + 1, len(raw_lines))):
        if "//" in raw_lines[k]:
            notes.append(raw_lines[k][raw_lines[k].index("//") :])
    return Member(
        name=name,
        type=type_text,
        line=line,
        is_static=is_static,
        is_reference="&" in type_text,
        is_const=bool(re.search(r"\bconst\b", type_text))
        and "*" not in type_text,
        annotations="\n".join(notes),
        extent=re.sub(r"\s+", "", head[m.end(1) :]),
    )


def _walk(
    block: Block,
    clean: str,
    raw_lines: list[str],
    model: FileModel,
    scope: tuple[str, ...] = (),
) -> None:
    header = block.header.strip()
    # Namespaces / extern "C" / plain scopes: recurse. The header text spans
    # everything since the previous block, so match the intro at its END
    # (an anonymous namespace or extern block falls through to the generic
    # recursion at the bottom).
    if re.search(r"\bnamespace\s+[A-Za-z_][\w:]*\s*$", header):
        for child in block.children:
            _walk(child, clean, raw_lines, model, scope)
        return

    for em in _ENUM_RE.finditer(header):
        model.enums.add(em.group(1))
    if re.match(r"\s*enum\b", header):
        return

    cm = _CLASS_RE.search(header)
    if cm and not _top_level_has_paren(header.split(":")[0]):
        inner_scope = scope + (cm.group(2),)
        tm = re.search(r"template\s*<([^{;]*)>\s*(?:class|struct)\b", header)
        info = ClassInfo(
            name=cm.group(2),
            kind=cm.group(1),
            file=model.path,
            line=line_of(clean, block.open_off),
            members=[],
            methods={},
            qualified="::".join(inner_scope),
            tparams=re.findall(r"(?:typename|class)\s+(\w+)", tm.group(1))
            if tm
            else [],
            bases=[
                base_name(re.sub(r"\b(public|protected|private|virtual)\b", "", b))
                for b in (cm.group(3) or "").split(",")
                if b.strip()
            ],
        )
        base = block.open_off + 1
        for seg, off in _angle_paren_split(_mask_children(block, clean), ";}"):
            member = _parse_member(
                seg, line_of(clean, base + off + _lead_ws(seg)), raw_lines
            )
            if member:
                info.members.append(member)
        # Methods defined inline in the class; nested types recurse.
        for child in block.children:
            mm = _METHOD_RE.search(_header_through_paren(child.header.strip()))
            if mm:
                info.methods[mm.group(1)] = _method(mm.group(1), clean, child)
            else:
                _walk(child, clean, raw_lines, model, inner_scope)
        model.classes.append(info)
        return

    # Out-of-class method definition: `void X::save_state(...) { ... }`.
    em = _EXTERNAL_RE.search(header)
    if em:
        model.external_methods[(em.group(1), em.group(2))] = _method(
            em.group(2), clean, block
        )
        return

    for child in block.children:
        _walk(child, clean, raw_lines, model, scope)


def _method(name: str, clean: str, block: Block) -> Method:
    return Method(
        name=name,
        params=_params_of(clean, block),
        body=block.body(clean),
        line=line_of(clean, block.open_off),
    )


def _lead_ws(seg: str) -> int:
    return len(seg) - len(seg.lstrip())


def _header_through_paren(header: str) -> str:
    """Header text up to and including the first '(' (for name matching)."""
    i = header.find("(")
    return header if i == -1 else header[: i + 1]


def _params_of(clean: str, block: Block) -> str:
    header = clean[block.header_start : block.open_off]
    i = header.find("(")
    if i == -1:
        return ""
    depth = 0
    for j in range(i, len(header)):
        if header[j] == "(":
            depth += 1
        elif header[j] == ")":
            depth -= 1
            if depth == 0:
                return header[i + 1 : j]
    return header[i + 1 :]


def parse_file(path: str, text: Optional[str] = None) -> FileModel:
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    clean = strip_comments(text)
    model = FileModel(
        path=path,
        text=text,
        clean=clean,
        classes=[],
        external_methods={},
        enums=set(),
    )
    raw_lines = text.splitlines()
    for block in parse_blocks(clean):
        _walk(block, clean, raw_lines, model)
    return model


# ---------------------------------------------------------------------------
# type utilities
# ---------------------------------------------------------------------------

_FUNDAMENTAL = {
    "bool", "char", "int", "unsigned", "signed", "long", "short", "float",
    "double", "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "ptrdiff_t", "uintptr_t",
    "intptr_t", "wchar_t", "char8_t", "char16_t", "char32_t", "void",
}

_CONTAINERS = ("vector", "deque", "array", "unordered_map", "map", "span")


def base_name(type_text: str) -> str:
    """`std::vector<MicroOp>` -> `vector`; `BranchUnit::Checkpoint` ->
    `Checkpoint`; `const Cycle` -> `Cycle`."""
    t = type_text.strip()
    t = re.sub(r"\b(const|volatile|struct|class|typename)\b", "", t).strip()
    i = t.find("<")
    if i != -1:
        t = t[:i]
    t = t.rstrip("&* ")
    return t.split("::")[-1].strip()


def template_args(type_text: str) -> list[str]:
    t = type_text.strip()
    i = t.find("<")
    if i == -1 or not t.endswith(">"):
        return []
    inner = t[i + 1 : -1]
    args, depth, start = [], 0, 0
    for j, c in enumerate(inner):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "," and depth == 0:
            args.append(inner[start:j].strip())
            start = j + 1
    args.append(inner[start:].strip())
    return args


def element_class_names(type_text: str, enums: set[str]) -> list[str]:
    """Class names reachable as serialized elements of `type_text`.

    `std::vector<MicroOp>` -> [MicroOp]; `std::array<std::deque<E>, 2>` ->
    [E]; fundamental/enum element types resolve to nothing.
    """
    name = base_name(type_text)
    out: list[str] = []
    if name in _CONTAINERS:
        for arg in template_args(type_text):
            if re.fullmatch(r"\d+", arg) or not arg:
                continue
            out.extend(element_class_names(arg, enums))
        return out
    if name in _FUNDAMENTAL or name in enums or not name:
        return []
    if not re.fullmatch(r"[A-Za-z_]\w*", name):
        return []
    # Type aliases like Cycle/Addr resolve to fundamentals; they are
    # filtered later when no class definition is found for the name.
    return [name]
