#!/usr/bin/env python3
"""detlint/soelint - cross-layer contract checker for soefair.

Enforces the simulator's load-bearing contracts as named rules that
the build and the tests cannot hold directly (see docs/correctness.md,
"soelint rule families"):

Determinism:
  DET-001  no wall-clock / rand() / locale / PID-dependent values in
           model code (src/{sim,cpu,mem,soe,workload}).
  DET-002  no std::getenv outside the single whitelisted accessor.
  DET-003  no unordered containers or pointer-keyed ordered containers
           in code that feeds statistics::, payload codecs or CSV.
  DET-004  no uninitialized scalar/pointer members in aggregate
           structs declared in src/ headers.

Fast-forward contract (docs/performance.md):
  FF-002   every stall counter (*[Ss]tall*[Cc]ycles*) incremented
           per-cycle (++x / x++ / x += 1) in src/cpu, src/mem,
           src/soe must also be bulk-credited in a
           creditSkippedCycles() body in the same file, or
           fast-forward changes its final value (byte-identity gate).

Error taxonomy (docs/robustness.md):
  ERR-001  no naked exit()/_exit()/abort()/std::terminate and no raw
           `throw expr` in src/ outside whitelisted sites; defined
           failures go through raiseError<E> so the exit-code
           taxonomy holds (bare `throw;` rethrow is allowed).
  ERR-003  every CLI verb's documented exit codes
           (src/harness/cli_verbs.cc) must cover the codes statically
           reachable from its implementation in tools/soefair_cli.cc,
           and must only use codes from the known taxonomy.

Stats determinism:
  STAT-001 payload/CSV-feeding code must route floating point through
           the statfmt precision codec (src/stats/statfmt.hh): no raw
           operator<< of a double/float and no ad-hoc setprecision.

Three former rules are held by the code itself: FF-001 by the
WakeTicked concept (src/sim/ticked.hh), ERR-002 by the kind table in
src/sim/errors.cc and the TypedSimError concept on raiseError<E>, and
STAT-002 by statistics::Group, which panics on a duplicate name.

Analysis
--------
A dependency-free token analysis: comments and string literals are
stripped (line-preserving, CRLF- and raw-string-literal-aware), then
rule matchers run over the token text; member rules use a
brace-tracking class parser. The same rules run on every machine.

Cross-file rules (ERR-003, the STAT-001 float registry) run on a
tree context built from the scanned file set; they anchor on the
canonical paths src/sim/errors.hh, src/harness/cli_verbs.cc and
tools/soefair_cli.cc and are skipped when those files are not part of
the scan (e.g. single-file invocations).

Suppression
-----------
  // detlint: allow(ERR-001)       suppress rule(s) on this line

Exit status: 0 clean, 1 findings, 2 usage/setup error (including a
scan that finds no C++ files).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field as dataclass_field

RULES = {
    "DET-001": "no wall-clock/rand/locale/PID values in model code",
    "DET-002": "no std::getenv outside the whitelisted accessor",
    "DET-003": "no unordered/pointer-keyed containers feeding "
               "deterministic output",
    "DET-004": "no uninitialized scalar members in aggregate structs",
    "FF-002": "per-cycle stall counters must be bulk-credited in "
              "creditSkippedCycles()",
    "ERR-001": "no naked exit/abort/terminate or raw throw outside "
               "whitelisted sites",
    "ERR-003": "CLI verb exit-code docs cross-check against "
               "statically reachable codes",
    "STAT-001": "floating point feeding payload/CSV goes through the "
                "statfmt codec",
}

# --- rule scopes (paths are '/'-separated, relative to the repo) ----

DET001_DIRS = ("src/sim/", "src/cpu/", "src/mem/", "src/soe/",
               "src/workload/")
DET002_WHITELIST = ("src/harness/env.cc",)
DET003_PREFIXES = ("src/stats/", "src/harness/", "bench/",
                   "src/core/metrics")
DET004_PREFIXES = ("src/",)
SCAN_DIRS = ("src", "bench", "tools", "tests", "examples")
CXX_EXTENSIONS = (".cc", ".hh", ".h", ".cpp", ".hpp")
HEADER_EXTENSIONS = (".hh", ".h", ".hpp")

FF_DIRS = ("src/cpu/", "src/mem/", "src/soe/")
ERR001_SCOPE = ("src/",)
#: Sanctioned raw-throw / hard-exit sites: the error machinery itself.
ERR001_WHITELIST = (
    "src/sim/logging.hh",    # FatalError/PanicError throw helpers
    "src/sim/errors.hh",     # raiseError<E> itself throws
    "src/sim/invariant.cc",  # SOE_AUDIT failure throw
)
STAT001_PREFIXES = DET003_PREFIXES
#: Sanctioned formatter implementations (the codec itself, and the
#: fixed-width deterministic table writer).
STAT001_WHITELIST = (
    "src/stats/statfmt.cc",
    "src/stats/statfmt.hh",
    "src/harness/table.cc",
)

#: Anchor files for the cross-file rules.
ERRORS_HH = "src/sim/errors.hh"
CLI_VERBS_CC = "src/harness/cli_verbs.cc"
CLI_MAIN_CC = "tools/soefair_cli.cc"
#: Exit codes any soefair process can produce regardless of verb
#: (ok / fatal / usage / panic); implicitly documented everywhere.
BUILTIN_EXIT_CODES = {0, 1, 2, 3}

DET001_PATTERNS = [
    (re.compile(r"\b(time|clock|clock_gettime|gettimeofday|"
                r"localtime|localtime_r|gmtime|gmtime_r|strftime|"
                r"mktime|timespec_get)\s*\("),
     "wall-clock read"),
    (re.compile(r"\bstd::chrono\b"), "std::chrono clock"),
    (re.compile(r"\b(system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "chrono clock type"),
    (re.compile(r"\b(rand|srand|random|srandom|drand48|lrand48|"
                r"mrand48|rand_r)\s*\("),
     "libc PRNG"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\b(getpid|gettid|pthread_self)\s*\("),
     "process/thread id"),
    (re.compile(r"\b(setlocale|localeconv)\s*\("), "locale call"),
    (re.compile(r"\bstd::locale\b"), "std::locale"),
]

DET002_PATTERN = re.compile(r"\bgetenv\s*\(")

DET003_UNORDERED = re.compile(
    r"\b(?:std::)?(unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset)\s*<")
DET003_PTR_KEYED = re.compile(
    r"\bstd::(map|set|multimap|multiset)\s*<\s*[A-Za-z_][\w:<>\s]*?"
    r"\*\s*[,>]")

SCALAR_TYPE = re.compile(
    r"^(?:(?:std::)?(?:u?int(?:8|16|32|64|ptr|max)?_t|size_t|"
    r"ptrdiff_t)|bool|char|short|int|long|unsigned|signed|float|"
    r"double|Tick|Addr|Cycles|ThreadID)\b")
FLOAT_TYPE = re.compile(
    r"^(?:long\s+double|double|float)\b")

IDENT = re.compile(r"[A-Za-z_]\w*")

ALLOW_DIRECTIVE = re.compile(r"detlint:\s*allow\(([^)]*)\)")

#: ERR-001 process-terminating calls. Member calls (preceded by
#: '.'/'->') are not process exits and are skipped at the match site.
ERR001_EXIT_CALL = re.compile(
    r"\b(?:std\s*::\s*)?(exit|_exit|_Exit|quick_exit|abort|"
    r"terminate)\s*\(")
#: Raw `throw expr` (bare `throw;` rethrow is fine).
ERR001_THROW = re.compile(r"\bthrow\b(?!\s*;)")

#: FF-002 stall-counter name shape and per-cycle increment forms.
STALL_NAME = re.compile(r"\A\w*[Ss]tall\w*[Cc]ycles\w*\Z")
INC_PATTERNS = [
    re.compile(r"\+\+\s*(?:this\s*->\s*)?([A-Za-z_]\w*)"),
    re.compile(r"\b([A-Za-z_]\w*)\s*\+\+"),
    re.compile(r"\b([A-Za-z_]\w*)\s*\+=\s*1\s*;"),
]
CREDIT_DEF = re.compile(
    r"\bcreditSkippedCycles\s*\([^()]*\)\s*(?:const\s*)?\{")

STAT001_SETPREC = re.compile(
    r"(?:\bsetprecision\s*\(|\.\s*precision\s*\()")
STAT001_FLOAT_LITERAL = re.compile(
    r"<<\s*[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|"
    r"\d+[eE][+-]?\d+)[fFlL]?\b")
STAT001_STREAMED_EXPR = re.compile(
    r"<<\s*([A-Za-z_][\w:.\[\]]*(?:->[\w:.\[\]]+)*)\s*(?![\w(])")
STAT001_LOCAL_FLOAT = re.compile(
    r"\b(?:double|float)\s+([a-z_]\w*)\s*[=;,)\]:]")

RAISE_ERROR = re.compile(r"\braiseError\s*<\s*(\w+)\s*>")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)


def scan_allowed(raw: str) -> dict:
    """line number -> set of rule ids its allow() directive names
    (an empty set allows every rule)."""
    allowed = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = ALLOW_DIRECTIVE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")
                     if r.strip()}
            allowed.setdefault(lineno, set()).update(rules)
            # A comment-only directive line also covers the next
            # line, so justifications can precede the code they
            # annotate instead of trailing on one long line.
            if line.lstrip().startswith("//"):
                allowed.setdefault(lineno + 1, set()).update(rules)
    return allowed


RAW_STRING_PREFIX = re.compile(r"(?:u8R|uR|UR|LR|R)\Z")


def _raw_string_prefix(raw: str, i: int) -> str | None:
    """If the '"' at raw[i] opens a raw string literal, return its
    encoding prefix ('R', 'u8R', ...), else None. The prefix must not
    itself be the tail of a longer identifier (fooR"..." is not a raw
    string)."""
    m = RAW_STRING_PREFIX.search(raw, max(0, i - 3), i)
    if not m:
        return None
    start = m.start()
    if start > 0 and (raw[start - 1].isalnum() or
                      raw[start - 1] == "_"):
        return None
    return m.group(0)


def _blank_literal(seg: str, quote: str) -> str:
    """Blank a string/char literal's contents while keeping its
    delimiters, so adjacency-sensitive rules don't see the literal
    as plain whitespace (`throw "boom";` must not scan like the
    bare-rethrow `throw ;`)."""
    body = "".join("\n" if ch == "\n" else " " for ch in seg)
    if len(seg) >= 2 and seg[-1] == quote:
        return quote + body[1:-1] + quote
    return body


def strip_comments_and_strings(raw: str,
                               keep_strings: bool = False) -> str:
    """Blank out comments (and, unless keep_strings, string and char
    literals), preserving the position of every remaining character
    (newlines survive; CRLF inputs are expected to be normalized to
    LF by the caller). Raw string literals with any encoding prefix
    (R / uR / UR / LR / u8R) are recognized so quotes and comment
    markers inside them never leak into the token text."""
    out = []
    i, n = 0, len(raw)
    while i < n:
        c = raw[i]
        nxt = raw[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and raw[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (raw[i] == "*" and i + 1 < n and
                                 raw[i + 1] == "/"):
                out.append("\n" if raw[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' and _raw_string_prefix(raw, i) is not None:
            # Raw string: "delim( ... )delim" — no escapes inside;
            # scan to the exact closing delimiter.
            m = re.match(r'"([^()\\\s]{0,16})\(', raw[i:])
            if m:
                close = f"){m.group(1)}\""
                end = raw.find(close, i + m.end())
                end = n if end < 0 else end + len(close)
            else:  # ill-formed raw string: treat as ordinary text
                end = i + 1
            seg = raw[i:end]
            if keep_strings:
                out.append(seg)
            else:
                out.append(_blank_literal(seg, '"'))
            i = end
        elif c == '"' or c == "'":
            quote = c
            start = i
            i += 1
            while i < n and raw[i] != quote and raw[i] != "\n":
                i += 2 if raw[i] == "\\" and i + 1 < n else 1
            if i < n and raw[i] == quote:
                i += 1
            seg = raw[start:i]
            if keep_strings:
                out.append(seg)
            else:
                out.append(_blank_literal(seg, quote))
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# --- token rules ----------------------------------------------------


def check_det001(path: str, text: str):
    seen_lines = set()
    for pattern, label in DET001_PATTERNS:
        for m in pattern.finditer(text):
            # One finding per line: overlapping patterns (e.g.
            # 'std::chrono' and 'steady_clock') describe one offense.
            line = line_of(text, m.start())
            if line in seen_lines:
                continue
            seen_lines.add(line)
            yield Finding(
                path, line, "DET-001",
                f"forbidden non-deterministic source '{m.group(0).strip()}'"
                f" ({label}) in model code; timing belongs in "
                "src/harness, tests/ or perfbench/")


def check_det002(path: str, text: str):
    for m in DET002_PATTERN.finditer(text):
        yield Finding(
            path, line_of(text, m.start()), "DET-002",
            "getenv outside the whitelisted accessor; route the read "
            "through harness/env.hh")


def check_det003(path: str, text: str):
    for m in DET003_UNORDERED.finditer(text):
        yield Finding(
            path, line_of(text, m.start()), "DET-003",
            f"unordered container '{m.group(1)}' in deterministic-"
            "output code (hash/address-dependent iteration order); "
            "use an ordered container or sort before emitting")
    for m in DET003_PTR_KEYED.finditer(text):
        yield Finding(
            path, line_of(text, m.start()), "DET-003",
            f"pointer-keyed 'std::{m.group(1)}' in deterministic-"
            "output code (allocation-address-dependent order); key "
            "by a stable id instead")


def check_err001(path: str, text: str):
    for m in ERR001_EXIT_CALL.finditer(text):
        before = text[:m.start()].rstrip()
        if before.endswith((".", "->")):
            continue  # member call, not a process exit
        name = m.group(1)
        if name == "terminate" and "::" not in m.group(0):
            continue  # only std::terminate is the process killer
        yield Finding(
            path, line_of(text, m.start()), "ERR-001",
            f"naked process exit '{name}()' bypasses the SimError "
            "exit-code taxonomy; raise a typed error (raiseError<E>) "
            "or return an exit code through main")
    for m in ERR001_THROW.finditer(text):
        yield Finding(
            path, line_of(text, m.start()), "ERR-001",
            "raw `throw` outside the error machinery; use "
            "raiseError<E> (sim/errors.hh) or fatal()/panic() so the "
            "failure lands in the exit-code taxonomy")


def check_stat001(path: str, text: str, float_names):
    """Flag floating point streamed to an ostream without going
    through the statfmt codec: ad-hoc precision manipulation, float
    literals after `<<`, and streamed identifier chains whose
    terminal name is a known double/float (tree-wide member registry
    + file-local declarations)."""
    local_floats = set(STAT001_LOCAL_FLOAT.findall(text))
    names = float_names | local_floats
    for m in STAT001_SETPREC.finditer(text):
        yield Finding(
            path, line_of(text, m.start()), "STAT-001",
            "ad-hoc precision manipulation in payload/CSV-feeding "
            "code; use statistics::statfmt (full/csv/stat) so float "
            "formatting is centralized and byte-stable")
    for m in STAT001_FLOAT_LITERAL.finditer(text):
        yield Finding(
            path, line_of(text, m.start()), "STAT-001",
            "float literal streamed raw; route it through "
            "statistics::statfmt so the precision contract holds")
    for m in STAT001_STREAMED_EXPR.finditer(text):
        expr = m.group(1)
        ids = IDENT.findall(expr)
        if not ids:
            continue
        terminal = ids[-1]
        # A bare identifier is trusted only against this file's own
        # double/float declarations: the tree-wide member registry
        # would otherwise flag any local (e.g. an integer `quota`)
        # that happens to share a name with some class's double.
        pool = local_floats if len(ids) == 1 else names
        if terminal in pool:
            yield Finding(
                path, line_of(text, m.start()), "STAT-001",
                f"double '{expr}' streamed raw into payload/CSV-"
                "feeding output; wrap it in statistics::statfmt "
                "(full/csv/stat) to pin the precision")


# --- member parser (DET-004 / STAT-001) ---------------------------


@dataclass
class Member:
    name: str
    line: int
    has_init: bool
    is_scalar: bool
    is_pointer: bool
    is_static: bool
    is_const: bool
    is_reference: bool
    is_bitfield: bool
    is_float: bool = False


@dataclass
class ClassInfo:
    name: str
    kind: str  # struct | class | union
    has_ctor: bool = False
    members: list = dataclass_field(default_factory=list)


def strip_preprocessor(text: str) -> str:
    """Blank out preprocessor directives (including backslash
    continuations), preserving newlines. The member parser and the
    token rules both run on directive-free text: macro *definitions*
    are not analyzable as code."""
    out = []
    cont = False
    for line in text.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append("")
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


def _top_level_positions(s: str, wanted: str):
    """Positions of `wanted` chars at paren/angle/bracket depth 0.
    Angle brackets are only tracked up to the first top-level '='
    (after which '<' is likely a comparison)."""
    depth_paren = depth_angle = depth_bracket = depth_brace = 0
    seen_eq = False
    out = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        nxt = s[i + 1] if i + 1 < n else ""
        at_top = (depth_paren == 0 and depth_angle == 0 and
                  depth_bracket == 0 and depth_brace == 0)
        if c in wanted and at_top:
            if c == "=" and (nxt == "=" or (i > 0 and
                                            s[i - 1] in "=<>!+-*/&|^")):
                pass  # comparison/compound, not an initializer
            else:
                out.append(i)
                if c == "=":
                    seen_eq = True
        if c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren = max(0, depth_paren - 1)
        elif c == "[":
            depth_bracket += 1
        elif c == "]":
            depth_bracket = max(0, depth_bracket - 1)
        elif c == "{":
            depth_brace += 1
        elif c == "}":
            depth_brace = max(0, depth_brace - 1)
        elif c == "<" and not seen_eq:
            if c == nxt:  # <<
                i += 1
            else:
                depth_angle += 1
        elif c == ">" and not seen_eq:
            if i > 0 and s[i - 1] == "-":  # ->
                pass
            elif c == nxt:  # >>
                depth_angle = max(0, depth_angle - 2)
                i += 1
            else:
                depth_angle = max(0, depth_angle - 1)
        i += 1
    return out


def _normalize_operators(s: str) -> str:
    return re.sub(r"\boperator\s*(\(\)|\[\]|[^\s(]{1,3})",
                  "operator_fn", s)


def _analyze_chunk(chunk: str, line: int, had_brace_init: bool,
                   is_bitfield: bool):
    """Classify one class-scope declaration chunk.

    Returns ('member', Member), ('function', name) or None."""
    s = chunk.strip()
    if not s:
        return None
    if re.match(r"^(using|typedef|friend|template|static_assert|"
                r"enum|namespace|extern|public|private|protected)\b",
                s):
        return None
    if re.match(r"^(class|struct|union)\b[^;]*$", s):
        return None  # forward declaration remnants
    s_norm = _normalize_operators(s)
    parens = _top_level_positions(s_norm, "(")
    eqs = _top_level_positions(s_norm, "=")
    if parens and (not eqs or parens[0] < eqs[0]):
        ids = IDENT.findall(s_norm[:parens[0]])
        return ("function", ids[-1] if ids else "")
    is_static = bool(re.search(r"\b(static|constexpr|constinit)\b",
                               s_norm))
    # Type/qualifier inspection uses the part before the first '='.
    head = s_norm[:eqs[0]] if eqs else s_norm
    is_const = bool(re.search(r"\bconst\b", head))
    is_reference = "&" in head
    is_pointer = "*" in head
    has_init = bool(eqs) or had_brace_init
    # Name: last identifier of the declarator head, ignoring array
    # brackets.
    head_clean = re.sub(r"\[[^\]]*\]", " ", head)
    ids = IDENT.findall(head_clean)
    if not ids:
        return None
    name = ids[-1]
    # Type text: everything before the member name's last occurrence.
    type_text = head_clean[:head_clean.rfind(name)].strip()
    type_text = re.sub(r"^\s*(mutable|volatile|inline|static|"
                       r"constexpr|constinit|const)\b\s*", "",
                       type_text)
    type_text = re.sub(r"^\s*(mutable|volatile|const)\b\s*", "",
                       type_text)
    is_scalar = bool(SCALAR_TYPE.match(type_text)) and \
        "<" not in type_text
    is_float = bool(FLOAT_TYPE.match(type_text)) and \
        "<" not in type_text and not is_pointer
    if not type_text:
        return None  # label or stray token, not a declaration
    return ("member", Member(
        name=name, line=line, has_init=has_init,
        is_scalar=is_scalar, is_pointer=is_pointer,
        is_static=is_static, is_const=is_const,
        is_reference=is_reference, is_bitfield=is_bitfield,
        is_float=is_float))


def parse_classes(text: str):
    """Brace-tracking scan of stripped C++ yielding ClassInfo for
    every class/struct/union body, including nested ones. Records
    members and whether the class declares a constructor."""
    classes = []
    # Scope stack entries: dict(kind=..., cls=ClassInfo or None)
    stack = [{"kind": "top", "cls": None}]
    buf = []
    buf_start = 0  # position where the current chunk began
    had_brace_init = False
    is_bitfield = False
    i, n = 0, len(text)

    def current():
        return stack[-1]

    def flush_chunk(end_pos):
        nonlocal buf, buf_start, had_brace_init, is_bitfield
        scope = current()
        chunk = "".join(buf)
        if scope["kind"] == "class" and scope["cls"] is not None:
            res = _analyze_chunk(chunk, line_of(text, buf_start),
                                 had_brace_init, is_bitfield)
            if res:
                kind, payload = res
                if kind == "member":
                    scope["cls"].members.append(payload)
                elif payload == scope["cls"].name:
                    scope["cls"].has_ctor = True
        buf = []
        buf_start = end_pos + 1
        had_brace_init = False
        is_bitfield = False

    paren_depth = 0
    angle_depth = 0

    while i < n:
        c = text[i]
        # A chunk starts at its first non-space character; leading
        # whitespace is never buffered, so buf_start (and thus the
        # reported line) always points at real text.
        if not buf:
            if c.isspace():
                i += 1
                continue
            if c not in "{};":
                buf_start = i
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "(":
            paren_depth += 1
            buf.append(c)
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
            buf.append(c)
        elif c == "<" and paren_depth == 0:
            if nxt == "<":
                buf.append("<<")
                i += 1
            else:
                # Heuristic: template bracket if preceded by ident.
                prev = "".join(buf).rstrip()[-1:] if buf else ""
                if prev and (prev.isalnum() or prev in "_>,:"):
                    angle_depth += 1
                buf.append(c)
        elif c == ">" and paren_depth == 0:
            if buf and buf[-1] == "-":
                buf.append(c)
            elif nxt == ">" and angle_depth >= 2:
                angle_depth -= 2
                buf.append(">>")
                i += 1
            else:
                angle_depth = max(0, angle_depth - 1)
                buf.append(c)
        elif c == "{" and paren_depth == 0 and angle_depth == 0:
            chunk = "".join(buf)
            chunk_norm = _normalize_operators(chunk.strip())
            kind = None
            cls = None
            if re.search(r"\bnamespace\b", chunk_norm):
                kind = "namespace"
            elif re.search(r"\benum\b", chunk_norm):
                kind = "enum"
            else:
                cm = list(re.finditer(r"\b(class|struct|union)\b",
                                      chunk_norm))
                parens = _top_level_positions(chunk_norm, "(")
                eqs = _top_level_positions(chunk_norm, "=")
                starts_fn = parens and (not eqs or
                                        parens[0] < eqs[0])
                if cm and not starts_fn:
                    kind = "class"
                    after = chunk_norm[cm[-1].end():]
                    # Name: identifier after the keyword, before any
                    # base-clause colon.
                    after = after.split(":", 1)[0]
                    ids = IDENT.findall(after)
                    ids = [x for x in ids if x != "final"]
                    cname = ids[0] if ids else "<anonymous>"
                    cls = ClassInfo(cname, cm[-1].group(1))
                    classes.append(cls)
                elif starts_fn:
                    kind = "block"
                elif current()["kind"] == "class":
                    # Member brace-initializer: consume to matching
                    # '}' as part of the declaration chunk.
                    depth = 1
                    j = i + 1
                    while j < n and depth:
                        if text[j] == "{":
                            depth += 1
                        elif text[j] == "}":
                            depth -= 1
                        j += 1
                    had_brace_init = True
                    buf.append(" ")
                    i = j
                    continue
                elif current()["kind"] in ("top", "namespace"):
                    kind = "namespace"  # extern "C" etc: transparent
                else:
                    kind = "block"
            if kind == "block":
                # Skip the body wholesale.
                depth = 1
                j = i + 1
                while j < n and depth:
                    if text[j] == "{":
                        depth += 1
                    elif text[j] == "}":
                        depth -= 1
                    j += 1
                # In-class function definition: still counts for
                # constructor detection.
                flush_chunk(j - 1)
                i = j
                continue
            stack.append({"kind": kind, "cls": cls})
            buf = []
            buf_start = i + 1
            had_brace_init = False
            is_bitfield = False
        elif c == "}" and paren_depth == 0:
            flush_chunk(i)
            if len(stack) > 1:
                stack.pop()
        elif c == ";" and paren_depth == 0 and angle_depth == 0:
            flush_chunk(i)
        elif c == ":" and paren_depth == 0 and angle_depth == 0:
            if nxt == ":":
                buf.append("::")
                i += 1
            else:
                stripped = "".join(buf).strip()
                if current()["kind"] == "class" and stripped in (
                        "public", "private", "protected"):
                    buf = []
                    buf_start = i + 1
                elif (current()["kind"] == "class" and stripped and
                      "(" not in stripped and "=" not in stripped and
                      not re.search(r"\b(class|struct|union|enum)\b",
                                    stripped)):
                    is_bitfield = True
                    buf.append(c)
                else:
                    buf.append(c)
        else:
            buf.append(c)
        i += 1
    return classes


def check_det004(path: str, text: str):
    for cls in parse_classes(text):
        if cls.kind == "union" or cls.has_ctor:
            continue
        for m in cls.members:
            if (m.is_static or m.is_const or m.is_reference or
                    m.is_bitfield or m.has_init):
                continue
            if m.is_scalar or m.is_pointer:
                what = "scalar" if m.is_scalar else "pointer"
                yield Finding(
                    path, m.line, "DET-004",
                    f"{what} member '{cls.name}::{m.name}' of an "
                    "aggregate has no initializer (indeterminate "
                    "reads are a nondeterminism hazard); add '= ...' "
                    "or '{}'")


def check_ff002(path: str, text: str):
    """Per-cycle stall counters must be bulk-credited. Event-driven
    bulk adds (x += span) are exempt: only ++x / x++ / x += 1 count
    as per-cycle, because only those diverge when quiescent cycles
    are jumped instead of ticked."""
    credit_spans = []
    credited = set()
    for m in CREDIT_DEF.finditer(text):
        depth = 1
        j = m.end()
        n = len(text)
        while j < n and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        credit_spans.append((m.start(), j))
        credited.update(IDENT.findall(text[m.end():j]))

    def in_credit(pos):
        return any(a <= pos < b for a, b in credit_spans)

    reported = set()
    for pattern in INC_PATTERNS:
        for m in pattern.finditer(text):
            name = m.group(1)
            if not STALL_NAME.match(name) or in_credit(m.start()):
                continue
            if name in credited or name in reported:
                continue
            reported.add(name)
            if credit_spans:
                why = ("is never replayed in this file's "
                       "creditSkippedCycles() body")
            else:
                why = ("but this file defines no "
                       "creditSkippedCycles() to replay it")
            yield Finding(
                path, line_of(text, m.start()), "FF-002",
                f"stall counter '{name}' is incremented per-cycle "
                f"{why}; fast-forward would change its final value "
                "and break byte-identical stats "
                "(docs/performance.md)")


# --- tree context & cross-file rule (ERR-003) ----------------------


ERROR_CLASS_DECL = re.compile(
    r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?:\s*"
    r"(?:public\s+|private\s+|protected\s+)?SimError\b")
ERROR_CODE_DECL = re.compile(
    r"\bstatic\s+constexpr\s+int\s+code\s*=\s*(\d+)")
EXIT_CONSTANT = re.compile(
    r"\bconstexpr\s+int\s+(exit\w+)\s*=\s*(\d+)")


@dataclass
class TreeContext:
    #: SimError subclass name -> its exit code
    error_classes: dict = dataclass_field(default_factory=dict)
    #: named exit constants (exitCampaignPartial...) -> value
    exit_constants: dict = dataclass_field(default_factory=dict)
    #: names of double/float data members across src/ headers
    float_members: set = dataclass_field(default_factory=set)

    def known_codes(self):
        return (BUILTIN_EXIT_CODES |
                set(self.error_classes.values()) |
                set(self.exit_constants.values()))


def build_tree_context(records) -> TreeContext:
    ctx = TreeContext()
    by_path = {r.relpath.replace(os.sep, "/"): r for r in records}
    errors_hh = by_path.get(ERRORS_HH)
    if errors_hh is not None:
        text = errors_hh.stripped
        decls = list(ERROR_CLASS_DECL.finditer(text))
        for idx, m in enumerate(decls):
            seg_end = (decls[idx + 1].start()
                       if idx + 1 < len(decls) else len(text))
            cm = ERROR_CODE_DECL.search(text, m.end(), seg_end)
            if cm:
                ctx.error_classes[m.group(1)] = int(cm.group(1))
    for rec in records:
        for m in EXIT_CONSTANT.finditer(rec.stripped):
            ctx.exit_constants[m.group(1)] = int(m.group(2))
        if rec.relpath.endswith(HEADER_EXTENSIONS) and \
                rec.relpath.replace(os.sep, "/").startswith("src/"):
            for cls in parse_classes(rec.stripped):
                for mem in cls.members:
                    if mem.is_float:
                        ctx.float_members.add(mem.name)
    return ctx


def _split_top_commas(s: str):
    """Split on commas at paren/brace/bracket/angle depth 0, string-
    literal aware (string contents are intact in this text)."""
    parts, depth, start = [], 0, 0
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c in "\"'":
            q = c
            i += 1
            while i < n and s[i] != q:
                i += 2 if s[i] == "\\" else 1
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<" and i + 1 < n and s[i + 1] != "<" and \
                (i == 0 or s[i - 1] not in "<>"):
            pass  # angle depth is unreliable here; parens dominate
        elif c == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
        i += 1
    parts.append(s[start:])
    return parts


def _string_contents(s: str) -> str:
    return "".join(re.findall(r'"((?:[^"\\]|\\.)*)"', s))


def _doc_codes(doc: str):
    """Exit codes named by a documentation string; 'a..b' ranges are
    expanded."""
    codes = set()
    for m in re.finditer(r"\b(\d+)\s*\.\.\s*(\d+)\b", doc):
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo <= hi <= lo + 64:
            codes.update(range(lo, hi + 1))
    doc = re.sub(r"\b\d+\s*\.\.\s*\d+\b", " ", doc)
    codes.update(int(x) for x in re.findall(r"\b\d+\b", doc))
    return codes


def _match_paren(text: str, open_pos: int) -> int:
    """Index just past the parenthesis group opening at open_pos
    (string-aware)."""
    depth, i, n = 0, open_pos, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            q = c
            i += 1
            while i < n and text[i] != q:
                i += 2 if text[i] == "\\" else 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def parse_cli_verbs(text_keep: str):
    """(verb name -> (documented codes, line, resolvable)) from the
    cli_verbs.cc registry, resolving shared exit strings (exitBasic
    etc.) and literal concatenation."""
    named = {}
    for m in re.finditer(
            r"const\s+char\s*\*\s*(exit\w+)\s*=\s*"
            r"((?:\"(?:[^\"\\]|\\.)*\"\s*)+);", text_keep):
        named[m.group(1)] = _string_contents(m.group(2))
    verbs = {}
    for m in re.finditer(r"\bverbs\s*\.\s*push_back\s*\(",
                         text_keep):
        open_pos = m.end() - 1
        end = _match_paren(text_keep, open_pos)
        inner = text_keep[open_pos + 1:end - 1].strip()
        if inner.startswith("{") and inner.endswith("}"):
            inner = inner[1:-1]
        parts = _split_top_commas(inner)
        if len(parts) < 2:
            continue
        name = _string_contents(parts[0])
        if not name:
            continue
        last = parts[-1].strip()
        doc = _string_contents(last)
        resolvable = True
        if not doc:
            ident = last.split("+")[0].strip()
            if ident in named:
                doc = named[ident]
            else:
                resolvable = False
        verbs[name] = (_doc_codes(doc),
                       line_of(text_keep, m.start()), resolvable)
    return verbs


def _find_int_functions(text_keep: str):
    """name -> body for `int name(...) { ... }` definitions."""
    bodies = {}
    for m in re.finditer(r"\bint\s+(\w+)\s*\(", text_keep):
        after_params = _match_paren(text_keep, m.end() - 1)
        j = after_params
        n = len(text_keep)
        while j < n and text_keep[j].isspace():
            j += 1
        if j >= n or text_keep[j] != "{":
            continue
        depth = 0
        k = j
        while k < n:
            c = text_keep[k]
            if c in "\"'":
                q = c
                k += 1
                while k < n and text_keep[k] != q:
                    k += 2 if text_keep[k] == "\\" else 1
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        bodies[m.group(1)] = text_keep[j:k + 1]
    return bodies


def _split_ternary(expr: str):
    """('cond', 'then', 'else') for a top-level ?: or None."""
    depth = 0
    i, n = 0, len(expr)
    qpos = -1
    while i < n:
        c = expr[i]
        if c in "\"'":
            q = c
            i += 1
            while i < n and expr[i] != q:
                i += 2 if expr[i] == "\\" else 1
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "?" and depth == 0 and qpos < 0:
            qpos = i
        elif c == ":" and depth == 0 and qpos >= 0:
            if (i + 1 < n and expr[i + 1] == ":") or \
                    (i > 0 and expr[i - 1] == ":"):
                i += 1
                continue
            return (expr[:qpos], expr[qpos + 1:i], expr[i + 1:])
        i += 1
    return None


def _reachable_codes(expr: str, bodies, ctx: TreeContext,
                     depth: int = 0):
    """Exit codes statically resolvable from a `return` expression:
    integer literals, ?: arms, named exit constants and one-level
    local helper expansion. Unresolvable expressions contribute
    nothing — the check under-approximates rather than guessing."""
    expr = expr.strip()
    if re.fullmatch(r"\d+", expr):
        return {int(expr)}
    tern = _split_ternary(expr)
    if tern is not None:
        return (_reachable_codes(tern[1], bodies, ctx, depth) |
                _reachable_codes(tern[2], bodies, ctx, depth))
    m = re.fullmatch(r"[\w:]*?(\w+)", expr)
    if m and m.group(1) in ctx.exit_constants:
        return {ctx.exit_constants[m.group(1)]}
    m = re.fullmatch(r"(?:[\w:]+::)?(\w+)\s*\(.*\)", expr,
                     re.DOTALL)
    if m:
        callee = m.group(1)
        if callee in bodies and depth < 2:
            return _body_codes(bodies[callee], bodies, ctx,
                               depth + 1)
    return set()


def _body_codes(body: str, bodies, ctx: TreeContext,
                depth: int = 0):
    codes = set()
    for m in re.finditer(r"\breturn\s+([^;]+);", body):
        codes |= _reachable_codes(m.group(1), bodies, ctx, depth)
    for m in RAISE_ERROR.finditer(body):
        code = ctx.error_classes.get(m.group(1))
        if code is not None:
            codes.add(code)
    return codes


CLI_DISPATCH = re.compile(
    r"if\s*\(\s*cmd\s*==\s*\"([\w-]+)\"\s*\)\s*return\s+(\w+)\s*\(")


def check_err003(ctx: TreeContext, records):
    """Cross-check each CLI verb's documented exit codes against the
    codes statically reachable from its implementation."""
    by_path = {r.relpath.replace(os.sep, "/"): r for r in records}
    verbs_rec = by_path.get(CLI_VERBS_CC)
    main_rec = by_path.get(CLI_MAIN_CC)
    if verbs_rec is None or main_rec is None:
        return
    verbs = parse_cli_verbs(verbs_rec.stripped_keep)
    bodies = _find_int_functions(main_rec.stripped_keep)
    dispatch = dict(CLI_DISPATCH.findall(main_rec.stripped_keep))
    known = ctx.known_codes()
    for verb, (documented, line, resolvable) in sorted(
            verbs.items()):
        if not resolvable:
            yield Finding(
                CLI_VERBS_CC, line, "ERR-003",
                f"verb '{verb}': exit-code documentation is not a "
                "string literal or known shared exit string; the "
                "static cross-check cannot read it")
            continue
        for code in sorted(documented - known):
            yield Finding(
                CLI_VERBS_CC, line, "ERR-003",
                f"verb '{verb}' documents exit code {code}, which "
                "maps to no SimError class or named exit constant; "
                "fix the doc or extend the taxonomy")
        impl = dispatch.get(verb)
        if impl is None or impl not in bodies:
            continue  # inline verbs (help) have no single body
        reachable = _body_codes(bodies[impl], bodies, ctx)
        for code in sorted((reachable - BUILTIN_EXIT_CODES) -
                           documented):
            names = [n for n, c in ctx.error_classes.items()
                     if c == code]
            names += [n for n, c in ctx.exit_constants.items()
                      if c == code]
            via = f" ({'/'.join(sorted(set(names)))})" if names \
                else ""
            yield Finding(
                CLI_VERBS_CC, line, "ERR-003",
                f"verb '{verb}' can exit with code {code}{via} but "
                "its documented exit codes omit it; scripted callers "
                "rely on this list")
    for verb in sorted(set(dispatch) - set(verbs)):
        rec_line = line_of(
            main_rec.stripped_keep,
            main_rec.stripped_keep.find(f'"{verb}"'))
        yield Finding(
            CLI_MAIN_CC, rec_line, "ERR-003",
            f"verb '{verb}' is dispatched in the CLI but has no "
            f"entry in the verb registry ({CLI_VERBS_CC}); its exit "
            "codes are undocumented")


# --- scoping --------------------------------------------------------


def rule_applies(rule: str, relpath: str) -> bool:
    p = relpath.replace(os.sep, "/")
    is_header = p.endswith(HEADER_EXTENSIONS)
    if rule == "DET-001":
        return p.startswith(DET001_DIRS)
    if rule == "DET-002":
        return p not in DET002_WHITELIST
    if rule == "DET-003":
        return p.startswith(DET003_PREFIXES)
    if rule == "DET-004":
        return p.startswith(DET004_PREFIXES) and is_header
    if rule == "FF-002":
        return p.startswith(FF_DIRS) and not is_header
    if rule == "ERR-001":
        return p.startswith(ERR001_SCOPE) and \
            p not in ERR001_WHITELIST
    if rule == "STAT-001":
        return p.startswith(STAT001_PREFIXES) and \
            p not in STAT001_WHITELIST
    return False


# --- file records & tree scan ---------------------------------------


@dataclass
class FileRecord:
    relpath: str
    allowed: dict       # scan_allowed() of the source
    stripped: str       # comments+strings blanked, directives blanked
    stripped_keep: str  # comments blanked, strings kept


def load_record(root: str, relpath: str) -> FileRecord | None:
    full = os.path.join(root, relpath)
    try:
        with open(full, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print(f"detlint: cannot read {relpath}: {e}",
              file=sys.stderr)
        return None
    raw = raw.replace("\r\n", "\n")
    stripped = strip_preprocessor(strip_comments_and_strings(raw))
    stripped_keep = strip_preprocessor(
        strip_comments_and_strings(raw, keep_strings=True))
    return FileRecord(relpath=relpath, allowed=scan_allowed(raw),
                      stripped=stripped,
                      stripped_keep=stripped_keep)


def check_record(rec: FileRecord, ctx: TreeContext):
    """All per-file rules for one record (unfiltered by allow()
    directives; the caller filters)."""
    relpath = rec.relpath
    findings = []
    if rule_applies("DET-001", relpath):
        findings.extend(check_det001(relpath, rec.stripped))
    if rule_applies("DET-002", relpath):
        findings.extend(check_det002(relpath, rec.stripped))
    if rule_applies("DET-003", relpath):
        findings.extend(check_det003(relpath, rec.stripped))
    if rule_applies("ERR-001", relpath):
        findings.extend(check_err001(relpath, rec.stripped))
    if rule_applies("STAT-001", relpath):
        findings.extend(check_stat001(relpath, rec.stripped,
                                      ctx.float_members))
    if rule_applies("FF-002", relpath):
        findings.extend(check_ff002(relpath, rec.stripped))
    if rule_applies("DET-004", relpath):
        findings.extend(check_det004(relpath, rec.stripped))
    return findings


def scan_tree(root: str, relpaths):
    """Load every file, run per-file rules, then the cross-file
    rule. Returns the findings, filtered through allow() directives
    and sorted."""
    records = []
    for rp in relpaths:
        rec = load_record(root, rp)
        if rec is not None:
            records.append(rec)
    ctx = build_tree_context(records)
    by_path = {r.relpath.replace(os.sep, "/"): r for r in records}

    findings = []
    for rec in records:
        findings.extend(check_record(rec, ctx))
    findings.extend(check_err003(ctx, records))

    def allowed(f: Finding) -> bool:
        rec = by_path.get(f.path.replace(os.sep, "/"))
        rules = rec.allowed.get(f.line) if rec is not None else None
        return rules is not None and (not rules or f.rule in rules)

    findings = [f for f in findings if not allowed(f)]
    findings.sort(key=Finding.sort_key)
    return findings


def check_file(root: str, relpath: str):
    """Single-file convenience entry point (per-file rules only;
    the cross-file rule needs scan_tree)."""
    return scan_tree(root, [relpath])


def discover_files(root: str):
    out = []
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            # Never descend into build or fixture trees.
            dirnames[:] = [d for d in dirnames
                           if d not in ("build", "fixtures",
                                        "__pycache__")]
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    out.append(os.path.relpath(
                        os.path.join(dirpath, fn), root))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="detlint",
        description="cross-layer contract checker for soefair "
                    "(determinism, fast-forward, error-taxonomy, "
                    "stats)")
    ap.add_argument("files", nargs="*",
                    help="files to check (default: the whole tree; "
                         "the cross-file rule needs its anchor files "
                         "in the set)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up "
                         "from this script)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, desc in RULES.items():
            print(f"{rid}  {desc}")
        return 0

    root = args.root or os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(root):
        print(f"detlint: root '{root}' is not a directory",
              file=sys.stderr)
        return 2

    if args.files:
        relpaths = [os.path.relpath(os.path.abspath(f), root)
                    for f in args.files]
    else:
        relpaths = discover_files(root)
    if not relpaths:
        # A gate that scans nothing passes vacuously; a wrong --root
        # must not look like a clean tree.
        print(f"detlint: no C++ files under '{root}' "
              f"({', '.join(SCAN_DIRS)})", file=sys.stderr)
        return 2

    findings = scan_tree(root, relpaths)
    if findings:
        for f in findings:
            print(f.format(), file=sys.stderr)
        print(f"detlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"detlint: clean ({len(relpaths)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
