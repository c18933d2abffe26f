#!/usr/bin/env python3
"""detlint/soelint - cross-layer contract checker for soefair.

Enforces the simulator's load-bearing contracts as named, baselined
rules (see docs/correctness.md, "soelint rule families"):

Determinism & concurrency (PR "detlint"):
  DET-001  no wall-clock / rand() / locale / PID-dependent values in
           model code (src/{sim,cpu,mem,soe,workload}).
  DET-002  no std::getenv outside the single whitelisted accessor.
  DET-003  no unordered containers or pointer-keyed ordered containers
           in code that feeds statistics::, payload codecs or CSV.
  DET-004  no uninitialized scalar/pointer members in aggregate
           structs declared in src/ headers.
  CONC-001 in files opted in with `// detlint: conc-optin`, every
           mutable data member must carry a capability annotation
           (SOE_GUARDED_BY / SOE_PT_GUARDED_BY / SOE_THREAD_OWNED).

Fast-forward contract (docs/performance.md):
  FF-001   every class declaring tick() in src/cpu, src/mem, src/soe
           must also declare nextWakeTick(): a ticking component with
           no wake horizon silently breaks quiescent-run jumping.
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
  ERR-002  every SimError subclass in src/sim/errors.hh must have an
           exitCode() return and a kind-name case in
           src/sim/errors.cc, and every raiseError<E> in the tree
           must name a declared SimError class.
  ERR-003  every CLI verb's documented exit codes
           (src/harness/cli_verbs.cc) must cover the codes statically
           reachable from its implementation in tools/soefair_cli.cc,
           and must only use codes from the known taxonomy.

Stats determinism:
  STAT-001 payload/CSV-feeding code must route floating point through
           the statfmt precision codec (src/stats/statfmt.hh): no raw
           operator<< of a double/float and no ad-hoc setprecision.
  STAT-002 each statistics counter (parent, "name", "desc") is
           registered at most once per (parent, name) in a file.

PDES ownership manifest:
  OWN-001  every mutable class in src/cpu, src/mem, src/soe and
           src/harness/system.* must carry a class-level
           SOE_THREAD_OWNED(domain) sharding domain
           (core_lp | shared | supervisor | value | config).
  OWN-002  the `todo` placeholder domain (written by --fix) must not
           survive into the tree.
  `--emit-ownership PATH` writes the machine-readable manifest the
  PDES decomposition consumes (see docs/correctness.md for schema).

Backends
--------
The default backend is a dependency-free token analysis: comments and
string literals are stripped (line-preserving, CRLF- and raw-string-
literal-aware), then rule matchers run over the token text; member
rules use a brace-tracking class parser. When the `clang` Python
package (libclang) is importable, the member-level rules are
additionally cross-checked on the real AST via `--backend libclang`.

Cross-file rules (ERR-002/ERR-003, the STAT-001 float registry) run
on a tree context built from the scanned file set; they anchor on the
canonical paths src/sim/errors.{hh,cc}, src/harness/cli_verbs.cc and
tools/soefair_cli.cc and are skipped when those files are not part of
the scan (e.g. single-file invocations).

Suppressions
------------
  // detlint: allow(ERR-001)       suppress rule(s) on this line
  // NOLINT(DET-004)               same, clang-tidy spelling
  // detlint: skip-file            exempt the whole file
  // detlint: conc-optin           opt the file into CONC-001

Autofix
-------
`--fix` rewrites mechanical findings in place: DET-004 member
initializers, and missing SOE_THREAD_OWNED tags (OWN-001 / CONC-001)
with the `todo` placeholder domain, which OWN-002 keeps flagging
until a human picks the real domain. Fixing is idempotent.

Exit status: 0 clean (or all findings baselined), 1 new findings,
2 usage/setup error.
"""

from __future__ import annotations

import argparse
import json
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
    "CONC-001": "mutable members need capability/ownership "
                "annotations in opted-in files",
    "FF-001": "ticking classes must declare nextWakeTick()",
    "FF-002": "per-cycle stall counters must be bulk-credited in "
              "creditSkippedCycles()",
    "ERR-001": "no naked exit/abort/terminate or raw throw outside "
               "whitelisted sites",
    "ERR-002": "every SimError class maps to an exit code; every "
               "raiseError<E> names a declared class",
    "ERR-003": "CLI verb exit-code docs cross-check against "
               "statically reachable codes",
    "STAT-001": "floating point feeding payload/CSV goes through the "
                "statfmt codec",
    "STAT-002": "each statistics counter registered at most once",
    "OWN-001": "mutable classes in the PDES scope carry a "
               "SOE_THREAD_OWNED sharding domain",
    "OWN-002": "no `todo` placeholder ownership domains in the tree",
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
STAT002_PREFIXES = ("src/",)
OWN_DIRS = ("src/cpu/", "src/mem/", "src/soe/")
OWN_EXTRA = ("src/harness/system.hh",)

#: Sharding-domain vocabulary for the PDES ownership manifest.
OWN_DOMAINS = {
    "core_lp": "per-core logical process: state advanced only by the "
               "LP that owns the core (fetch/ROB/LSQ/L1/TLB...)",
    "shared": "bus/LLC-shared state crossed by multiple core LPs "
              "under the conservative lookahead window",
    "supervisor": "supervisor/harness state: job control, journals "
                  "and the sweep service",
    "value": "value type passed between owners by copy/move; no "
             "resident owner",
    "config": "set before the run starts, immutable while LPs run",
}
OWN_PLACEHOLDER = "todo"

#: Anchor files for the cross-file rules.
ERRORS_HH = "src/sim/errors.hh"
ERRORS_CC = "src/sim/errors.cc"
CLI_VERBS_CC = "src/harness/cli_verbs.cc"
CLI_MAIN_CC = "tools/soefair_cli.cc"
#: Exit codes any soefair process can produce regardless of verb
#: (ok / fatal / usage / panic); implicitly documented everywhere.
BUILTIN_EXIT_CODES = {0, 1, 2, 3}

ANNOTATION_MACROS = (
    "SOE_GUARDED_BY",
    "SOE_PT_GUARDED_BY",
    "SOE_THREAD_OWNED",
)

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

ALLOW_DIRECTIVE = re.compile(
    r"(?:detlint:\s*allow|NOLINT)\(([^)]*)\)")
SKIP_FILE_DIRECTIVE = "detlint: skip-file"
CONC_OPTIN_DIRECTIVE = "detlint: conc-optin"

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

STAT002_REGISTRATION = re.compile(
    r"\b\w+\s*\(\s*(&\s*[\w.>\-]+|this)\s*,\s*"
    r"\"([^\"]+)\"\s*,\s*\"")

RAISE_ERROR = re.compile(r"\braiseError\s*<\s*(\w+)\s*>")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str
    #: Optional autofix hint, e.g. ("init", " = 0") or
    #: ("class-tag",) / ("member-tag",). Not part of identity.
    fixhint: tuple | None = None

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)


@dataclass
class FileDirectives:
    skip_file: bool = False
    conc_optin: bool = False
    #: line number -> set of rule ids allowed (empty set = all)
    allowed: dict = dataclass_field(default_factory=dict)

    def is_allowed(self, rule: str, line: int) -> bool:
        if self.skip_file:
            return True
        rules = self.allowed.get(line)
        if rules is None:
            return False
        return not rules or rule in rules


def scan_directives(raw: str) -> FileDirectives:
    d = FileDirectives()
    if SKIP_FILE_DIRECTIVE in raw:
        d.skip_file = True
    if CONC_OPTIN_DIRECTIVE in raw:
        d.conc_optin = True
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = ALLOW_DIRECTIVE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")
                     if r.strip()}
            d.allowed.setdefault(lineno, set()).update(rules)
            # A comment-only directive line also covers the next
            # line, so justifications can precede the code they
            # annotate instead of trailing on one long line.
            if line.lstrip().startswith("//"):
                d.allowed.setdefault(lineno + 1, set()).update(rules)
    return d


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
                "src/harness or bench/perf_*")


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


def check_stat002(path: str, text_keep: str):
    """Duplicate (parent, "name") statistics registrations in one
    file: the stats tree rejects or shadows duplicates at runtime,
    and the dump would carry an ambiguous name either way."""
    seen = {}
    for m in STAT002_REGISTRATION.finditer(text_keep):
        parent = re.sub(r"\s+", "", m.group(1))
        key = (parent, m.group(2))
        line = line_of(text_keep, m.start())
        if key in seen:
            yield Finding(
                path, line, "STAT-002",
                f"statistics name '{m.group(2)}' registered twice "
                f"under parent '{parent}' (first at line "
                f"{seen[key]}); every counter must be registered "
                "exactly once")
        else:
            seen[key] = line


# --- member parser (DET-004 / CONC-001 / FF-001 / OWN) --------------


@dataclass
class Member:
    name: str
    line: int
    chunk: str
    has_init: bool
    is_scalar: bool
    is_pointer: bool
    is_static: bool
    is_const: bool
    is_reference: bool
    is_bitfield: bool
    has_annotation: bool
    is_float: bool = False
    is_array: bool = False


@dataclass
class ClassInfo:
    name: str
    kind: str  # struct | class | union
    line: int            # line of the opening '{'
    head_line: int = 0   # line where the class head chunk starts
    has_ctor: bool = False
    members: list = dataclass_field(default_factory=list)
    methods: list = dataclass_field(default_factory=list)
    parent: "ClassInfo | None" = None
    domain: str | None = None  # class-level SOE_THREAD_OWNED domain

    def qualified_name(self) -> str:
        parts = []
        node = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "::".join(reversed(parts))

    def effective_domain(self):
        """(domain, inherited) walking up enclosing classes."""
        node = self
        inherited = False
        while node is not None:
            if node.domain is not None:
                return node.domain, inherited
            node = node.parent
            inherited = True
        return None, False

    def mutable_members(self):
        return [m for m in self.members
                if not m.is_static and not m.is_const]


_ANN_MARKER = {
    "SOE_GUARDED_BY": "__DETLINT_ANN_GUARDED__",
    "SOE_PT_GUARDED_BY": "__DETLINT_ANN_PTGUARDED__",
}
_ANN_OWNED_PREFIX = "__DETLINT_ANN_OWNED_"
_ANN_OWNED_SUFFIX = "_DOM__"
_ANN_OWNED_RE = re.compile(
    re.escape(_ANN_OWNED_PREFIX) + r"(\w+?)" +
    re.escape(_ANN_OWNED_SUFFIX))
_ANN_CAPABILITY_MARKS = tuple(_ANN_MARKER.values()) + (
    _ANN_OWNED_PREFIX,)


def _mask_annotations(text: str) -> str:
    """Replace annotation macros (and their parenthesized argument)
    with paren-free marker tokens, so '(' detection in the member
    parser is not confused. SOE_THREAD_OWNED keeps its domain inside
    the marker (__DETLINT_ANN_OWNED_<domain>_DOM__) so class-level
    ownership extraction still sees it. Newlines inside a masked span
    are kept so line numbers stay stable."""
    def make_repl(marker):
        def repl(m):
            return marker + "\n" * m.group(0).count("\n")
        return repl

    def owned_repl(m):
        arg = re.sub(r"\W+", "_", m.group(1).strip()).strip("_")
        marker = (_ANN_OWNED_PREFIX + (arg or "none") +
                  _ANN_OWNED_SUFFIX)
        return marker + "\n" * m.group(0).count("\n")

    text = re.sub(r"\bSOE_THREAD_OWNED\s*\(([^()]*)\)",
                  owned_repl, text)
    for macro, marker in _ANN_MARKER.items():
        text = re.sub(r"\b" + macro + r"\s*\([^()]*\)",
                      make_repl(marker), text)
    # Mask remaining SOE_* attribute macros (SOE_REQUIRES etc.) the
    # same way so their parens don't look like function declarators.
    text = re.sub(r"\bSOE_[A-Z_]+\s*\([^()]*\)",
                  make_repl("__DETLINT_ANN_OTHER__"), text)
    return text


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
    has_annotation = (any(m in s for m in _ANN_MARKER.values()) or
                      _ANN_OWNED_PREFIX in s)
    s_norm = _normalize_operators(s)
    parens = _top_level_positions(s_norm, "(")
    eqs = _top_level_positions(s_norm, "=")
    if parens and (not eqs or parens[0] < eqs[0]):
        before = s_norm[:parens[0]]
        before = re.sub(r"__DETLINT_ANN\w*", " ", before)
        ids = IDENT.findall(before)
        return ("function", ids[-1] if ids else "")
    is_static = bool(re.search(r"\b(static|constexpr|constinit)\b",
                               s_norm))
    # Type/qualifier inspection uses the part before the first '='.
    head = s_norm[:eqs[0]] if eqs else s_norm
    is_const = bool(re.search(r"\bconst\b", head))
    is_reference = "&" in head
    is_pointer = "*" in head
    is_array = bool(re.search(r"\[[^\]]*\]", head))
    has_init = bool(eqs) or had_brace_init
    # Name: last identifier of the declarator head, ignoring the
    # annotation markers and array brackets.
    head_clean = head
    head_clean = re.sub(r"__DETLINT_ANN\w*", " ", head_clean)
    head_clean = re.sub(r"\[[^\]]*\]", " ", head_clean)
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
        name=name, line=line, chunk=s, has_init=has_init,
        is_scalar=is_scalar, is_pointer=is_pointer,
        is_static=is_static, is_const=is_const,
        is_reference=is_reference, is_bitfield=is_bitfield,
        has_annotation=has_annotation, is_float=is_float,
        is_array=is_array))


def parse_classes(text: str):
    """Brace-tracking scan of (stripped, annotation-masked) C++
    yielding ClassInfo for every class/struct/union body, including
    nested ones. Records members, method names (declarations and
    in-class definitions), the enclosing class, the head-chunk line
    and any class-level SOE_THREAD_OWNED domain."""
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

    def enclosing_class():
        for scope in reversed(stack):
            if scope["kind"] == "class" and scope["cls"] is not None:
                return scope["cls"]
        return None

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
                elif kind == "function":
                    scope["cls"].methods.append(payload)
                    if payload == scope["cls"].name:
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
                    # Skip 'final' and masked attribute macros.
                    ids = [x for x in ids if x != "final" and
                           not x.startswith("__DETLINT_ANN")]
                    cname = ids[0] if ids else "<anonymous>"
                    dm = _ANN_OWNED_RE.search(chunk_norm)
                    cls = ClassInfo(cname, cm[-1].group(1),
                                    line_of(text, i),
                                    head_line=line_of(text,
                                                      buf_start),
                                    parent=enclosing_class(),
                                    domain=(dm.group(1) if dm
                                            else None))
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
                # constructor/method detection.
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


def _init_token_for(member: Member) -> str | None:
    """Autofix initializer for a DET-004 member, or None when the
    declaration is not mechanically fixable (arrays, multi-declarator
    chunks are left to a human)."""
    if member.is_array or "," in member.chunk:
        return None
    if member.is_pointer:
        return " = nullptr"
    if re.match(r"^\s*bool\b", member.chunk):
        return " = false"
    if member.is_float:
        return " = 0.0"
    return " = 0"


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
                    "or '{}'",
                    fixhint=(("init", _init_token_for(m))
                             if _init_token_for(m) else None))


def check_conc001(path: str, text: str):
    for cls in parse_classes(text):
        for m in cls.members:
            # References cannot be reseated; ownership is annotated
            # where the referent itself is declared.
            if (m.is_static or m.is_const or m.is_reference or
                    m.has_annotation):
                continue
            yield Finding(
                path, m.line, "CONC-001",
                f"mutable member '{cls.name}::{m.name}' lacks a "
                "capability/ownership annotation (SOE_GUARDED_BY / "
                "SOE_PT_GUARDED_BY / SOE_THREAD_OWNED); this file is "
                "conc-optin",
                fixhint=("member-tag",))


def check_ff001(path: str, text: str):
    """Ticking classes must declare a wake horizon: a tick() without
    nextWakeTick() means the fast-forward engine cannot know when the
    component needs to run again, so quiescent-run jumping would
    silently skip its work."""
    for cls in parse_classes(text):
        if "tick" in cls.methods and "nextWakeTick" not in cls.methods:
            yield Finding(
                path, cls.head_line, "FF-001",
                f"class '{cls.qualified_name()}' declares tick() but "
                "no nextWakeTick(); every ticking component must "
                "publish its wake horizon for the fast-forward "
                "engine (docs/performance.md)")


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


def _own_in_scope(relpath: str) -> bool:
    p = relpath.replace(os.sep, "/")
    return ((p.startswith(OWN_DIRS) or p in OWN_EXTRA) and
            p.endswith(HEADER_EXTENSIONS))


def _own_classes(text: str):
    """Classes the ownership manifest covers: anything mutable
    (>= 1 non-static, non-const data member). Unions are storage
    tricks, not LP state."""
    for cls in parse_classes(text):
        if cls.kind == "union":
            continue
        if not cls.mutable_members():
            continue
        yield cls


def check_own(path: str, text: str):
    for cls in _own_classes(text):
        domain, inherited = cls.effective_domain()
        if domain is None:
            yield Finding(
                path, cls.head_line, "OWN-001",
                f"mutable class '{cls.qualified_name()}' has no "
                "SOE_THREAD_OWNED(domain) sharding domain; the PDES "
                "ownership manifest needs one of: " +
                ", ".join(sorted(OWN_DOMAINS)),
                fixhint=("class-tag",))
        elif domain == OWN_PLACEHOLDER:
            yield Finding(
                path, cls.head_line, "OWN-002",
                f"class '{cls.qualified_name()}' carries the 'todo' "
                "placeholder domain"
                + (" (inherited)" if inherited else "") +
                "; replace it with the real sharding domain: " +
                ", ".join(sorted(OWN_DOMAINS)))
        elif domain not in OWN_DOMAINS:
            yield Finding(
                path, cls.head_line, "OWN-001",
                f"class '{cls.qualified_name()}' declares unknown "
                f"sharding domain '{domain}'; valid domains: " +
                ", ".join(sorted(OWN_DOMAINS)))


def ownership_manifest(records) -> dict:
    """Machine-readable sharding-domain map for the PDES
    decomposition (--emit-ownership). Covers every mutable class in
    the OWN scope, including ones still missing a domain (domain
    null) — the OWN-001 gate keeps those out of a green tree."""
    classes = []
    for rec in records:
        if not _own_in_scope(rec.relpath):
            continue
        for cls in _own_classes(rec.masked):
            domain, inherited = cls.effective_domain()
            classes.append({
                "class": cls.qualified_name(),
                "kind": cls.kind,
                "file": rec.relpath.replace(os.sep, "/"),
                "line": cls.head_line,
                "domain": domain,
                "inherited": inherited,
                "mutable_members": len(cls.mutable_members()),
            })
    classes.sort(key=lambda c: (c["file"], c["line"], c["class"]))
    return {
        "version": 1,
        "generator": "detlint --emit-ownership",
        "domains": OWN_DOMAINS,
        "classes": classes,
    }


# --- tree context & cross-file rules (ERR-002 / ERR-003) ------------


ERROR_CLASS_DECL = re.compile(
    r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?:\s*"
    r"(?:public\s+|private\s+|protected\s+)?SimError\b")
ERROR_CODE_DECL = re.compile(
    r"\bstatic\s+constexpr\s+int\s+code\s*=\s*(\d+)")
EXIT_CONSTANT = re.compile(
    r"\bconstexpr\s+int\s+(exit\w+)\s*=\s*(\d+)")


@dataclass
class TreeContext:
    #: SimError subclass name -> (exit code, line in errors.hh)
    error_classes: dict = dataclass_field(default_factory=dict)
    #: named exit constants (exitCampaignPartial...) -> value
    exit_constants: dict = dataclass_field(default_factory=dict)
    #: names of double/float data members across src/ headers
    float_members: set = dataclass_field(default_factory=set)

    def known_codes(self):
        return (BUILTIN_EXIT_CODES |
                {c for c, _ in self.error_classes.values()} |
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
            code = int(cm.group(1)) if cm else -1
            ctx.error_classes[m.group(1)] = (
                code, line_of(text, m.start()))
    for rec in records:
        for m in EXIT_CONSTANT.finditer(rec.stripped):
            ctx.exit_constants[m.group(1)] = int(m.group(2))
        if rec.relpath.endswith(HEADER_EXTENSIONS) and \
                rec.relpath.replace(os.sep, "/").startswith("src/"):
            for cls in parse_classes(rec.masked):
                for mem in cls.members:
                    if mem.is_float:
                        ctx.float_members.add(mem.name)
    return ctx


def check_err002(ctx: TreeContext, records):
    """Every SimError class maps to an exit code in errors.cc, and
    every raiseError<E> in the tree names a declared class."""
    by_path = {r.relpath.replace(os.sep, "/"): r for r in records}
    errors_cc = by_path.get(ERRORS_CC)
    if ctx.error_classes and errors_cc is not None:
        cc = errors_cc.stripped
        for name, (code, line) in sorted(ctx.error_classes.items()):
            if code < 0:
                yield Finding(
                    ERRORS_HH, line, "ERR-002",
                    f"SimError class '{name}' declares no "
                    "'static constexpr int code'; the exit-code "
                    "taxonomy needs one")
                continue
            if not re.search(r"\breturn\s+" + name + r"::code\b", cc):
                yield Finding(
                    ERRORS_HH, line, "ERR-002",
                    f"SimError class '{name}' has no exitCode() "
                    f"mapping ('return {name}::code;') in "
                    f"{ERRORS_CC}")
            if not re.search(r"\bcase\s+" + name + r"::code\b", cc):
                yield Finding(
                    ERRORS_HH, line, "ERR-002",
                    f"SimError class '{name}' has no kind-name "
                    f"mapping ('case {name}::code:') in {ERRORS_CC}; "
                    "the supervisor cannot classify its dead "
                    "children")
    if not ctx.error_classes:
        return
    for rec in records:
        for m in RAISE_ERROR.finditer(rec.stripped):
            name = m.group(1)
            if name in ctx.error_classes or not name[0].isupper():
                continue  # template params (E...) stay lowercase
            yield Finding(
                rec.relpath.replace(os.sep, "/"),
                line_of(rec.stripped, m.start()), "ERR-002",
                f"raiseError<{name}> names no SimError class "
                f"declared in {ERRORS_HH}; it would not land in the "
                "exit-code taxonomy")


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
    integer literals, ?: arms, named exit constants, one-level local
    helper expansion, and expectedExitCode() (the fault harness's
    SimError raw path). Unresolvable expressions contribute nothing —
    the check under-approximates rather than guessing."""
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
        if callee == "expectedExitCode":
            return {c for c, _ in ctx.error_classes.values()}
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
        info = ctx.error_classes.get(m.group(1))
        if info:
            codes.add(info[0])
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
            names = [n for n, (c, _) in ctx.error_classes.items()
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


# --- libclang backend (optional cross-check) ------------------------


def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


def check_file_libclang(root, relpath, compile_db, directives):
    """AST-based member checks (DET-004 / CONC-001). Best-effort:
    any libclang failure returns None so the caller falls back to
    the token backend."""
    try:
        import clang.cindex as ci
        index = ci.Index.create()
        args = ["-std=c++20", f"-I{os.path.join(root, 'src')}"]
        if compile_db:
            try:
                db = ci.CompilationDatabase.fromDirectory(compile_db)
                cmds = db.getCompileCommands(
                    os.path.join(root, relpath))
                if cmds:
                    args = [a for a in list(cmds[0].arguments)[1:-1]
                            if a != "-c" and not a.endswith(".cc")]
            except Exception:
                pass
        tu = index.parse(os.path.join(root, relpath), args=args)
        findings = []
        raw_lines = None

        def field_has_annotation(cursor):
            nonlocal raw_lines
            if raw_lines is None:
                with open(os.path.join(root, relpath),
                          encoding="utf-8",
                          errors="replace") as f:
                    raw_lines = f.read().splitlines()
            ln = cursor.location.line
            seg = " ".join(raw_lines[max(0, ln - 1):ln + 1])
            return any(m in seg for m in ANNOTATION_MACROS)

        def record_is_aggregate(cursor):
            import clang.cindex as cci
            for ch in cursor.get_children():
                if ch.kind in (cci.CursorKind.CONSTRUCTOR,
                               cci.CursorKind.DESTRUCTOR):
                    return False
            return True

        def walk(cursor):
            import clang.cindex as cci
            for ch in cursor.get_children():
                loc = ch.location
                if (loc.file and
                        os.path.abspath(str(loc.file)) ==
                        os.path.abspath(
                            os.path.join(root, relpath))):
                    if ch.kind in (cci.CursorKind.STRUCT_DECL,
                                   cci.CursorKind.CLASS_DECL) and \
                            ch.is_definition():
                        aggregate = record_is_aggregate(ch)
                        for f_ in ch.get_children():
                            if f_.kind != cci.CursorKind.FIELD_DECL:
                                continue
                            t = f_.type
                            scalarish = t.kind in (
                                cci.TypeKind.BOOL, cci.TypeKind.INT,
                                cci.TypeKind.UINT, cci.TypeKind.LONG,
                                cci.TypeKind.ULONG,
                                cci.TypeKind.LONGLONG,
                                cci.TypeKind.ULONGLONG,
                                cci.TypeKind.SHORT,
                                cci.TypeKind.USHORT,
                                cci.TypeKind.CHAR_S,
                                cci.TypeKind.UCHAR,
                                cci.TypeKind.FLOAT,
                                cci.TypeKind.DOUBLE,
                                cci.TypeKind.POINTER,
                                cci.TypeKind.ENUM,
                                cci.TypeKind.TYPEDEF,
                            )
                            has_init = any(
                                True for _ in f_.get_children())
                            if (aggregate and scalarish and
                                    not has_init and
                                    rule_applies("DET-004",
                                                 relpath,
                                                 directives)):
                                findings.append(Finding(
                                    relpath, f_.location.line,
                                    "DET-004",
                                    f"scalar member "
                                    f"'{ch.spelling}::{f_.spelling}'"
                                    " of an aggregate has no "
                                    "initializer (libclang)"))
                            if (directives.conc_optin and
                                    not field_has_annotation(f_)):
                                findings.append(Finding(
                                    relpath, f_.location.line,
                                    "CONC-001",
                                    f"mutable member "
                                    f"'{ch.spelling}::{f_.spelling}'"
                                    " lacks a capability/ownership "
                                    "annotation (libclang)"))
                walk(ch)

        walk(tu.cursor)
        return findings
    except Exception:
        return None


# --- scoping --------------------------------------------------------


def rule_applies(rule: str, relpath: str,
                 directives: FileDirectives | None = None) -> bool:
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
    if rule == "CONC-001":
        return directives is not None and directives.conc_optin
    if rule == "FF-001":
        return p.startswith(FF_DIRS) and is_header
    if rule == "FF-002":
        return p.startswith(FF_DIRS) and not is_header
    if rule == "ERR-001":
        return p.startswith(ERR001_SCOPE) and \
            p not in ERR001_WHITELIST
    if rule == "STAT-001":
        return p.startswith(STAT001_PREFIXES) and \
            p not in STAT001_WHITELIST
    if rule == "STAT-002":
        return p.startswith(STAT002_PREFIXES)
    if rule in ("OWN-001", "OWN-002"):
        return _own_in_scope(p)
    return False


# --- file records & tree scan ---------------------------------------


@dataclass
class FileRecord:
    relpath: str
    raw: str            # CRLF-normalized source
    directives: FileDirectives
    stripped: str       # comments+strings blanked, directives blanked
    stripped_keep: str  # comments blanked, strings kept
    masked: str         # stripped + annotation macros masked


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
    return FileRecord(relpath=relpath, raw=raw,
                      directives=scan_directives(raw),
                      stripped=stripped,
                      stripped_keep=stripped_keep,
                      masked=_mask_annotations(stripped))


def check_record(rec: FileRecord, root: str, backend: str,
                 compile_db, ctx: TreeContext):
    """All per-file rules for one record (unfiltered by allow()
    directives; the caller filters)."""
    relpath, directives = rec.relpath, rec.directives
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
    if rule_applies("STAT-002", relpath):
        findings.extend(check_stat002(relpath, rec.stripped_keep))
    if rule_applies("FF-001", relpath):
        findings.extend(check_ff001(relpath, rec.masked))
    if rule_applies("FF-002", relpath):
        findings.extend(check_ff002(relpath, rec.stripped))
    if rule_applies("OWN-001", relpath):
        findings.extend(check_own(relpath, rec.masked))

    member_findings = None
    if backend == "libclang":
        member_findings = check_file_libclang(
            root, relpath, compile_db, directives)
        if member_findings is None:
            print(f"detlint: libclang failed on {relpath}; "
                  "falling back to the token backend",
                  file=sys.stderr)
    if member_findings is None:
        member_findings = []
        if rule_applies("DET-004", relpath):
            member_findings.extend(check_det004(relpath, rec.masked))
        if rule_applies("CONC-001", relpath, directives):
            member_findings.extend(
                check_conc001(relpath, rec.masked))
    findings.extend(member_findings)
    return findings


def scan_tree(root: str, relpaths, backend: str, compile_db):
    """Load every file, run per-file rules, then the cross-file
    rules. Returns (findings, records); findings are filtered
    through skip-file/allow directives and sorted."""
    records = []
    for rp in relpaths:
        rec = load_record(root, rp)
        if rec is not None:
            records.append(rec)
    ctx = build_tree_context(records)
    by_path = {r.relpath.replace(os.sep, "/"): r for r in records}

    findings = []
    for rec in records:
        if rec.directives.skip_file:
            continue
        findings.extend(check_record(rec, root, backend,
                                     compile_db, ctx))
    findings.extend(check_err002(ctx, records))
    findings.extend(check_err003(ctx, records))

    def allowed(f: Finding) -> bool:
        rec = by_path.get(f.path.replace(os.sep, "/"))
        return rec is not None and \
            rec.directives.is_allowed(f.rule, f.line)

    findings = [f for f in findings if not allowed(f)]
    findings.sort(key=Finding.sort_key)
    return findings, records


def check_file(root: str, relpath: str, backend: str,
               compile_db):
    """Single-file convenience entry point (per-file rules only;
    cross-file rules need scan_tree)."""
    findings, _ = scan_tree(root, [relpath], backend, compile_db)
    return findings


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


# --- autofix (--fix) ------------------------------------------------


_CLASS_KEYWORD = re.compile(r"\b(class|struct)\b(?![^<]*>)")


def _fix_line(kind, payload, content: str) -> str | None:
    """Apply one fix to a line's content (no EOL); None = not
    fixable here."""
    if kind == "init":
        if "=" in content or ";" not in content:
            return None
        semi = content.find(";")
        return content[:semi] + payload + content[semi:]
    if kind == "member-tag":
        if "SOE_THREAD_OWNED" in content or \
                "SOE_GUARDED_BY" in content:
            return None
        tag = f" SOE_THREAD_OWNED({OWN_PLACEHOLDER})"
        if " = " in content:
            return content.replace(" = ", tag + " = ", 1)
        if ";" in content:
            semi = content.find(";")
            return content[:semi] + tag + content[semi:]
        return None
    if kind == "class-tag":
        if "SOE_THREAD_OWNED" in content:
            return None
        m = _CLASS_KEYWORD.search(content)
        if not m:
            return None
        return (content[:m.end()] +
                f" SOE_THREAD_OWNED({OWN_PLACEHOLDER})" +
                content[m.end():])
    return None


def apply_fixes(root: str, findings):
    """Rewrite mechanically fixable findings in place. Line endings
    of edited files are preserved. Returns (fixed, unfixable)."""
    fixed = unfixable = 0
    by_path = {}
    for f in findings:
        by_path.setdefault(f.path, []).append(f)
    for path, flist in sorted(by_path.items()):
        full = os.path.join(root, path)
        try:
            with open(full, encoding="utf-8", newline="") as fh:
                lines = fh.read().splitlines(keepends=True)
        except OSError:
            unfixable += len([f for f in flist if f.fixhint])
            continue
        changed = False
        # Bottom-up so earlier line numbers stay valid.
        for f in sorted(flist, key=lambda x: -x.line):
            if not f.fixhint:
                unfixable += 1
                continue
            kind, *rest = f.fixhint
            payload = rest[0] if rest else None
            # class-tag: the head line may be a `template <...>`
            # line; scan forward for the class keyword.
            target = None
            if kind == "class-tag":
                for ln in range(f.line, min(f.line + 5,
                                            len(lines) + 1)):
                    raw_line = lines[ln - 1]
                    content = raw_line.rstrip("\r\n")
                    if _CLASS_KEYWORD.search(content):
                        target = ln
                        break
            else:
                target = f.line
            if target is None or target > len(lines):
                unfixable += 1
                continue
            raw_line = lines[target - 1]
            eol = raw_line[len(raw_line.rstrip("\r\n")):]
            content = raw_line.rstrip("\r\n")
            new_content = _fix_line(kind, payload, content)
            if new_content is None:
                unfixable += 1
                continue
            lines[target - 1] = new_content + eol
            changed = True
            fixed += 1
        if changed:
            with open(full, "w", encoding="utf-8",
                      newline="") as fh:
                fh.write("".join(lines))
    return fixed, unfixable


# --- baseline & reports ---------------------------------------------


def load_baseline(path: str):
    entries = set()
    if not path or not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                entries.add(line)
    return entries


def write_json_report(path, root, backend, findings, new, fixed):
    report = {
        "tool": "detlint",
        "root": os.path.abspath(root),
        "backend": backend,
        "rules": RULES,
        "counts": {
            "total": len(findings),
            "new": len(new),
            "baseline_fixed": len(fixed),
        },
        "findings": [
            {"path": f.path.replace(os.sep, "/"), "line": f.line,
             "rule": f.rule, "message": f.message}
            for f in findings
        ],
        "new": list(new),
        "baseline_fixed": list(fixed),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def write_step_summary(new, fixed):
    """Baseline-drift diff for the CI job summary
    ($GITHUB_STEP_SUMMARY), so a failing static-analysis job shows
    the drift without digging through logs."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or (not new and not fixed):
        return
    try:
        with open(path, "a", encoding="utf-8") as f:
            f.write("## detlint baseline drift\n\n")
            if new:
                f.write(f"**{len(new)} new finding(s)** not in the "
                        "baseline:\n\n```diff\n")
                for line in new:
                    f.write(f"+ {line}\n")
                f.write("```\n\n")
            if fixed:
                f.write(f"**{len(fixed)} baseline entr(y/ies) no "
                        "longer reported** (remove them):\n\n"
                        "```diff\n")
                for line in fixed:
                    f.write(f"- {line}\n")
                f.write("```\n\n")
    except OSError:
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="detlint",
        description="cross-layer contract checker for soefair "
                    "(determinism, fast-forward, error-taxonomy, "
                    "stats, PDES ownership)")
    ap.add_argument("files", nargs="*",
                    help="files to check (default: the whole tree; "
                         "cross-file rules need their anchor files "
                         "in the set)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up "
                         "from this script)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file of grandfathered findings")
    ap.add_argument("--backend",
                    choices=("auto", "text", "libclang"),
                    default="auto",
                    help="analysis backend (auto prefers libclang "
                         "when importable)")
    ap.add_argument("--compile-db", default=None,
                    help="directory holding compile_commands.json "
                         "(libclang backend)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with current findings")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="write findings as machine-readable JSON")
    ap.add_argument("--emit-ownership", default=None, metavar="PATH",
                    help="write the PDES ownership manifest "
                         "(sharding domain per mutable class)")
    ap.add_argument("--fix", action="store_true",
                    help="rewrite mechanically fixable findings in "
                         "place (DET-004 initializers, missing "
                         "SOE_THREAD_OWNED tags)")
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

    backend = args.backend
    if backend == "auto":
        backend = "libclang" if libclang_available() else "text"
    if backend == "libclang" and not libclang_available():
        print("detlint: libclang backend requested but the 'clang' "
              "python package is not importable", file=sys.stderr)
        return 2

    if args.files:
        relpaths = [os.path.relpath(os.path.abspath(f), root)
                    for f in args.files]
    else:
        relpaths = discover_files(root)

    findings, records = scan_tree(root, relpaths, backend,
                                  args.compile_db)

    if args.emit_ownership:
        manifest = ownership_manifest(records)
        os.makedirs(os.path.dirname(
            os.path.abspath(args.emit_ownership)), exist_ok=True)
        with open(args.emit_ownership, "w",
                  encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"detlint: ownership manifest with "
              f"{len(manifest['classes'])} class(es) -> "
              f"{args.emit_ownership}")

    if args.fix:
        fixed, unfixable = apply_fixes(root, findings)
        print(f"detlint: fixed {fixed} finding(s); "
              f"{unfixable} not auto-fixable")
        return 0

    formatted = [f.format() for f in findings]

    if args.update_baseline:
        if not args.baseline:
            print("detlint: --update-baseline needs --baseline",
                  file=sys.stderr)
            return 2
        with open(args.baseline, "w", encoding="utf-8") as f:
            f.write("# detlint baseline: grandfathered findings, one "
                    "per line.\n# Fix findings rather than adding "
                    "here; remove lines as they are fixed.\n")
            for line in formatted:
                f.write(line + "\n")
        print(f"detlint: baseline rewritten with {len(formatted)} "
              f"finding(s)")
        return 0

    baseline = load_baseline(args.baseline)
    new = [line for line in formatted if line not in baseline]
    fixed = sorted(baseline - set(formatted))

    if args.json:
        write_json_report(args.json, root, backend, findings, new,
                          fixed)
    write_step_summary(new, fixed)

    if fixed:
        print("detlint: baseline entries no longer reported "
              "(consider removing):")
        for line in fixed:
            print(f"  {line}")
    if new:
        print("detlint: NEW findings not in the baseline:",
              file=sys.stderr)
        for line in new:
            print(line, file=sys.stderr)
        print("detlint: fix them or (sparingly) baseline them",
              file=sys.stderr)
        return 1
    print(f"detlint[{backend}]: clean ({len(formatted)} finding(s), "
          f"all baselined; {len(relpaths)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
