#!/bin/sh
# The determinism and exit-code bans, checked on the built objects.
#
#   tools/symbol_check.sh NM OBJECT_LIST SOURCE...
#
# OBJECT_LIST names one object file per line. A line may instead read
# "<checked-as path><TAB><object>", which checks the object under the
# rules of another path (the self-test's bad object poses as a
# harness object that way). Every object's symbols are listed with
# `NM -C -A` and matched against the table below, so a banned call
# made through an inline header or a macro is caught too.
#
# GCC treats exit, abort, _Exit and quick_exit as builtins, and the
# library's objects are link-time-optimisation IR in optimized
# builds: nm lists none of those four calls there. The `source` rows
# therefore also grep each SOURCE (a file, or a directory searched for
# *.cc and *.hh) for them, and for a raw `throw`.
#
# Exit status: 0 clean; 1 findings; 2 setup error: no object or no
# source, nm fails, an object lists no defined symbol, or nm lists an
# LTO object's ELF symbols (`__gnu_lto_slim`) instead of its IR, as an
# nm without GCC's LTO plugin does. So the check never passes on
# nothing.

set -eu

if [ $# -lt 3 ]; then
    echo "usage: $0 NM OBJECT_LIST SOURCE..." >&2
    exit 2
fi
nm=$1
list=$2
shift 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One row per ban: kind, label, scope (an ERE on the object's path,
# or the source's) and pattern (an ERE on a demangled symbol name,
# or a source line with comments and literals removed); a source row
# may add a fifth field, a pattern that excuses the line (a bare
# `throw;` rethrows). `allow` rows are the only exceptions: a match
# of their scope and pattern is never a finding. Fields are separated
# by tabs.
cat >"$tmp/table" <<'EOF'
deny	DET-001:clock	/(soefair|soefair_cli)\.dir/|/(bench|examples)/CMakeFiles/	^(time|clock|clock_gettime|gettimeofday|localtime|localtime_r|gmtime|gmtime_r|strftime|mktime|timespec_get)$|^std::chrono::(_V2::)?(system_clock|steady_clock|high_resolution_clock)::now\(\)$
deny	DET-001:prng	/(soefair|soefair_cli)\.dir/|/(bench|examples)/CMakeFiles/	^(rand|srand|random|srandom|drand48|lrand48|mrand48|rand_r)$|^std::random_device::
deny	DET-001:pid	/(soefair|soefair_cli)\.dir/|/(bench|examples)/CMakeFiles/	^(getpid|gettid|pthread_self)$
deny	DET-001:locale	/(soefair|soefair_cli)\.dir/|/(bench|examples)/CMakeFiles/	^(setlocale|localeconv)$|^std::locale::global\(
deny	DET-002	.	^(secure_)?getenv$
deny	DET-003:unordered	/soefair\.dir/(stats|harness)/|/soefair\.dir/core/metrics\.cc\.o$|/bench/CMakeFiles/	std::_Hashtable<|std::__detail::_Prime_rehash_policy
deny	DET-003:pointer-key	/soefair\.dir/(stats|harness)/|/soefair\.dir/core/metrics\.cc\.o$|/bench/CMakeFiles/	std::_Rb_tree(_node)?<[^<>,]*\*[,>]|std::_Rb_tree_node<std::pair<[^<>,]*\* const,
deny	ERR-001	/(soefair|soefair_cli)\.dir/|/(bench|examples)/CMakeFiles/	^(exit|_exit|_Exit|quick_exit|abort)$|^std::terminate\(\)$
source	ERR-001	\.(cc|hh)$	(^|[^.>:_A-Za-z0-9])((std)?::)?(exit|_Exit|quick_exit|abort) *\(
source	ERR-001	\.(cc|hh)$	(^|[^A-Za-z0-9_])throw([^A-Za-z0-9_]|$)	(^|[^A-Za-z0-9_])throw *;
allow	DET-002	/soefair\.dir/harness/env\.cc\.o$	^getenv$
allow	ERR-001	/soefair\.dir/harness/supervisor\.cc\.o$	^_exit$
allow	DET-001:clock	/soefair\.dir/harness/supervisor\.cc\.o$	^std::chrono::_V2::steady_clock::now\(\)$
allow	ERR-001	/soefair\.dir/workload/inst_stream\.cc\.o$	^std::terminate\(\)$
allow	ERR-001	/sim/(logging\.hh|errors\.hh|invariant\.cc)$	throw
EOF

# The objects, then the sources, each once per line.
: >"$tmp/objects"
while IFS= read -r line || [ -n "$line" ]; do
    [ -n "$line" ] && printf '%s\n' "${line#*	}" >>"$tmp/objects"
done <"$list"
: >"$tmp/sources"
for s in "$@"; do
    if [ -d "$s" ]; then
        find "$s" -type f \( -name '*.cc' -o -name '*.hh' \) | sort \
            >>"$tmp/sources"
    elif [ -f "$s" ]; then
        printf '%s\n' "$s" >>"$tmp/sources"
    else
        echo "symbol check: no source file or directory '$s'" >&2
        exit 2
    fi
done
if [ ! -s "$tmp/sources" ]; then
    echo "symbol check: no *.cc or *.hh under $*" >&2
    exit 2
fi

if [ -s "$tmp/objects" ]; then
    if ! tr '\n' '\0' <"$tmp/objects" |
            xargs -0 "$nm" -C -A >"$tmp/symbols"; then
        echo "symbol check: $nm failed" >&2
        exit 2
    fi
else
    : >"$tmp/symbols"
fi

awk -F '	' -v table="$tmp/table" -v list="$list" \
    -v symbols="$tmp/symbols" '
function finding(label, where, what,    key) {
    # A used container alone emits a dozen template symbols: one line
    # per rule and place for those.
    key = what ~ /</ ? label SUBSEP where : label SUBSEP where SUBSEP what
    if (!(key in shown))
        print "symbol check: " label ": " where ": " what
    shown[key] = 1
    fired[label] = 1
    ++findings
}
function allowed(where, what,    a) {
    for (a = 1; a <= nallow; ++a) {
        if (where ~ allowScope[a] && what ~ allowPattern[a])
            return 1
    }
    return 0
}
FILENAME == table {
    if ($1 == "allow") {
        ++nallow
        allowScope[nallow] = $3
        allowPattern[nallow] = $4
    } else {
        ++nrule
        kind[nrule] = $1
        label[nrule] = $2
        scope[nrule] = $3
        pattern[nrule] = $4
        unless[nrule] = $5
    }
    next
}
FILENAME == list {
    if ($0 == "")
        next
    object = NF > 1 ? $2 : $1
    # CMake names objects ".../soefair.dir/./sim/x.cc.o".
    where = $1
    while (sub(/\/\.\//, "/", where))
        ;
    checkedAs[object] = where
    ++nobject
    objects[nobject] = object
    next
}
FILENAME == symbols {
    i = index($0, ":")
    object = substr($0, 1, i - 1)
    rest = substr($0, i + 1)
    if (!(object in checkedAs) ||
        !match(rest, /^[0-9a-fA-F]* *[A-Za-z] /))
        next
    type = substr(rest, RLENGTH - 1, 1)
    name = substr(rest, RLENGTH + 1)
    if (name == "__gnu_lto_slim")
        rawLto[object] = 1
    else if (type != "U" && type != "w" && type != "v")
        ++defined[object]
    where = checkedAs[object]
    for (r = 1; r <= nrule; ++r) {
        if (kind[r] == "deny" && where ~ scope[r] &&
            name ~ pattern[r] && !allowed(where, name))
            finding(label[r], where, name)
    }
    next
}
{
    # A source line, without comments and literals.
    ++sourceLines[FILENAME]
    line = $0
    sub(/\/\/.*/, "", line)
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    gsub(/'\''([^'\''\\]|\\.)*'\''/, "'\'''\''", line)
    if (line ~ /^[ \t]*(\*|\/\*)/)
        next
    for (r = 1; r <= nrule; ++r) {
        if (kind[r] == "source" && FILENAME ~ scope[r] &&
            line ~ pattern[r] &&
            (unless[r] == "" || line !~ unless[r]) &&
            !allowed(FILENAME, line))
            finding(label[r], FILENAME ":" FNR, line)
    }
}
END {
    if (nobject == 0) {
        print "symbol check: " list " names no object"
        exit 2
    }
    for (o = 1; o <= nobject; ++o) {
        if (rawLto[objects[o]]) {
            print "symbol check: nm lists the ELF symbols of " \
                  objects[o] ", not its LTO IR (no LTO plugin?)"
            exit 2
        }
        if (!defined[objects[o]]) {
            print "symbol check: " objects[o] " lists no defined symbol"
            exit 2
        }
    }
    nsource = 0
    for (s in sourceLines)
        ++nsource
    if (findings == 0) {
        print "symbol check: clean (" nobject " objects, " nsource \
              " sources)"
        exit 0
    }
    summary = ""
    for (r = 1; r <= nrule; ++r) {
        if (fired[label[r]] && !(label[r] in said)) {
            summary = summary " " label[r]
            said[label[r]] = 1
        }
    }
    print "symbol check: " findings " finding(s); rules:" summary "."
    exit 1
}
' "$tmp/table" "$list" "$tmp/symbols" $(cat "$tmp/sources")
