#!/usr/bin/env python3
"""Self-test for detlint (tools/detlint/detlint.py).

Each rule has a known-bad fixture and a clean twin in
tools/detlint/fixtures/. The bad fixtures mark every seeded violation
with a ``// BAD`` comment; the golden expectation is derived from
those markers, so fixture and expectation cannot drift apart. The
fixtures are copied into a temporary tree at paths inside each rule's
scope (detlint scoping is path-based), then scanned.

Run directly (``python3 tools/detlint/selftest.py``) or via ctest
(``detlint_selftest``).
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import detlint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

#: fixture file -> (destination inside the temp tree, rule the BAD
#: markers assert). Destinations sit inside the rule's path scope.
PLACEMENTS = {
    "det001_bad.cc": ("src/sim/det001_bad.cc", "DET-001"),
    "det001_clean.cc": ("src/sim/det001_clean.cc", "DET-001"),
    "det002_bad.cc": ("src/harness/det002_bad.cc", "DET-002"),
    "det002_clean.cc": ("src/harness/det002_clean.cc", "DET-002"),
    "det003_bad.cc": ("src/stats/det003_bad.cc", "DET-003"),
    "det003_clean.cc": ("src/stats/det003_clean.cc", "DET-003"),
    "det004_bad.hh": ("src/workload/det004_bad.hh", "DET-004"),
    "det004_clean.hh": ("src/workload/det004_clean.hh", "DET-004"),
    "ff002_bad.cc": ("src/cpu/ff002_bad.cc", "FF-002"),
    "ff002_clean.cc": ("src/cpu/ff002_clean.cc", "FF-002"),
    "err001_bad.cc": ("src/core/err001_bad.cc", "ERR-001"),
    "err001_clean.cc": ("src/core/err001_clean.cc", "ERR-001"),
    "stat001_bad.cc": ("src/stats/stat001_bad.cc", "STAT-001"),
    "stat001_clean.cc": ("src/stats/stat001_clean.cc", "STAT-001"),
    "rawstring_bad.cc": ("src/sim/rawstring_bad.cc", "ERR-001"),
    "rawstring_clean.cc": ("src/sim/rawstring_clean.cc", "ERR-001"),
}


def fixture_text(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
        return f.read()


def golden_lines(name):
    """Line numbers of every '// BAD' marker in a fixture."""
    return [lineno
            for lineno, line in enumerate(
                fixture_text(name).splitlines(), start=1)
            if "// BAD" in line]


class TreeFixture(unittest.TestCase):
    """Copies fixtures into a scoped temp tree once per class."""

    @classmethod
    def setUpClass(cls):
        cls.root = tempfile.mkdtemp(prefix="detlint_selftest_")
        for src, (dest, _rule) in PLACEMENTS.items():
            full = os.path.join(cls.root, dest)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            shutil.copyfile(os.path.join(FIXTURES, src), full)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root, ignore_errors=True)

    def scan(self, relpath):
        return detlint.check_file(self.root, relpath)


class BadFixturesFire(TreeFixture):
    """Every seeded violation produces exactly one finding of the
    fixture's rule, at the marked line, and nothing else."""

    def assert_golden(self, fixture):
        dest, rule = PLACEMENTS[fixture]
        findings = self.scan(dest)
        got = sorted((f.rule, f.line) for f in findings)
        want = sorted((rule, ln) for ln in golden_lines(fixture))
        self.assertEqual(
            got, want,
            f"{fixture}: findings do not match the // BAD markers")

    def test_det001(self):
        self.assert_golden("det001_bad.cc")

    def test_det002(self):
        self.assert_golden("det002_bad.cc")

    def test_det003(self):
        self.assert_golden("det003_bad.cc")

    def test_det004(self):
        self.assert_golden("det004_bad.hh")

    def test_ff002(self):
        self.assert_golden("ff002_bad.cc")

    def test_err001(self):
        self.assert_golden("err001_bad.cc")

    def test_stat001(self):
        self.assert_golden("stat001_bad.cc")

    def test_rawstring(self):
        # Raw string literals full of violation-looking text are
        # ignored; the real exit() after them is found at the
        # marked line.
        self.assert_golden("rawstring_bad.cc")

    def test_bad_fixtures_have_markers(self):
        # A fixture with zero markers would make the tests above
        # vacuously assert "no findings" — guard against that.
        for fixture, (_dest, _rule) in PLACEMENTS.items():
            if "_bad." in fixture:
                self.assertGreaterEqual(
                    len(golden_lines(fixture)), 1,
                    f"{fixture}: expected at least 1 BAD marker")


class CleanTwinsStaySilent(TreeFixture):
    def test_clean_twins(self):
        for fixture, (dest, _rule) in PLACEMENTS.items():
            if "_clean." not in fixture:
                continue
            findings = self.scan(dest)
            self.assertEqual(
                [], [f.format() for f in findings],
                f"{fixture}: clean twin must produce no findings")


class ScopingAndSuppression(TreeFixture):
    def test_det002_whitelisted_accessor(self):
        # The same getenv-calling code is legal at the single
        # whitelisted path.
        dest = detlint.DET002_WHITELIST[0]
        full = os.path.join(self.root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        shutil.copyfile(
            os.path.join(FIXTURES, "det002_bad.cc"), full)
        self.assertEqual([], self.scan(dest))

    def test_det003_out_of_scope(self):
        # Unordered containers are only flagged in stats-feeding
        # code; the same file under src/cpu/ is out of scope.
        dest = "src/cpu/det003_elsewhere.cc"
        full = os.path.join(self.root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        shutil.copyfile(
            os.path.join(FIXTURES, "det003_bad.cc"), full)
        self.assertEqual([], self.scan(dest))

    def test_line_allow_directive(self):
        dest = "src/sim/det001_allowed.cc"
        full = os.path.join(self.root, dest)
        with open(full, "w", encoding="utf-8") as f:
            f.write("unsigned long s()\n"
                    "{\n"
                    "    return time(nullptr); // detlint: allow(DET-001)\n"
                    "}\n")
        self.assertEqual([], self.scan(dest))


def line_containing(text, needle):
    """1-based line number of the first line containing needle."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"no line contains {needle!r}")


#: fixture -> canonical destination for the cross-file (tree) rule.
#: ERR-003 anchors on these exact paths.
TREE_CLEAN = {
    "tree/errors_clean.hh": "src/sim/errors.hh",
    "tree/cli_verbs_clean.cc": "src/harness/cli_verbs.cc",
    "tree/cli_main_clean.cc": "tools/soefair_cli.cc",
}
TREE_BAD = {
    "tree/errors_clean.hh": "src/sim/errors.hh",
    "tree/cli_verbs_bad.cc": "src/harness/cli_verbs.cc",
    "tree/cli_main_bad.cc": "tools/soefair_cli.cc",
}


class TreeRules(unittest.TestCase):
    """ERR-003 (and FF-002's credit demo) over miniature trees with
    the anchor files at their canonical paths."""

    def scan(self, mapping, edits=None):
        root = tempfile.mkdtemp(prefix="detlint_tree_")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        for src, dest in mapping.items():
            text = fixture_text(src)
            if edits and dest in edits:
                text = edits[dest](text)
            full = os.path.join(root, dest)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(text)
        return detlint.scan_tree(root, sorted(mapping.values()))

    def test_clean_tree_is_silent(self):
        self.assertEqual(
            [], [f.format() for f in self.scan(TREE_CLEAN)])

    def test_bad_tree_fires_exactly_the_seeded_findings(self):
        verbs = fixture_text("tree/cli_verbs_bad.cc")
        drain = line_containing(verbs, '"drain"')
        ghost = line_containing(verbs, '"ghost"')
        orphan_dispatch = line_containing(
            fixture_text("tree/cli_main_bad.cc"), 'cmd == "orphan"')
        want = sorted([
            ("src/harness/cli_verbs.cc", drain, "ERR-003"),
            ("src/harness/cli_verbs.cc", ghost, "ERR-003"),
            ("tools/soefair_cli.cc", orphan_dispatch, "ERR-003"),
        ])
        got = sorted(
            (f.path, f.line, f.rule) for f in self.scan(TREE_BAD))
        self.assertEqual(want, got)

    def test_deleting_a_doc_entry_fires_err003(self):
        # The acceptance demo: drop one verb's documented exit code
        # from the otherwise-clean registry and the cross-check
        # notices the now-undocumented reachable code.
        edits = {"src/harness/cli_verbs.cc":
                 lambda t: t.replace(
                     "; 22 admission control rejected", "")}
        findings = self.scan(TREE_CLEAN, edits)
        self.assertEqual(
            ["ERR-003"], [f.rule for f in findings])
        self.assertIn("exit with code 22", findings[0].message)
        self.assertIn("drain", findings[0].message)

    def test_deleting_a_credit_line_fires_ff002(self):
        # The fast-forward acceptance demo: remove one stall
        # counter's bulk-credit line from the clean fixture and
        # FF-002 fires at the counter's tick-path increment.
        root = tempfile.mkdtemp(prefix="detlint_ff002_")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        text = fixture_text("ff002_clean.cc")
        broken = "\n".join(
            line for line in text.splitlines()
            if "fullStallCycles += skipped;" not in line) + "\n"
        self.assertNotEqual(text, broken)
        dest = "src/cpu/ff002_widget.cc"
        full = os.path.join(root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(broken)
        findings = detlint.check_file(root, dest)
        self.assertEqual(["FF-002"], [f.rule for f in findings])
        self.assertEqual(
            line_containing(broken, "fullStallCycles += 1;"),
            findings[0].line)


class CrlfRegression(unittest.TestCase):
    """CRLF line endings must not change what fires or where."""

    CASES = ("ff002_bad.cc", "err001_bad.cc", "det004_bad.hh",
             "rawstring_bad.cc")

    def test_crlf_findings_identical(self):
        for fixture in self.CASES:
            dest, rule = PLACEMENTS[fixture]
            root = tempfile.mkdtemp(prefix="detlint_crlf_")
            self.addCleanup(shutil.rmtree, root, ignore_errors=True)
            full = os.path.join(root, dest)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            crlf = fixture_text(fixture).replace("\n", "\r\n")
            with open(full, "w", encoding="utf-8", newline="") as f:
                f.write(crlf)
            findings = detlint.check_file(root, dest)
            got = sorted((f.rule, f.line) for f in findings)
            want = sorted((rule, ln) for ln in golden_lines(fixture))
            self.assertEqual(
                want, got,
                f"{fixture}: CRLF version diverged from LF version")


class MainExitStatus(unittest.TestCase):
    """End-to-end through main(): findings fail, a clean tree passes,
    and a scan that finds no C++ files is a setup error."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="detlint_main_")
        self.addCleanup(shutil.rmtree, self.root, ignore_errors=True)

    def place(self, fixture, dest):
        full = os.path.join(self.root, dest)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        shutil.copyfile(os.path.join(FIXTURES, fixture), full)

    def test_findings_fail(self):
        self.place("det002_bad.cc", "src/harness/det002_bad.cc")
        self.assertEqual(1, detlint.main(["--root", self.root]))

    def test_clean_tree_passes(self):
        self.place("det002_clean.cc", "src/harness/det002_clean.cc")
        self.assertEqual(0, detlint.main(["--root", self.root]))

    def test_empty_scan_is_a_setup_error(self):
        # A wrong --root (say, a parent project's source dir) holds
        # none of the scanned directories; that must not pass as a
        # clean tree.
        self.place("det002_bad.cc", "perfbench/det002_bad.cc")
        self.assertEqual(2, detlint.main(["--root", self.root]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
