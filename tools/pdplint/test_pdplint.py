#!/usr/bin/env python3
"""pdplint self-tests.

Three layers:
  * lexer unit tests (comments / strings / raw strings / numbers /
    allow-annotation resolution),
  * fixture tests — every check in checks.ALL_CHECKS has positive and
    negative cases under fixtures/, marked with `// EXPECT: <check>`
    (or `// EXPECT+N: <check>` for a finding N lines below the marker),
  * end-to-end CLI tests — exit codes, JSON output, the baseline
    round-trip (a seeded violation fails the run until baselined), and
    the repo-wide run staying clean modulo the checked-in baseline.

Run directly (`python3 tools/pdplint/test_pdplint.py`) or via
`ctest -R pdplint`.
"""

import io
import json
import os
import re
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import pdplint  # noqa: E402
from cpplex import lex_file, tokenize  # noqa: E402

FIXDIR = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))

_EXPECT_RE = re.compile(r"//\s*EXPECT(\+(\d+))?:\s*([a-z\-]+)")


def expected_findings(path):
    """(line, check) pairs declared by EXPECT markers in a fixture."""
    expected = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            for match in _EXPECT_RE.finditer(line):
                offset = int(match.group(2)) if match.group(2) else 0
                expected.add((lineno + offset, match.group(3)))
    return expected


def run_main(argv):
    """pdplint.main with captured stdout; returns (exit_code, output)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = pdplint.main(argv)
    return code, buf.getvalue()


class LexerTest(unittest.TestCase):
    def code_values(self, text):
        return [t.value for t in tokenize(text)
                if t.kind not in ("comment", "pp")]

    def test_comments_and_strings_hold_no_code(self):
        text = ('// rand()\n/* time(nullptr) */\n'
                'const char *s = "srand(1)";\n'
                'const char *r = R"x(clock() ")x";\n')
        values = self.code_values(text)
        for banned in ("rand", "time", "srand", "clock"):
            self.assertNotIn(banned, values)
        self.assertIn('"srand(1)"', values)  # one literal token

    def test_raw_string_with_embedded_quote_terminates(self):
        toks = tokenize('auto r = R"d(a " b)d"; int x;')
        self.assertEqual(toks[-2].value, "x")

    def test_numeric_literals_carry_values(self):
        toks = [t for t in tokenize("a[16]; b[0x10]; c[1'024];")
                if t.kind == "num"]
        self.assertEqual([t.int_value for t in toks], [16, 16, 1024])

    def test_longest_match_punctuation(self):
        values = [t.value for t in tokenize("x >>= y; p->q; a <=> b;")
                  if t.kind == "punct"]
        self.assertIn(">>=", values)
        self.assertIn("->", values)

    def test_trailing_allow_waives_own_line(self):
        lf = lex_file("t.cc", "long t = time(0); "
                              "// pdplint: allow(wall-clock) reason\n")
        self.assertTrue(lf.is_allowed("wall-clock", 1))

    def test_standalone_allow_waives_next_code_line(self):
        lf = lex_file("t.cc",
                      "// pdplint: allow(wall-clock) spans to the\n"
                      "// statement below\n"
                      "long t =\n"
                      "    time(0);\n")
        self.assertTrue(lf.is_allowed("wall-clock", 3))
        self.assertTrue(lf.is_allowed("wall-clock", 4))

    def test_bare_allow_not_honoured(self):
        lf = lex_file("t.cc", "// pdplint: allow(wall-clock)\n"
                              "long t = time(0);\n")
        self.assertFalse(lf.is_allowed("wall-clock", 2))
        self.assertEqual(len(lf.bare_allows), 1)

    def test_multi_check_allow(self):
        lf = lex_file("t.cc", "x(); // pdplint: allow(rand, hot-path) y\n")
        self.assertTrue(lf.is_allowed("rand", 1))
        self.assertTrue(lf.is_allowed("hot-path", 1))
        self.assertFalse(lf.is_allowed("wall-clock", 1))


class FixtureTest(unittest.TestCase):
    """Every fixture's findings must match its EXPECT markers exactly."""

    @classmethod
    def setUpClass(cls):
        files = pdplint.discover([FIXDIR], FIXDIR)
        assert files, "no fixtures found"
        cls.by_file = {}
        for f in pdplint.run(files, FIXDIR):
            cls.by_file.setdefault(f.file, set()).add((f.line, f.check))
        cls.files = files

    def assert_fixture(self, name):
        path = os.path.join(FIXDIR, name)
        self.assertTrue(os.path.isfile(path), f"missing fixture {name}")
        expected = expected_findings(path)
        actual = self.by_file.get(name, set())
        self.assertEqual(
            expected, actual,
            f"{name}: expected {sorted(expected)}, got {sorted(actual)}")

    def test_determinism_bad(self):
        self.assert_fixture("determinism_bad.cc")

    def test_determinism_ok(self):
        self.assert_fixture("determinism_ok.cc")

    def test_hotpath_bad(self):
        self.assert_fixture("hotpath_bad.cc")

    def test_hotpath_ok(self):
        self.assert_fixture("hotpath_ok.cc")

    def test_hot_trace_bad(self):
        self.assert_fixture("hot_trace_bad.cc")

    def test_hot_trace_ok(self):
        self.assert_fixture("hot_trace_ok.cc")

    def test_op_replay_bad(self):
        self.assert_fixture("op_replay_bad.cc")

    def test_op_replay_ok(self):
        self.assert_fixture("op_replay_ok.cc")

    def test_scratch_bad(self):
        self.assert_fixture("scratch_bad.cc")

    def test_scratch_ok(self):
        self.assert_fixture("scratch_ok.cc")

    def test_scratch_nolayout(self):
        self.assert_fixture("scratch_nolayout.cc")

    def test_allow_bare(self):
        self.assert_fixture("allow_bare.cc")

    def test_every_check_has_positive_and_negative_coverage(self):
        """No check may exist without a fixture that triggers it, and
        every fixture run must leave the ok-fixtures clean."""
        covered = {check for marks in
                   (expected_findings(os.path.join(FIXDIR, n))
                    for n in os.listdir(FIXDIR) if n.endswith(".cc"))
                   for _line, check in marks}
        self.assertEqual(set(checks.ALL_CHECKS), covered)
        for name in ("determinism_ok.cc", "hotpath_ok.cc",
                     "hot_trace_ok.cc", "scratch_ok.cc",
                     "op_replay_ok.cc"):
            self.assertEqual(self.by_file.get(name, set()), set(), name)


class CliTest(unittest.TestCase):
    def test_violations_fail_the_run(self):
        code, out = run_main(
            [os.path.join(FIXDIR, "determinism_bad.cc"),
             "--root", FIXDIR])
        self.assertEqual(code, 1)
        self.assertIn("[rand]", out)
        self.assertIn("[wall-clock]", out)

    def test_clean_file_passes(self):
        code, out = run_main(
            [os.path.join(FIXDIR, "determinism_ok.cc"),
             "--root", FIXDIR])
        self.assertEqual(code, 0)
        self.assertIn("0 finding(s)", out)

    def test_json_output_shape(self):
        code, out = run_main(
            [os.path.join(FIXDIR, "determinism_bad.cc"),
             "--root", FIXDIR, "--json"])
        self.assertEqual(code, 1)
        data = json.loads(out)
        self.assertEqual(data["version"], 1)
        self.assertEqual(data["files_scanned"], 1)
        self.assertGreater(len(data["findings"]), 0)
        for entry in data["findings"]:
            for field in ("file", "line", "check", "message", "context"):
                self.assertIn(field, entry)

    def test_baseline_roundtrip_and_seeded_violation(self):
        """A fully-baselined tree passes; one non-baselined (seeded)
        violation fails the run — the CI gate the workflow relies on."""
        fixture = os.path.join(FIXDIR, "determinism_bad.cc")
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            code, _ = run_main([fixture, "--root", FIXDIR,
                                "--write-baseline", baseline])
            self.assertEqual(code, 0)

            # Everything grandfathered: clean.
            code, out = run_main([fixture, "--root", FIXDIR,
                                  "--baseline", baseline])
            self.assertEqual(code, 0)
            self.assertIn("baselined", out)

            # Drop one entry to simulate a freshly-introduced violation.
            with open(baseline, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            seeded = data["findings"].pop()
            with open(baseline, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            code, out = run_main([fixture, "--root", FIXDIR,
                                  "--baseline", baseline])
            self.assertEqual(code, 1)
            self.assertIn(f"[{seeded['check']}]", out)

    def test_repo_run_clean_modulo_baseline(self):
        """The real tree must stay clean against the checked-in
        baseline — the same invocation CI and lint-pdp use."""
        code, out = run_main(["src", "--root", REPO_ROOT,
                              "--baseline",
                              os.path.join("tools", "pdplint",
                                           "baseline.json")])
        self.assertEqual(code, 0, f"repo run not clean:\n{out}")

    def test_list_checks(self):
        code, out = run_main(["--list-checks"])
        self.assertEqual(code, 0)
        self.assertEqual(set(out.split()), set(checks.ALL_CHECKS))


if __name__ == "__main__":
    unittest.main(verbosity=2)
