#!/usr/bin/env python3
"""Test suite for tools/cg-analyze (registered with ctest as
ToolsCgAnalyze).

Covers, per the I10 acceptance criteria:
  * the known-bad fixture tree under fixtures/badtree makes every
    diagnostic fire exactly once and the gate exit non-zero,
  * the real source tree is clean (zero non-baselined findings),
  * a freshly seeded violation in a copy of the real tree is rejected
    (the CI-gate property),
  * the --json report matches the golden schema,
  * --lint-only stays scoped to the absorbed cg-lint rules,
  * the suppression baseline demands justifications and reports stale
    entries,
  * tokenizer / extractor / world-propagation unit behaviour.

No third-party dependencies; plain unittest + subprocess.
"""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
TOOL = REPO / "tools" / "cg-analyze"
BADTREE = HERE / "fixtures" / "badtree"
GOLDEN_SCHEMA = HERE / "golden_report_schema.json"

_TYPES = {"str": str, "int": int, "bool": bool, "list": list,
          "dict": dict}


def _load_module():
    """Import cg-analyze (no .py suffix) as a module for unit tests."""
    loader = importlib.machinery.SourceFileLoader("cg_analyze",
                                                  str(TOOL))
    spec = importlib.util.spec_from_loader("cg_analyze", loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


CG = _load_module()


def run_tool(*args):
    # Invoke through the shebang, as CI does.
    p = subprocess.run([str(TOOL), *args],
                       capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def report_for(*args):
    with tempfile.TemporaryDirectory() as td:
        out = pathlib.Path(td) / "report.json"
        rc, _, err = run_tool(*args, "--json", str(out))
        return rc, json.loads(out.read_text()), err


class BadTreeTest(unittest.TestCase):
    """The seeded-violation fixture: every rule fires exactly once."""

    @classmethod
    def setUpClass(cls):
        cls.rc, cls.report, _ = report_for(
            "--root", str(BADTREE), "--no-baseline")

    def test_gate_rejects_fixture(self):
        self.assertEqual(self.rc, 1)

    def test_each_rule_fires_exactly_once(self):
        counts = {}
        for f in self.report["findings"]:
            counts[f["rule"]] = counts.get(f["rule"], 0) + 1
        self.assertEqual(counts, {r: 1 for r in CG.ALL_RULES})

    def test_world_tags_on_graph_findings(self):
        by_rule = {f["rule"]: f for f in self.report["findings"]}
        self.assertEqual(by_rule["domain-discipline"]["worlds"],
                         ["monitor"])
        self.assertEqual(by_rule["world-domain"]["worlds"], ["realm"])
        self.assertEqual(by_rule["unproven-domain"]["worlds"],
                         ["realm"])

    def test_function_attribution(self):
        by_rule = {f["rule"]: f for f in self.report["findings"]}
        self.assertEqual(by_rule["det-tick-tiebreak"]["function"],
                         "FanOut::kick")
        self.assertEqual(by_rule["unchoked-scrub"]["function"],
                         "rogueScrub")

    def test_accessor_registration_not_flagged(self):
        # hits_ is registered through its accessor; only dropped_ may
        # be reported.
        regs = [f for f in self.report["findings"]
                if f["rule"] == "stat-register"]
        self.assertEqual(len(regs), 1)
        self.assertIn("dropped_", regs[0]["message"])


class LintOnlyTest(unittest.TestCase):
    """--lint-only keeps the cg-lint scope."""

    def test_lint_only_rule_set(self):
        rc, report, _ = report_for("--root", str(BADTREE),
                                   "--lint-only", "--no-baseline")
        self.assertEqual(rc, 1)
        rules = {f["rule"] for f in report["findings"]}
        self.assertEqual(
            rules, set(CG.LINT_RULES) | {"domain-discipline"})
        # graph passes must NOT run in lint mode
        self.assertFalse(rules & {"unchoked-scrub", "det-unordered"})


class CleanTreeTest(unittest.TestCase):
    """The real source tree has zero non-baselined findings."""

    def test_repo_is_clean(self):
        rc, report, err = report_for("--root", str(REPO))
        self.assertEqual(rc, 0, msg=err)
        self.assertEqual(report["summary"]["active"], 0)
        # every suppressed finding must carry its justification
        for f in report["findings"]:
            self.assertTrue(f["suppressed"])
            self.assertTrue(f.get("justification"))

    def test_seeded_violation_is_rejected(self):
        # The CI-gate property: plant one fresh violation in a copy of
        # the real tree and the run must fail.
        with tempfile.TemporaryDirectory() as td:
            tmp = pathlib.Path(td)
            shutil.copytree(REPO / "src", tmp / "src")
            shutil.copy(REPO / "DESIGN.md", tmp / "DESIGN.md")
            (tmp / "tools").mkdir()
            shutil.copy(REPO / "tools" / "cg-analyze-baseline.json",
                        tmp / "tools" / "cg-analyze-baseline.json")
            (tmp / "src" / "sim" / "seeded_bad.cc").write_text(
                "namespace cg {\n"
                "struct Seeded { std::unordered_map<int, int> m_; };\n"
                "}\n")
            rc, out, _ = run_tool("--root", str(tmp))
            self.assertEqual(rc, 1)
            self.assertIn("det-unordered", out)
            self.assertIn("seeded_bad.cc", out)


class JsonSchemaTest(unittest.TestCase):
    """--json report shape is pinned by the golden schema file."""

    @classmethod
    def setUpClass(cls):
        cls.golden = json.loads(GOLDEN_SCHEMA.read_text())
        _, cls.report, _ = report_for("--root", str(BADTREE),
                                      "--no-baseline")

    def _check_shape(self, obj, shape, where):
        self.assertEqual(set(obj), set(shape),
                         msg=f"key set mismatch at {where}")
        for key, tname in shape.items():
            self.assertIsInstance(
                obj[key], _TYPES[tname],
                msg=f"{where}.{key} should be {tname}")

    def test_report_matches_golden_schema(self):
        g = self.golden
        self._check_shape(self.report, g["top_level"], "report")
        self._check_shape(self.report["stats"], g["stats"], "stats")
        self._check_shape(self.report["summary"], g["summary"],
                          "summary")
        self.assertEqual(self.report["schema"], g["schema_version"])
        self.assertEqual(self.report["tool"], g["tool"])
        optional = set(g["finding_optional"])
        for f in self.report["findings"]:
            core = {k: v for k, v in f.items() if k not in optional}
            self._check_shape(core, g["finding"], "finding")

    def test_summary_is_consistent(self):
        s = self.report["summary"]
        self.assertEqual(s["total"], len(self.report["findings"]))
        self.assertEqual(s["total"], s["active"] + s["suppressed"])


class BaselineTest(unittest.TestCase):
    """Suppression baseline: justifications mandatory, staleness
    reported, matching findings suppressed but still visible."""

    def _with_baseline(self, entries):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "bl.json"
            bl.write_text(json.dumps({"version": 1,
                                      "entries": entries}))
            out = pathlib.Path(td) / "report.json"
            p = subprocess.run(
                [str(TOOL), "--root", str(BADTREE),
                 "--baseline", str(bl), "--json", str(out)],
                capture_output=True, text=True)
            return p.returncode, json.loads(out.read_text()), p.stderr

    def test_missing_justification_is_config_error(self):
        rc, _, err = run_tool(
            "--root", str(BADTREE), "--baseline", "/dev/null")
        self.assertEqual(rc, 2)
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "bl.json"
            bl.write_text(json.dumps({"entries": [
                {"rule": "no-std-map", "file": "src/hw/bad_map.cc"}]}))
            rc, _, err = run_tool("--root", str(BADTREE),
                                  "--baseline", str(bl))
        self.assertEqual(rc, 2)
        self.assertIn("justification", err)

    def test_suppression_and_stale_detection(self):
        rc, report, err = self._with_baseline([
            {"rule": "no-std-map", "file": "src/hw/bad_map.cc",
             "justification": "fixture"},
            {"rule": "no-std-map", "file": "src/hw/nope.cc",
             "justification": "matches nothing"},
        ])
        self.assertEqual(rc, 1)  # 16 findings still active
        self.assertEqual(report["summary"]["suppressed"], 1)
        self.assertEqual(report["summary"]["active"],
                         len(CG.ALL_RULES) - 1)
        sup = [f for f in report["findings"] if f["suppressed"]]
        self.assertEqual(sup[0]["rule"], "no-std-map")
        self.assertEqual(sup[0]["justification"], "fixture")
        self.assertIn("stale baseline entry", err)
        self.assertIn("nope.cc", err)


class UnitTest(unittest.TestCase):
    """Direct unit coverage of the analysis substrate."""

    def test_tokenizer_strips_comments_and_strings(self):
        toks = CG.tokenize('a = "x; // y" + R"(z")" /* c */ + b; // t')
        ids = [t.text for t in toks if t.kind == "id"]
        self.assertEqual(ids, ["a", "b"])
        strs = [t.text for t in toks if t.kind == "str"]
        self.assertEqual(len(strs), 2)

    def test_function_extraction_qualified_names(self):
        src = ("namespace cg {\n"
               "class Foo {\n"
               "  int bar() { return 1; }\n"
               "};\n"
               "void Foo::baz(int x) { (void)x; }\n"
               "int free_fn() { return 2; }\n"
               "}\n")
        sf = CG.SourceFile(pathlib.Path("x.cc"), "src/x.cc", src)
        CG.extract_functions(sf)
        names = sorted(f.key for f in sf.functions)
        self.assertEqual(names, ["Foo::bar", "Foo::baz", "free_fn"])

    def test_domain_arg_classification(self):
        cls = CG.Analyzer._classify_domain_arg
        self.assertEqual(cls(["sim", "::", "hostDomain"])[0],
                         "host-literal")
        self.assertEqual(cls(["domain", "(", ")"])[0], "self")
        self.assertEqual(cls(["vm_", ".", "domain", "(", ")"])[0],
                         "self")
        self.assertEqual(cls(["d"])[0], "variable")

    def test_world_propagation_stops_at_seeded_modules(self):
        # src/host calls into src/rmm: the rmm function must keep its
        # monitor seed, not inherit the host world (a call across
        # seeded modules is a world *transition*).
        an = CG.Analyzer(BADTREE)
        an.load()
        an.build_graph()
        an.seed_worlds()
        an.propagate_worlds()
        worlds = {f.key: f.worlds for f in an.functions}
        self.assertEqual(worlds["monitorMasquerade"],
                         {"monitor"})
        self.assertEqual(worlds["realmDirty"], {"realm"})
        self.assertEqual(worlds["emitRogueTrace"], {"host"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
