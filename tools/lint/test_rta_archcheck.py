#!/usr/bin/env python3
"""Golden test for rta_archcheck over the arch fixture corpus.

Checks, in order:
  1. The fixture corpus reproduces exactly the findings in
     fixtures/arch/expected.json (file, line, rule, suppressed) and
     exits 1.
  2. Each of the five passes individually catches its seeded violation
     (layering, lock-order, units, schema, test-only) via --rules, and
     test-only-src flags both of its shapes: a header only tests and
     benches include, and a header nothing includes.
  3. The real tree (src/ + docs/api.md) is clean: exit 0, no findings.
  4. --write-baseline followed by a baselined run exits 0 with every
     finding accounted as baselined; dropping one fingerprint from the
     v2 list resurfaces exactly that finding as new (exit 1).
  5. A v1 (counts) baseline is migrated on load and still matches.
  6. Usage errors: unknown rule and a doc without the field-reference
     markers both exit 2.

Stdlib only; run directly or through ctest (archcheck_fixtures).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "rta_archcheck.py")
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
FIXTURES = os.path.join(HERE, "fixtures", "arch")
EXPECTED = os.path.join(FIXTURES, "expected.json")

failures = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {name}"
          + (f": {detail}" if detail and not cond else ""))
    if not cond:
        failures.append(name)


def run_tool(*extra, json_to=None):
    cmd = [sys.executable, TOOL, "-q"]
    if json_to is not None:
        cmd += ["--json", json_to]
    cmd += list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc


def run_fixture(*extra, json_to=None):
    return run_tool("--root", FIXTURES, *extra, json_to=json_to)


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def key(f):
    return (f["file"], f["line"], f["rule"], f["suppressed"])


def main():
    with open(EXPECTED, "r", encoding="utf-8") as f:
        expected = json.load(f)
    exp_keys = sorted(key(f) for f in expected["findings"])

    with tempfile.TemporaryDirectory(prefix="rta_archcheck_test_") as tmp:
        report_path = os.path.join(tmp, "report.json")
        baseline_path = os.path.join(tmp, "baseline.json")

        # 1. Golden corpus match.
        print("golden corpus:")
        proc = run_fixture("--no-baseline", json_to=report_path)
        check("exit code 1 (new findings)", proc.returncode == 1,
              f"got {proc.returncode}: {proc.stderr}")
        rep = load_report(report_path)
        got_keys = sorted(key(f) for f in rep["findings"])
        check("findings match expected.json", got_keys == exp_keys,
              f"\n  expected: {exp_keys}\n  got:      {got_keys}")
        check("counts match", rep["counts"] == expected["counts"],
              f"expected {expected['counts']}, got {rep['counts']}")
        check("report names the tool", rep.get("tool") == "rta-archcheck")
        check("every rule documented", all(
            r.get("name") and r.get("description") for r in rep["rules"]))

        # 2. Each pass catches its seeded violation in isolation.
        print("per-pass detection:")
        for rules, expect in [
            ("layer-upward", {"layer-upward"}),
            ("include-cycle", {"include-cycle"}),
            ("lock-order-cycle", {"lock-order-cycle"}),
            ("guarded-write", {"guarded-write"}),
            ("unit-mix,unit-factor", {"unit-mix", "unit-factor"}),
            ("schema-undocumented,schema-phantom",
             {"schema-undocumented", "schema-phantom"}),
            ("test-only-src", {"test-only-src"}),
        ]:
            proc = run_fixture("--no-baseline", "--rules", rules,
                               json_to=report_path)
            rep = load_report(report_path)
            seen = {f["rule"] for f in rep["findings"]}
            check(f"--rules {rules} catches its seed",
                  expect <= seen and seen <= expect | {"bad-suppression"},
                  f"expected {expect}, saw {seen}")

        proc = run_fixture("--no-baseline", "--rules", "test-only-src",
                           json_to=report_path)
        rep = load_report(report_path)
        flagged = {f["file"]: f["message"] for f in rep["findings"]
                   if f["rule"] == "test-only-src"}
        check("test-only-src flags the test-only header",
              "included only by tests/benches"
              in flagged.get("src/curve/oracle.hpp", ""), str(flagged))
        check("test-only-src flags the header nothing includes",
              "included by nothing" in flagged.get("src/util/orphan.hpp", ""),
              str(flagged))
        check("test-only-src spares headers shipped code includes",
              set(flagged) == {"src/curve/oracle.hpp", "src/util/orphan.hpp"},
              str(sorted(flagged)))

        # 3. The real tree is clean.
        print("real tree:")
        proc = run_tool("--root", ROOT, os.path.join(ROOT, "src"),
                        json_to=report_path)
        check("src/ exits 0", proc.returncode == 0,
              f"got {proc.returncode}: {proc.stdout}{proc.stderr}")
        rep = load_report(report_path)
        check("src/ has no new findings", rep["counts"]["new"] == 0,
              str(rep["counts"]))

        # 4. Baseline roundtrip on the fixtures.
        print("baseline roundtrip:")
        proc = run_fixture("--write-baseline", "--baseline", baseline_path)
        check("--write-baseline exits 0", proc.returncode == 0,
              f"got {proc.returncode}: {proc.stderr}")
        proc = run_fixture("--baseline", baseline_path, json_to=report_path)
        check("baselined run exits 0", proc.returncode == 0,
              f"got {proc.returncode}: {proc.stderr}")
        rep = load_report(report_path)
        check("no new findings", rep["counts"]["new"] == 0,
              str(rep["counts"]))
        n_unsuppressed = sum(1 for f in expected["findings"]
                             if not f["suppressed"])
        check("all unsuppressed findings baselined",
              rep["counts"]["baselined"] == n_unsuppressed,
              f"expected {n_unsuppressed}, got {rep['counts']['baselined']}")

        with open(baseline_path, "r", encoding="utf-8") as f:
            base = json.load(f)
        check("baseline is v2", base.get("version") == 2
              and isinstance(base["fingerprints"], list))
        dropped = sorted(base["fingerprints"])[0]
        base["fingerprints"].remove(dropped)
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(base, f)
        proc = run_fixture("--baseline", baseline_path, json_to=report_path)
        check("exit code 1 after dropping a fingerprint",
              proc.returncode == 1, f"got {proc.returncode}")
        rep = load_report(report_path)
        check("exactly the dropped finding is new",
              rep["counts"]["new"] == 1, str(rep["counts"]))

        # 5. v1 (counts) baseline migration.
        print("v1 baseline migration:")
        counts = {}
        for fp in sorted(base["fingerprints"]) + [dropped]:
            root_fp = fp.rsplit("#", 1)[0]
            counts[root_fp] = counts.get(root_fp, 0) + 1
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump({"version": 1, "fingerprints": counts}, f)
        proc = run_fixture("--baseline", baseline_path, json_to=report_path)
        check("v1 baseline still suppresses all findings",
              proc.returncode == 0, f"got {proc.returncode}: {proc.stderr}")

        # 6. Usage errors.
        print("usage errors:")
        proc = run_fixture("--rules", "no-such-rule")
        check("unknown rule exits 2", proc.returncode == 2,
              f"got {proc.returncode}")
        unmarked = os.path.join(tmp, "unmarked.md")
        with open(unmarked, "w", encoding="utf-8") as f:
            f.write("# no markers here\n")
        proc = run_fixture("--no-baseline", "--api-doc", unmarked)
        check("doc without markers exits 2", proc.returncode == 2,
              f"got {proc.returncode}")

    if failures:
        print(f"\ntest_rta_archcheck: {len(failures)} check(s) FAILED: "
              + ", ".join(failures))
        return 1
    print("\ntest_rta_archcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
