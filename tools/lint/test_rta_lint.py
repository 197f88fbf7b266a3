#!/usr/bin/env python3
"""Golden test for rta_lint over the fixture corpus.

Checks, in order:
  1. The fixture corpus reproduces exactly the findings in
     fixtures/expected.json (file, line, rule, suppressed) and exits 1;
     a pointer compared with nullptr is no float-eq finding, even when
     its name is declared double.
  2. A file with no findings exits 0.
  3. --write-baseline followed by a baselined run exits 0 with every
     finding accounted as baselined.
  4. Removing one fingerprint from the baseline resurfaces exactly that
     finding as new (exit 1).
  5. --rules selects a subset (plus bad-suppression, which is always on).
  6. An unknown rule name is a usage error (exit 2).

Stdlib only; run directly or through ctest (lint_fixtures).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "rta_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
FIXTURE_SRC = os.path.join(FIXTURES, "src")
EXPECTED = os.path.join(FIXTURES, "expected.json")

failures = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {name}" + (f": {detail}" if detail and not cond else ""))
    if not cond:
        failures.append(name)


def run_lint(*extra, json_to=None):
    cmd = [sys.executable, LINT, "--root", FIXTURES, "-q"]
    if json_to is not None:
        cmd += ["--json", json_to]
    cmd += list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def key(f):
    return (f["file"], f["line"], f["rule"], f["suppressed"])


def main():
    with open(EXPECTED, "r", encoding="utf-8") as f:
        expected = json.load(f)
    exp_keys = sorted(key(f) for f in expected["findings"])

    with tempfile.TemporaryDirectory(prefix="rta_lint_test_") as tmp:
        report_path = os.path.join(tmp, "report.json")
        baseline_path = os.path.join(tmp, "baseline.json")

        # 1. Golden corpus match.
        print("golden corpus:")
        proc = run_lint("--no-baseline", FIXTURE_SRC, json_to=report_path)
        check("exit code 1 (new findings)", proc.returncode == 1,
              f"got {proc.returncode}: {proc.stderr}")
        rep = load_report(report_path)
        got_keys = sorted(key(f) for f in rep["findings"])
        check("findings match expected.json", got_keys == exp_keys,
              f"\n  expected: {exp_keys}\n  got:      {got_keys}")
        check("counts match", rep["counts"] == expected["counts"],
              f"expected {expected['counts']}, got {rep['counts']}")
        check("no float-eq on a nullptr comparison", not any(
            f["file"] == "src/model/float_cmp.cpp" and "nullptr" in f["snippet"]
            for f in rep["findings"]))
        check("report names the tool", rep.get("tool") == "rta-lint")
        check("every rule documented", all(
            r.get("name") and r.get("description") for r in rep["rules"]))

        # 2. A clean file exits 0.
        print("clean file:")
        clean = os.path.join(FIXTURE_SRC, "obs", "wallclock_ok.cpp")
        proc = run_lint("--no-baseline", clean, json_to=report_path)
        check("exit code 0", proc.returncode == 0,
              f"got {proc.returncode}: {proc.stderr}")
        rep = load_report(report_path)
        check("no findings", rep["findings"] == [])

        # 3. Baseline roundtrip: everything baselined, exit 0.
        print("baseline roundtrip:")
        proc = run_lint("--write-baseline", "--baseline", baseline_path,
                        FIXTURE_SRC)
        check("--write-baseline exits 0", proc.returncode == 0,
              f"got {proc.returncode}: {proc.stderr}")
        proc = run_lint("--baseline", baseline_path, FIXTURE_SRC,
                        json_to=report_path)
        check("baselined run exits 0", proc.returncode == 0,
              f"got {proc.returncode}: {proc.stderr}")
        rep = load_report(report_path)
        check("no new findings", rep["counts"]["new"] == 0, str(rep["counts"]))
        n_unsuppressed = sum(1 for f in expected["findings"]
                             if not f["suppressed"])
        check("all unsuppressed findings baselined",
              rep["counts"]["baselined"] == n_unsuppressed,
              f"expected {n_unsuppressed}, got {rep['counts']['baselined']}")

        # 4. Dropping one fingerprint resurfaces exactly that finding.
        print("baseline regression:")
        with open(baseline_path, "r", encoding="utf-8") as f:
            base = json.load(f)
        check("baseline is v2 (occurrence-indexed list)",
              base.get("version") == 2
              and isinstance(base["fingerprints"], list)
              and all("#" in fp for fp in base["fingerprints"]))
        dropped_fp = sorted(base["fingerprints"])[0]
        base["fingerprints"].remove(dropped_fp)
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(base, f)
        proc = run_lint("--baseline", baseline_path, FIXTURE_SRC,
                        json_to=report_path)
        check("exit code 1 after dropping a fingerprint",
              proc.returncode == 1, f"got {proc.returncode}")
        rep = load_report(report_path)
        check("exactly the dropped finding is new",
              rep["counts"]["new"] == 1,
              f"new {rep['counts']['new']}")

        # 4b. A legacy v1 baseline ({fingerprint: count}) still loads.
        print("v1 baseline migration:")
        counts = {}
        for fp in base["fingerprints"] + [dropped_fp]:
            root_fp = fp.rsplit("#", 1)[0]
            counts[root_fp] = counts.get(root_fp, 0) + 1
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump({"version": 1, "fingerprints": counts}, f)
        proc = run_lint("--baseline", baseline_path, FIXTURE_SRC,
                        json_to=report_path)
        check("v1 baseline still suppresses all findings",
              proc.returncode == 0,
              f"got {proc.returncode}: {proc.stderr}")

        # 5. Rule subset.
        print("rule subset:")
        proc = run_lint("--no-baseline", "--rules", "float-eq", FIXTURE_SRC,
                        json_to=report_path)
        rep = load_report(report_path)
        rules_seen = {f["rule"] for f in rep["findings"]}
        check("only float-eq and bad-suppression reported",
              rules_seen <= {"float-eq", "bad-suppression"}, str(rules_seen))
        check("float-eq findings present", "float-eq" in rules_seen)

        # 6. Usage errors.
        print("usage errors:")
        proc = run_lint("--rules", "no-such-rule", FIXTURE_SRC)
        check("unknown rule exits 2", proc.returncode == 2,
              f"got {proc.returncode}")
        proc = run_lint(os.path.join(FIXTURES, "does-not-exist"))
        check("missing path exits 2", proc.returncode == 2,
              f"got {proc.returncode}")

    if failures:
        print(f"\ntest_rta_lint: {len(failures)} check(s) FAILED: "
              + ", ".join(failures))
        return 1
    print("\ntest_rta_lint: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
