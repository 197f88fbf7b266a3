#!/usr/bin/env python3
"""Validate a Prometheus text-exposition file written by --metrics-prom.

Usage:
    check_prom.py metrics.prom [--require NAME ...] [--require-positive NAME ...]

Checks (stdlib only, text exposition format version 0.0.4):
  * every non-comment line parses as `name{labels} value` or `name value`
    with a float-parseable value and a metric name matching
    [a-zA-Z_:][a-zA-Z0-9_:]*;
  * every sample family (after stripping the _bucket/_sum/_count histogram
    suffixes) is declared by a preceding `# TYPE family counter|gauge|
    histogram` line, and families are declared at most once;
  * counter samples are non-negative and finite;
  * every histogram family has _sum, _count, and a `le="+Inf"` bucket;
    bucket `le` thresholds are sorted, cumulative counts are
    non-decreasing, and the +Inf bucket equals _count;
  * the exporter's own scrape timestamp gauge rta_scrape_time_seconds is
    present and positive;
  * each --require NAME names a family that must be present;
  * each --require-positive NAME names a family that must be present with
    a sample above zero (a counter that must have counted something).

Exit status: 0 when the file validates, 1 otherwise.
"""

import argparse
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$")
LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def family_of(name, types):
    """Map a sample name to its declared family, histogram suffixes aside."""
    if name in types:
        return name
    for suffix in HISTOGRAM_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def parse_value(text):
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        return None


def check(path, required, positive=()):
    errors = []
    types = {}      # family -> declared type
    samples = []    # (line_no, name, labels dict, value)
    with open(path, "r", encoding="utf-8") as f:
        for n, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 2 and parts[1] == "TYPE":
                    if len(parts) != 4 or parts[3] not in (
                            "counter", "gauge", "histogram"):
                        errors.append(f"line {n}: malformed TYPE line")
                        continue
                    family = parts[2]
                    if family in types:
                        errors.append(f"line {n}: duplicate TYPE for "
                                      f"{family!r}")
                    types[family] = parts[3]
                continue
            m = SAMPLE_RE.match(line)
            if m is None:
                errors.append(f"line {n}: unparseable sample: {line[:60]}")
                continue
            name, _, label_text, value_text = m.groups()
            value = parse_value(value_text)
            if value is None:
                errors.append(f"line {n}: bad value {value_text!r}")
                continue
            labels = dict(LABEL_RE.findall(label_text or ""))
            samples.append((n, name, labels, value))

    families_seen = set()
    buckets = {}  # family -> list of (le, cumulative count)
    sums = {}
    counts = {}
    for n, name, labels, value in samples:
        family = family_of(name, types)
        if family is None:
            errors.append(f"line {n}: sample {name!r} has no TYPE "
                          f"declaration")
            continue
        families_seen.add(family)
        kind = types[family]
        if kind == "counter" and not value >= 0:
            errors.append(f"line {n}: counter {name!r} negative or NaN")
        if kind == "histogram":
            if name == family + "_bucket":
                le = parse_value(labels.get("le", ""))
                if le is None:
                    errors.append(f"line {n}: bucket without numeric 'le'")
                else:
                    buckets.setdefault(family, []).append((le, value))
            elif name == family + "_sum":
                sums[family] = value
            elif name == family + "_count":
                counts[family] = value
            else:
                errors.append(f"line {n}: bare sample {name!r} for "
                              f"histogram family {family!r}")

    for family, kind in types.items():
        if kind != "histogram" or family not in families_seen:
            continue
        series = buckets.get(family, [])
        if not series:
            errors.append(f"histogram {family!r}: no _bucket samples")
            continue
        les = [le for le, _ in series]
        if les != sorted(les):
            errors.append(f"histogram {family!r}: 'le' thresholds not "
                          f"sorted")
        cumulative = [c for _, c in series]
        if any(b > a for a, b in zip(cumulative[1:], cumulative)):
            errors.append(f"histogram {family!r}: bucket counts not "
                          f"cumulative")
        if les[-1] != float("inf"):
            errors.append(f"histogram {family!r}: missing le=\"+Inf\" "
                          f"bucket")
        if family not in counts:
            errors.append(f"histogram {family!r}: missing _count")
        elif les[-1] == float("inf") and cumulative[-1] != counts[family]:
            errors.append(f"histogram {family!r}: +Inf bucket "
                          f"{cumulative[-1]} != _count {counts[family]}")
        if family not in sums:
            errors.append(f"histogram {family!r}: missing _sum")

    scrape = [v for _, name, _, v in samples
              if name == "rta_scrape_time_seconds"]
    if not scrape:
        errors.append("missing rta_scrape_time_seconds gauge")
    elif not scrape[-1] > 0:
        errors.append(f"rta_scrape_time_seconds not positive: {scrape[-1]}")

    for family in required:
        if family not in families_seen:
            errors.append(f"required family {family!r} not present")
    for family in positive:
        values = [v for _, name, _, v in samples
                  if family_of(name, types) == family]
        if not values:
            errors.append(f"required family {family!r} not present")
        elif not max(values) > 0:
            errors.append(f"family {family!r} is never above zero")
    if not samples:
        errors.append("no samples found")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="Prometheus text exposition file")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="metric family that must be present "
                             "(repeatable)")
    parser.add_argument("--require-positive", action="append", default=[],
                        metavar="NAME",
                        help="metric family that must be present with a "
                             "sample above zero (repeatable)")
    args = parser.parse_args()
    try:
        errors = check(args.file, args.require, args.require_positive)
    except OSError as exc:
        errors = [str(exc)]
    if errors:
        print(f"prometheus {args.file}: INVALID", file=sys.stderr)
        for e in errors[:20]:
            print(f"  - {e}", file=sys.stderr)
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    print(f"prometheus {args.file}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
