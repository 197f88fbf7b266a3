#!/usr/bin/env python3
"""Validate `rta_cli serve` JSONL responses (stdlib only).

Usage:
    check_service.py --responses out.jsonl [--requests in.jsonl]
                     [--multi-tenant] [--tenant NAME=REFERENCE.jsonl ...]

Checks, per response line (docs/api.md "Request schema v2"):
  * valid JSON object with "schema_version": 2, request (1-based,
    consecutive), line, op;
  * trace_id is a non-empty string on EVERY response (parse errors
    included) -- the service echoes the propagated id or mints one;
  * ok is a bool; ok=false responses carry an 'error' OBJECT {code,
    message, retryable} with code drawn from a closed set and retryable
    true only for overloaded/timeout; ok=true responses carry none, and
    no response carries a top-level 'retry' or 'timeout' marker;
  * admit/what_if/remove responses with ok=true carry admitted/committed/
    incremental bools, integer job_id/dirty_subjobs/total_subjobs, and
    numeric schedulable/max_wcrt/horizon fields ("inf" allowed for wcrt);
  * admit/what_if responses with ok=true carry an 'explain' object with
    numeric wcrt/deadline, integer dominant_hop/doublings, and a per-hop
    bound provenance list (docs/observability.md);
  * what_if never commits; admit commits iff admitted;
  * what_if_region responses with ok=true carry a 'region' object with
    an axes list, integer probes/incremental_probes, and exactly one of
    a 'boundary' object or a 'columns' array of {value, boundary};
  * query responses carry jobs/schedulable/max_wcrt/horizon;
  * stats responses with ok=true carry counters/gauges/histograms objects;
    each histogram summary has numeric count/p50/p90/p99/max with
    p50 <= p90 <= p99;
  * latency_us is a non-negative number on EVERY response (parse errors
    included).

With --requests, additionally checks that the number of responses equals
the number of request lines (blank and '#' lines skipped) and that the ops
match line by line.

Multi-tenant mode (`rta_cli serve --tenants-from`, docs/api.md):

  * --multi-tenant: the 'request'/'line' indices count within each
    response's 'tenant' bucket (responses without a tenant echo form the
    "untenanted" bucket), each bucket 1-based and consecutive, while the
    global op order still matches the request file line by line.
  * --tenant NAME=REFERENCE.jsonl (repeatable): the NAME bucket's
    responses must be byte-identical -- modulo the latency_us field --
    to REFERENCE.jsonl, a plain single-tenant serve of just that
    tenant's request lines.  This is the determinism contract of the
    sharded front end, checked end to end.

Exit status: 0 when everything validates, 1 otherwise.
"""

import argparse
import json
import re
import sys

KNOWN_OPS = {"admit", "what_if", "what_if_region", "remove", "query", "stats"}

# Closed error-code vocabulary of the response schema (docs/api.md).
ERROR_CODES = {
    "bad_request", "not_found", "conflict", "invalid_argument",
    "unavailable", "overloaded", "timeout", "internal",
}
RETRYABLE_CODES = {"overloaded", "timeout"}


def load_jsonl(path):
    """Yield (line_number, parsed_or_None, raw) for non-comment lines."""
    with open(path, "r", encoding="utf-8") as f:
        for n, raw in enumerate(f, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                yield n, json.loads(stripped), stripped
            except json.JSONDecodeError:
                yield n, None, stripped


def is_time(value):
    return isinstance(value, (int, float)) or value == "inf"


def check_envelope(resp, where, errors):
    """Validate the schema stamp and the error shape of one response."""
    if resp.get("schema_version") != 2:
        errors.append(
            f"{where}: schema_version {resp.get('schema_version')!r}, "
            f"expected 2")
    for marker in ("retry", "timeout"):
        if marker in resp:
            errors.append(f"{where}: top-level '{marker}' marker")
    err = resp.get("error")
    if resp.get("ok") is False:
        if not isinstance(err, dict):
            errors.append(f"{where}: ok=false without an error object")
            return
        code = err.get("code")
        if code not in ERROR_CODES:
            errors.append(f"{where}: unknown error code {code!r}")
        message = err.get("message")
        if not isinstance(message, str) or not message:
            errors.append(f"{where}: error missing non-empty 'message'")
        retryable = err.get("retryable")
        if not isinstance(retryable, bool):
            errors.append(f"{where}: error missing bool 'retryable'")
        elif retryable and code not in RETRYABLE_CODES:
            errors.append(f"{where}: retryable=true with code {code!r}")
    elif err is not None:
        errors.append(f"{where}: 'error' on an ok response")


def check_decision_fields(resp, where, errors):
    for key in ("admitted", "committed", "incremental"):
        if not isinstance(resp.get(key), bool):
            errors.append(f"{where}: missing bool '{key}'")
    for key in ("job_id", "dirty_subjobs", "total_subjobs"):
        if not isinstance(resp.get(key), (int, float)):
            errors.append(f"{where}: missing numeric '{key}'")
    if not isinstance(resp.get("schedulable"), bool):
        errors.append(f"{where}: missing bool 'schedulable'")
    if not is_time(resp.get("max_wcrt")):
        errors.append(f"{where}: missing time 'max_wcrt'")
    if not isinstance(resp.get("horizon"), (int, float)):
        errors.append(f"{where}: missing numeric 'horizon'")
    op = resp.get("op")
    if op == "what_if" and resp.get("committed"):
        errors.append(f"{where}: what_if must never commit")
    if op == "admit" and resp.get("committed") != resp.get("admitted"):
        errors.append(f"{where}: admit must commit iff admitted")
    if op in ("admit", "what_if"):
        check_explain(resp.get("explain"), where, errors)


def check_explain(explain, where, errors):
    """Bound-provenance payload on ok admit/what_if (docs/observability.md)."""
    if not isinstance(explain, dict):
        errors.append(f"{where}: missing 'explain' object")
        return
    for key in ("wcrt", "deadline"):
        if not is_time(explain.get(key)):
            errors.append(f"{where}: explain missing time '{key}'")
    for key in ("dominant_hop", "doublings"):
        if not isinstance(explain.get(key), int):
            errors.append(f"{where}: explain missing integer '{key}'")
    hops = explain.get("hops")
    if not isinstance(hops, list) or not hops:
        errors.append(f"{where}: explain needs a non-empty 'hops' list")
        return
    for i, hop in enumerate(hops):
        if not isinstance(hop, dict):
            errors.append(f"{where}: explain hop {i} is not an object")
            continue
        if hop.get("hop") != i:
            errors.append(f"{where}: explain hop {i} has index "
                          f"{hop.get('hop')!r}")
        if not isinstance(hop.get("processor"), int):
            errors.append(f"{where}: explain hop {i} missing 'processor'")
        if not is_time(hop.get("bound")):
            errors.append(f"{where}: explain hop {i} missing time 'bound'")
    dom = explain.get("dominant_hop")
    if isinstance(dom, int) and not 0 <= dom < len(hops):
        errors.append(f"{where}: dominant_hop {dom} outside hops")


def check_boundary(boundary, where, errors):
    """1-D feasibility boundary (docs/api.md what_if_region contract)."""
    if not isinstance(boundary, dict):
        errors.append(f"{where}: boundary is not an object")
        return
    for key in ("empty", "open"):
        if not isinstance(boundary.get(key), bool):
            errors.append(f"{where}: boundary missing bool '{key}'")
    if not isinstance(boundary.get("probes"), int):
        errors.append(f"{where}: boundary missing integer 'probes'")
    # feasible is reported unless the region is empty; infeasible unless
    # it is open (the bracket's hi end was still feasible).
    if boundary.get("empty") is False and \
            not isinstance(boundary.get("feasible"), (int, float)):
        errors.append(f"{where}: non-empty boundary missing 'feasible'")
    if boundary.get("open") is False and \
            not isinstance(boundary.get("infeasible"), (int, float)):
        errors.append(f"{where}: closed boundary missing 'infeasible'")


def check_region_fields(resp, where, errors):
    region = resp.get("region")
    if not isinstance(region, dict):
        errors.append(f"{where}: missing 'region' object")
        return
    axes = region.get("axes")
    if not isinstance(axes, list) or not axes:
        errors.append(f"{where}: region needs a non-empty 'axes' list")
    else:
        for i, axis in enumerate(axes):
            if not isinstance(axis, dict) or \
                    not isinstance(axis.get("param"), str):
                errors.append(f"{where}: region axis {i} missing 'param'")
    for key in ("probes", "incremental_probes"):
        if not isinstance(region.get(key), int):
            errors.append(f"{where}: region missing integer '{key}'")
    if not isinstance(region.get("horizon"), (int, float)):
        errors.append(f"{where}: region missing numeric 'horizon'")
    boundary = region.get("boundary")
    columns = region.get("columns")
    if (boundary is None) == (columns is None):
        errors.append(
            f"{where}: region needs exactly one of 'boundary'/'columns'")
    elif boundary is not None:
        check_boundary(boundary, where, errors)
    elif not isinstance(columns, list) or not columns:
        errors.append(f"{where}: region 'columns' must be a non-empty list")
    else:
        for i, col in enumerate(columns):
            if not isinstance(col, dict) or \
                    not isinstance(col.get("value"), (int, float)):
                errors.append(f"{where}: region column {i} missing 'value'")
                continue
            check_boundary(col.get("boundary"), f"{where} column {i}", errors)


def check_stats_fields(resp, where, errors):
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(resp.get(section), dict):
            errors.append(f"{where}: stats missing object '{section}'")
    for name, h in (resp.get("histograms") or {}).items():
        if not isinstance(h, dict):
            errors.append(f"{where}: stats histogram {name!r} not an object")
            continue
        for key in ("count", "p50", "p90", "p99", "max"):
            if not isinstance(h.get(key), (int, float)):
                errors.append(
                    f"{where}: stats histogram {name!r} missing '{key}'")
        quantiles = [h.get("p50"), h.get("p90"), h.get("p99")]
        if all(isinstance(q, (int, float)) for q in quantiles):
            if not quantiles[0] <= quantiles[1] <= quantiles[2]:
                errors.append(
                    f"{where}: stats histogram {name!r} quantiles not "
                    f"monotone: {quantiles}")
            if h.get("count", 0) > 0 and quantiles[2] <= 0:
                errors.append(
                    f"{where}: stats histogram {name!r} has observations "
                    f"but p99 <= 0")


def check_responses(path, expected_ops, multi_tenant=False):
    errors = []
    seen = 0
    bucket_seen = {}  # tenant name (or "" = untenanted) -> responses so far
    for n, resp, raw in load_jsonl(path):
        where = f"{path}:{n}"
        if resp is None:
            errors.append(f"{where}: invalid JSON: {raw[:60]}")
            continue
        if not isinstance(resp, dict):
            errors.append(f"{where}: response is not an object")
            continue
        seen += 1
        if multi_tenant:
            tenant = resp.get("tenant")
            if tenant is not None and not isinstance(tenant, str):
                errors.append(f"{where}: non-string 'tenant' echo")
                tenant = None
            bucket = tenant or ""
            bucket_seen[bucket] = bucket_seen.get(bucket, 0) + 1
            expected_index = bucket_seen[bucket]
        else:
            expected_index = seen
        if resp.get("request") != expected_index:
            errors.append(
                f"{where}: request index {resp.get('request')!r}, "
                f"expected {expected_index}")
        if not isinstance(resp.get("line"), int):
            errors.append(f"{where}: missing integer 'line'")
        trace_id = resp.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            errors.append(f"{where}: missing non-empty 'trace_id'")
        op = resp.get("op")
        ok = resp.get("ok")
        if not isinstance(ok, bool):
            errors.append(f"{where}: missing bool 'ok'")
            continue
        latency = resp.get("latency_us")
        if not isinstance(latency, (int, float)) or latency < 0:
            errors.append(f"{where}: bad latency_us {latency!r}")
        check_envelope(resp, where, errors)
        if not isinstance(op, str):
            # op is omitted only for requests too malformed to echo one.
            if ok:
                errors.append(f"{where}: ok=true without 'op'")
            continue
        if expected_ops is not None:
            if seen > len(expected_ops):
                errors.append(f"{where}: more responses than requests")
            elif expected_ops[seen - 1] != "?" and op != expected_ops[seen - 1]:
                errors.append(
                    f"{where}: op {op!r}, request file says "
                    f"{expected_ops[seen - 1]!r}")
        if not ok:
            continue
        if op not in KNOWN_OPS:
            errors.append(f"{where}: ok=true for unknown op {op!r}")
        elif op == "query":
            if not isinstance(resp.get("jobs"), int):
                errors.append(f"{where}: query missing integer 'jobs'")
            if not isinstance(resp.get("schedulable"), bool):
                errors.append(f"{where}: query missing bool 'schedulable'")
            if not is_time(resp.get("max_wcrt")):
                errors.append(f"{where}: query missing time 'max_wcrt'")
        elif op == "stats":
            check_stats_fields(resp, where, errors)
        elif op == "what_if_region":
            check_region_fields(resp, where, errors)
        else:
            check_decision_fields(resp, where, errors)
    if seen == 0:
        errors.append(f"{path}: no responses found")
    if expected_ops is not None and seen < len(expected_ops):
        errors.append(
            f"{path}: {seen} responses for {len(expected_ops)} requests")
    return errors


LATENCY_RE = re.compile(r',"latency_us":[^,}]+')


def check_tenant_identity(responses_path, name, reference_path):
    """Byte-compare one tenant's responses against its solo reference run,
    with the (wall-clock) latency_us field stripped from both sides."""
    errors = []
    got = []
    for n, resp, raw in load_jsonl(responses_path):
        if isinstance(resp, dict) and resp.get("tenant") == name:
            got.append((n, LATENCY_RE.sub("", raw)))
    want = [(n, LATENCY_RE.sub("", raw))
            for n, _, raw in load_jsonl(reference_path)]
    if len(got) != len(want):
        errors.append(
            f"tenant {name!r}: {len(got)} responses in {responses_path}, "
            f"reference {reference_path} has {len(want)}")
    for (gn, g), (wn, w) in zip(got, want):
        if g != w:
            errors.append(
                f"tenant {name!r}: {responses_path}:{gn} differs from "
                f"{reference_path}:{wn}\n      got:  {g[:120]}\n"
                f"      want: {w[:120]}")
            break  # one divergence pins the bug; later diffs are cascade
    return errors


def request_ops(path):
    ops = []
    for n, req, raw in load_jsonl(path):
        if isinstance(req, dict) and isinstance(req.get("op"), str):
            ops.append(req["op"])
        else:
            ops.append("?")  # malformed request still yields one response
    return ops


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--responses", required=True,
                        help="JSONL written by `rta_cli serve --out`")
    parser.add_argument("--requests",
                        help="the request JSONL that produced the responses")
    parser.add_argument("--multi-tenant", action="store_true",
                        help="responses come from `serve --tenants-from`: "
                             "request/line indices count per tenant bucket")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="NAME=REFERENCE.jsonl",
                        help="check the NAME bucket byte-identical (modulo "
                             "latency_us) to this single-tenant reference "
                             "run; implies --multi-tenant")
    args = parser.parse_args()
    if args.tenant:
        args.multi_tenant = True

    expected = request_ops(args.requests) if args.requests else None
    try:
        errors = check_responses(args.responses, expected,
                                 multi_tenant=args.multi_tenant)
        for spec in args.tenant:
            name, sep, reference = spec.partition("=")
            if not sep or not name or not reference:
                errors.append(f"bad --tenant spec {spec!r}, "
                              f"want NAME=REFERENCE.jsonl")
                continue
            errors.extend(
                check_tenant_identity(args.responses, name, reference))
    except OSError as exc:
        errors = [str(exc)]
    if errors:
        print(f"service responses {args.responses}: INVALID", file=sys.stderr)
        for e in errors[:20]:
            print(f"  - {e}", file=sys.stderr)
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    print(f"service responses {args.responses}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
