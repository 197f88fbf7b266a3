#!/usr/bin/env python3
"""rta-archcheck: whole-program architecture checks for the bursty-rta codebase.

Where rta-lint bans single-line idioms, this tool checks invariants that only
exist across files: the layer DAG of the include graph, the global lock-order
graph, unit discipline across arithmetic, and the wire contract between the
service layer and docs/api.md. Same engineering envelope as rta-lint: token
aware, stdlib only, no libclang, runs anywhere ctest runs.

Passes and rules (see docs/static-analysis.md for the catalog):
  layering     layer-upward    an #include from a lower layer to a higher one
                               (the DAG is util -> {model, curve} ->
                               {analysis, sim, workload, io, obs} ->
                               service -> eval; within-layer includes are
                               fine)
               include-cycle   any cycle in the file-level include graph
  lock-order   lock-order-cycle  a cycle in the global mutex acquisition-order
                               graph built from rta::MutexLock sites plus
                               RTA_REQUIRES / RTA_ACQUIRE annotations
               guarded-write   a write to an RTA_GUARDED_BY field outside any
                               scope that holds (or is annotated to require)
                               the guard
  units        unit-mix        identifiers with different time-unit suffixes
                               (_ns/_us/_ms/_s) combined in one expression
                               without a util/time.hpp conversion helper
               unit-factor     a unit-suffixed identifier scaled by a bare
                               power-of-1000 literal instead of a conversion
                               helper
  schema       schema-undocumented  a response field emitted by the service
                               layer but missing from the field reference in
                               docs/api.md
               schema-phantom  a field documented in docs/api.md that no
                               service code emits
  test-only    test-only-src   a src/ header that only tests and benches
                               include, or that nothing includes (its own
                               .cpp aside)
  (always on)  bad-suppression an `rta-archcheck: allow(...)` comment with no
                               reason text

Suppressions: `// rta-archcheck: allow(<rule>[, <rule>...]) <reason>` works
exactly like rta-lint's, on the same line or the next code line.

Baseline: same fingerprint workflow as rta-lint (v2 format: occurrence-indexed
content fingerprints, line-move tolerant). The checked-in expectation is an
EMPTY baseline -- violations get fixed, not baselined; the file exists for
emergencies and migrations.

Exit status: 0 when no new (non-baselined, non-suppressed) findings,
1 when there are new findings, 2 on usage errors.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from rta_lint import (  # noqa: E402
    Finding,
    function_spans,
    indexed_fingerprints,
    iter_source_files,
    lex,
    load_baseline,
    write_baseline,
)

RULE_DOCS = {
    "layer-upward": "#include against the layer DAG (lower layer includes "
                    "higher)",
    "include-cycle": "cycle in the file-level #include graph",
    "lock-order-cycle": "cycle in the global mutex acquisition-order graph",
    "guarded-write": "write to an RTA_GUARDED_BY field outside the guard's "
                     "scope",
    "unit-mix": "mixed time-unit suffixes in one expression without a "
                "conversion helper",
    "unit-factor": "unit-suffixed identifier scaled by a bare power-of-1000 "
                   "literal",
    "schema-undocumented": "service response field missing from docs/api.md",
    "schema-phantom": "documented response field no service code emits",
    "test-only-src": "src/ header reached only by tests and benches, or by "
                     "nothing",
    "bad-suppression": "rta-archcheck: allow(...) comment without a reason",
}

# Layer ranks of the directories under src/. An #include may only point at
# the same rank or lower. Unknown directories (and files directly in src/)
# are exempt from the layering pass.
LAYER_RANK = {
    "util": 0,
    "model": 1,
    "curve": 1,
    "analysis": 2,
    "sim": 2,
    "workload": 2,
    "io": 2,
    "obs": 2,
    "service": 3,
    "eval": 4,
}

# The lock-order pass models the annotation vocabulary, so the header that
# defines it (raw .lock() calls under RTA_ACQUIRE) is out of scope.
LOCK_EXEMPT_PREFIXES = ("src/util/thread_annotations.hpp",)

# util/time.hpp implements the conversion helpers, so its bodies legitimately
# contain bare factors.
UNIT_EXEMPT_PREFIXES = ("src/util/time.hpp",)

UNIT_SUFFIXES = ("_ns", "_us", "_ms", "_s")
CONVERSION_HELPERS = {"ms_to_us", "us_to_ms", "s_to_us", "us_to_s",
                      "ns_to_us"}
POWER_OF_1000 = {"1000", "1000.0", "1e3", "1e6", "1e9", "1000000",
                 "1000000000", "0.001", "1e-3", "1e-6", "1e-9", "1'000",
                 "1'000'000"}
ARITH_OPS = {"+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!="}

# Directories whose .set("...") calls (json::Value payloads) and .field("...")
# calls (the request codec's response writer) constitute the wire contract.
SCHEMA_EMIT_PREFIXES = ("src/service/",)

MUTATING_CALLS = {"push_back", "emplace_back", "pop_back", "clear", "erase",
                  "insert", "emplace", "resize", "assign", "reserve", "swap",
                  "reset"}

SUPPRESS_RE = re.compile(
    r"rta-archcheck:\s*allow\(([a-z*][a-z0-9_*,\s-]*)\)\s*(.*)", re.IGNORECASE
)

INCLUDE_RE = re.compile(r'\s*#\s*include\s+"([^"]+)"')

# test-only-src: shipped code vs test/bench harnesses (lint fixture corpora
# are inputs, not includers).
SHIPPED_DIRS = ("src", "tools", "examples")
TEST_ONLY_DIRS = ("tests", "bench", "perfbench")

DOC_FIELD_RE = re.compile(r"^[-*]\s+`([A-Za-z_][A-Za-z0-9_.]*)`")
MARK_BEGIN = "<!-- archcheck:fields:begin -->"
MARK_END = "<!-- archcheck:fields:end -->"


def unit_of(name):
    """The time-unit suffix of an identifier, or None."""
    stem = name.rstrip("_")
    for suf in ("_ns", "_us", "_ms"):
        if stem.endswith(suf):
            return suf
    if stem.endswith("_s") and len(stem) > 2:
        return "_s"
    return None


def normalize_expr(tokens):
    """Canonical text of a mutex expression: `this->` stripped, `&` dropped."""
    parts = [t.value for t in tokens if t.value not in ("&",)]
    text = "".join(parts)
    if text.startswith("this->"):
        text = text[len("this->"):]
    return text


def last_component(expr):
    """The final identifier of an access path (`impl_->mutex` -> `mutex`)."""
    return re.split(r"->|\.", expr)[-1]


def guard_matches(guard, held):
    """Whether holding `held` satisfies guard expression `guard`.

    Last components must agree; a qualifier mismatch only counts when both
    sides carry one (a guard declared as plain `mutex` is satisfied by
    `impl_->mutex` -- the declaration sits inside the struct the qualifier
    navigates to).
    """
    if last_component(guard) != last_component(held):
        return False
    gq = guard[: -len(last_component(guard))]
    hq = held[: -len(last_component(held))]
    return gq == hq or not gq or not hq


class SourceFile:
    """A lexed source file plus its per-pass extraction results."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tokens, self.comments, self.code_lines = lex(text)
        self.stem = os.path.splitext(os.path.basename(rel))[0]

    def snippet(self, line):
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def includes(self):
        """Quoted includes as (line, path) pairs."""
        return [(i, m.group(1)) for i, line in enumerate(self.lines, start=1)
                if (m := INCLUDE_RE.match(line))]


class Analyzer:
    def __init__(self, files, rules, api_doc_path, api_doc_rel, root):
        self.files = files
        self.rules = rules
        self.api_doc_path = api_doc_path
        self.api_doc_rel = api_doc_rel
        self.root = root
        self.findings = []
        self.errors = []

    def report(self, src, line, rule, message, snippet=None):
        if rule not in self.rules:
            return
        if snippet is None:
            snippet = src.snippet(line) if src is not None else ""
        rel = src.rel if src is not None else self.api_doc_rel
        self.findings.append(Finding(rel, line, rule, message, snippet))

    # --- layering -------------------------------------------------------

    @staticmethod
    def layer_of(rel):
        parts = rel.split("/")
        if len(parts) >= 3 and parts[0] == "src":
            return parts[1]
        return None

    def check_layering(self):
        by_include_path = {}
        for src in self.files:
            if src.rel.startswith("src/"):
                by_include_path[src.rel[len("src/"):]] = src

        graph = {}  # rel -> list of (line, target rel)
        for src in self.files:
            own_layer = self.layer_of(src.rel)
            edges = []
            for line, inc in src.includes():
                target = by_include_path.get(inc)
                if target is not None:
                    edges.append((line, target.rel))
                inc_layer = inc.split("/")[0] if "/" in inc else None
                if (
                    own_layer in LAYER_RANK
                    and inc_layer in LAYER_RANK
                    and LAYER_RANK[inc_layer] > LAYER_RANK[own_layer]
                ):
                    self.report(
                        src, line, "layer-upward",
                        f"'{src.rel}' (layer {own_layer}) includes "
                        f"'{inc}' (layer {inc_layer}): the layer DAG is "
                        "util -> {model, curve} -> {analysis, sim, workload, "
                        "io, obs} -> service -> eval; invert "
                        "the dependency or move the file",
                    )
            graph[src.rel] = edges

        # File-level include cycles: iterative DFS with colors; report each
        # cycle once, at its first file in scan order.
        color = {}  # rel -> 1 visiting, 2 done
        reported = set()

        def visit(start):
            stack = [(start, iter(graph.get(start, ())))]
            color[start] = 1
            path = [start]
            while stack:
                node, it = stack[-1]
                advanced = False
                for line, nxt in it:
                    if color.get(nxt) == 1:
                        cycle = tuple(path[path.index(nxt):] + [nxt])
                        if frozenset(cycle) not in reported:
                            reported.add(frozenset(cycle))
                            src = next(
                                f for f in self.files if f.rel == node)
                            self.report(
                                src, line, "include-cycle",
                                "include cycle: " + " -> ".join(cycle),
                            )
                    elif color.get(nxt) is None:
                        color[nxt] = 1
                        path.append(nxt)
                        stack.append((nxt, iter(graph.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    path.pop()
                    stack.pop()

        for src in self.files:
            if color.get(src.rel) is None:
                visit(src.rel)

    # --- lock order -----------------------------------------------------

    def _lock_walk(self, src, on_acquire, on_write=None, guarded=None):
        """Walk `src` tracking brace depth and held MutexLock scopes.

        Calls on_acquire(tok_index, mutex_name, held_list) at each
        acquisition; when on_write is given, calls
        on_write(tok_index, field, held_list, fn_name) for each write to a
        field in `guarded`.
        """
        toks = src.tokens
        fn_names = function_spans(toks)
        depth = 0
        held = []  # list of (depth, qualified mutex expr)
        pending = []  # REQUIRES/ACQUIRE exprs awaiting the next '{'
        i = 0
        while i < len(toks):
            tok = toks[i]
            v = tok.value
            if tok.kind == "punct":
                if v == "{":
                    depth += 1
                    for expr in pending:
                        held.append((depth, expr))
                    pending = []
                elif v == "}":
                    while held and held[-1][0] >= depth:
                        held.pop()
                    depth -= 1
                elif v == ";":
                    pending = []
                i += 1
                continue
            if tok.kind == "id" and v in ("RTA_REQUIRES", "RTA_ACQUIRE"):
                j = i + 1
                if j < len(toks) and toks[j].value == "(":
                    k = j + 1
                    d = 1
                    start = k
                    while k < len(toks) and d > 0:
                        if toks[k].value == "(":
                            d += 1
                        elif toks[k].value == ")":
                            d -= 1
                        k += 1
                    expr = normalize_expr(toks[start:k - 1])
                    if expr:
                        pending.append(expr)
                    i = k
                    continue
            if tok.kind == "id" and v == "MutexLock":
                j = i + 1
                if j < len(toks) and toks[j].kind == "id" \
                        and j + 1 < len(toks) and toks[j + 1].value == "(":
                    k = j + 2
                    d = 1
                    start = k
                    while k < len(toks) and d > 0:
                        if toks[k].value == "(":
                            d += 1
                        elif toks[k].value == ")":
                            d -= 1
                        k += 1
                    expr = normalize_expr(toks[start:k - 1])
                    if expr:
                        on_acquire(i, expr, [h for _, h in held])
                        held.append((depth, expr))
                    i = k
                    continue
            if on_write is not None and tok.kind == "id" and guarded \
                    and v in guarded:
                if self._is_write(toks, i):
                    prefix = self._access_prefix(toks, i)
                    on_write(i, v, prefix, [h for _, h in held], fn_names[i])
            i += 1

    @staticmethod
    def _is_write(toks, i):
        """Whether the identifier at i is the target of a mutation."""
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        prv = toks[i - 1] if i > 0 else None
        if prv is not None and prv.value in ("++", "--"):
            return True
        if nxt is None:
            return False
        if nxt.value in ("=", "+=", "-=", "*=", "/=", "++", "--", "|=", "&=",
                         "^=", "%=", "<<=", ">>="):
            return nxt.value != "=" or (
                i + 2 >= len(toks) or toks[i + 2].value != "="
            )  # exclude `==`
        if nxt.value in (".", "->") and i + 2 < len(toks):
            m = toks[i + 2]
            if m.kind == "id" and m.value in MUTATING_CALLS \
                    and i + 3 < len(toks) and toks[i + 3].value == "(":
                return True
        return False

    @staticmethod
    def _access_prefix(toks, i):
        """The access path leading to the identifier at i (may be '')."""
        parts = []
        j = i - 1
        while j > 0 and toks[j].value in (".", "->") \
                and toks[j - 1].kind == "id":
            parts.append(toks[j].value)
            parts.append(toks[j - 1].value)
            j -= 2
        return "".join(reversed(parts))

    def _guarded_fields(self, src):
        """{field name: guard expr} from RTA_GUARDED_BY declarations."""
        out = {}
        toks = src.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "id" or tok.value != "RTA_GUARDED_BY":
                continue
            prv = toks[i - 1] if i > 0 else None
            if prv is None or prv.kind != "id":
                continue
            j = i + 1
            if j >= len(toks) or toks[j].value != "(":
                continue
            k = j + 1
            d = 1
            start = k
            while k < len(toks) and d > 0:
                if toks[k].value == "(":
                    d += 1
                elif toks[k].value == ")":
                    d -= 1
                k += 1
            expr = normalize_expr(toks[start:k - 1])
            if expr:
                out[prv.value] = expr
        return out

    def _class_names(self, src):
        names = set()
        toks = src.tokens
        for i, tok in enumerate(toks):
            if tok.kind == "id" and tok.value in ("class", "struct") \
                    and i + 1 < len(toks) and toks[i + 1].kind == "id":
                names.add(toks[i + 1].value)
        return names

    def check_locks(self):
        # Mutex nodes are qualified by file stem: `mutex_` in metrics.cpp and
        # `mutex_` in analyzer.cpp are different objects and must not share a
        # node in the order graph. Header/impl pairs share a stem.
        edges = {}  # (a, b) -> (src, line)
        for src in self.files:
            if src.rel.startswith(LOCK_EXEMPT_PREFIXES):
                continue
            guarded = self._guarded_fields(src)
            classes = self._class_names(src)
            node = lambda expr: f"{src.stem}:{expr}"  # noqa: E731

            def on_acquire(i, expr, held, src=src, node=node):
                for h in held:
                    a, b = node(h), node(expr)
                    if a != b and (a, b) not in edges:
                        edges[(a, b)] = (src, src.tokens[i].line)

            def on_write(i, field, prefix, held, fn,
                         src=src, guarded=guarded, classes=classes):
                guard = guarded[field]
                if any(guard_matches(guard, h) for h in held):
                    return
                if fn is None:
                    return  # declaration-scope token, not a function body
                if fn in classes or fn == src.stem:
                    return  # constructor/destructor: single-owner phase
                tok = src.tokens[i]
                self.report(
                    src, tok.line, "guarded-write",
                    f"'{field}' is RTA_GUARDED_BY({guard}) but '{fn}' "
                    "writes it without holding the guard (take a "
                    "rta::MutexLock or annotate RTA_REQUIRES)",
                )

            self._lock_walk(src, on_acquire,
                            on_write if guarded else None, guarded)

        # Cycle detection over the acquisition-order graph.
        adj = {}
        for (a, b), site in edges.items():
            adj.setdefault(a, []).append(b)
        color = {}

        def visit(start):
            stack = [(start, iter(adj.get(start, ())))]
            color[start] = 1
            path = [start]
            while stack:
                nodename, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color.get(nxt) == 1:
                        cycle = path[path.index(nxt):] + [nxt]
                        src, line = edges[(nodename, nxt)]
                        self.report(
                            src, line, "lock-order-cycle",
                            "potential deadlock: lock order cycle "
                            + " -> ".join(cycle),
                        )
                    elif color.get(nxt) is None:
                        color[nxt] = 1
                        path.append(nxt)
                        stack.append((nxt, iter(adj.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[nodename] = 2
                    path.pop()
                    stack.pop()

        for a in adj:
            if color.get(a) is None:
                visit(a)

    # --- units ----------------------------------------------------------

    def check_units(self):
        for src in self.files:
            if src.rel.startswith(UNIT_EXEMPT_PREFIXES):
                continue
            toks = src.tokens
            # Split into statements at ; { } boundaries.
            start = 0
            for i in range(len(toks) + 1):
                boundary = i == len(toks) or (
                    toks[i].kind == "punct" and toks[i].value in (";", "{",
                                                                  "}")
                )
                if not boundary:
                    continue
                stmt = toks[start:i]
                start = i + 1
                if not stmt:
                    continue
                ids = [t for t in stmt if t.kind == "id"]
                if any(t.value in CONVERSION_HELPERS for t in ids):
                    continue
                units = {}
                for t in ids:
                    u = unit_of(t.value)
                    if u is not None:
                        units.setdefault(u, t)
                has_arith = any(
                    t.kind == "punct" and t.value in ARITH_OPS for t in stmt
                )
                if len(units) > 1 and has_arith:
                    offenders = sorted(
                        units.values(), key=lambda t: (t.line, t.value))
                    names = ", ".join(f"'{t.value}'" for t in offenders)
                    self.report(
                        src, offenders[0].line, "unit-mix",
                        f"mixed time units in one expression ({names}): "
                        "convert explicitly with the util/time.hpp helpers "
                        "(ms_to_us, ns_to_us, ...)",
                    )
                    continue
                # Bare power-of-1000 factor on a unit-carrying identifier.
                for j, t in enumerate(stmt):
                    if t.kind != "punct" or t.value not in ("*", "/"):
                        continue
                    a = stmt[j - 1] if j > 0 else None
                    b = stmt[j + 1] if j + 1 < len(stmt) else None
                    for x, y in ((a, b), (b, a)):
                        if x is None or y is None:
                            continue
                        if x.kind == "id" and unit_of(x.value) \
                                and y.kind == "num" \
                                and y.value in POWER_OF_1000:
                            self.report(
                                src, t.line, "unit-factor",
                                f"'{x.value}' scaled by bare literal "
                                f"{y.value}: use a util/time.hpp conversion "
                                "helper so the unit change is explicit",
                            )
                            break

    # --- schema ---------------------------------------------------------

    def _emitted_fields(self):
        """{key: [(src, line), ...]} for every .set("key") or .field("key")
        in the service."""
        out = {}
        for src in self.files:
            if not src.rel.startswith(SCHEMA_EMIT_PREFIXES):
                continue
            toks = src.tokens
            for i, tok in enumerate(toks):
                if tok.kind != "id" or tok.value not in ("set", "field"):
                    continue
                prv = toks[i - 1] if i > 0 else None
                if prv is None or prv.value not in (".", "->"):
                    continue
                if i + 2 >= len(toks) or toks[i + 1].value != "(":
                    continue
                arg = toks[i + 2]
                if arg.kind != "str" or not arg.value.startswith('"'):
                    continue
                key = arg.value.strip('"')
                out.setdefault(key, []).append((src, arg.line))
        return out

    def _documented_fields(self):
        """{field: doc line} from the fenced reference in docs/api.md."""
        try:
            with open(self.api_doc_path, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            self.errors.append(f"cannot read api doc: {e}")
            return None
        fields = {}
        inside = False
        saw_markers = False
        for n, line in enumerate(lines, start=1):
            if MARK_BEGIN in line:
                inside = True
                saw_markers = True
                continue
            if MARK_END in line:
                inside = False
                continue
            if inside:
                m = DOC_FIELD_RE.match(line.strip())
                if m:
                    fields[m.group(1)] = n
        if not saw_markers:
            self.errors.append(
                f"{self.api_doc_rel}: no '{MARK_BEGIN}' marker; the schema "
                "pass needs the fenced response-field reference")
            return None
        return fields

    def check_schema(self):
        if not (self.rules & {"schema-undocumented", "schema-phantom"}):
            return
        emitted = self._emitted_fields()
        if not any(
            src.rel.startswith(SCHEMA_EMIT_PREFIXES) for src in self.files
        ):
            return  # nothing in scope (e.g. linting a single non-service dir)
        documented = self._documented_fields()
        if documented is None:
            return
        for key in sorted(emitted):
            if key in documented:
                continue
            src, line = emitted[key][0]
            self.report(
                src, line, "schema-undocumented",
                f"response field '{key}' is emitted but not documented in "
                f"{self.api_doc_rel}'s response field reference",
            )
        for key in sorted(documented):
            if key in emitted:
                continue
            self.report(
                None, documented[key], "schema-phantom",
                f"documented response field '{key}' is never emitted by "
                "the service layer (stale docs or dead contract)",
                snippet=f"`{key}`",
            )

    # --- test-only ------------------------------------------------------

    def check_test_only(self):
        if "test-only-src" not in self.rules:
            return
        includers = {}  # include path -> {includer rel, ...}
        for top in SHIPPED_DIRS + TEST_ONLY_DIRS:
            base = os.path.join(self.root, top)
            if not os.path.isdir(base):
                continue
            for path in iter_source_files([base]):
                rel = os.path.relpath(path, self.root).replace(os.sep, "/")
                if "/fixtures/" in rel:
                    continue
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    for m in filter(None, map(INCLUDE_RE.match, f)):
                        includers.setdefault(m.group(1), set()).add(rel)
        for src in self.files:
            if not (src.rel.startswith("src/")
                    and src.rel.endswith((".hpp", ".h"))):
                continue
            own_cpp = os.path.splitext(src.rel)[0] + ".cpp"
            users = includers.get(src.rel[len("src/"):], set()) - {own_cpp}
            if not users:
                message = (f"'{src.rel}' is included by nothing (its own "
                           ".cpp aside): no shipped code reaches it, so "
                           "delete it")
            elif all(u.split("/")[0] in TEST_ONLY_DIRS for u in users):
                message = (f"'{src.rel}' is included only by tests/benches ("
                           + ", ".join(sorted(users)) + "): move it to "
                           "tests/support/ (rta_test_support) so the shipped "
                           "libraries hold no test-only code")
            else:
                continue
            # At the first code line, where an allow() comment reaches.
            self.report(src, min(src.code_lines, default=1), "test-only-src",
                        message)

    # --- suppression ----------------------------------------------------

    def apply_suppressions(self):
        allow = {}  # (rel, line) -> rules
        for src in self.files:
            for line, text in src.comments.items():
                m = SUPPRESS_RE.search(text)
                if m is None:
                    continue
                rules = {r.strip() for r in m.group(1).split(",")
                         if r.strip()}
                reason = m.group(2).strip()
                target = line
                if target not in src.code_lines:
                    last = len(src.lines)
                    target += 1
                    while target <= last and target not in src.code_lines:
                        target += 1
                if not reason:
                    self.report(
                        src, line, "bad-suppression",
                        "suppression without a reason: write "
                        "`rta-archcheck: allow(<rule>) <why this is safe>`",
                    )
                    continue
                allow.setdefault((src.rel, target), set()).update(rules)
        for f in self.findings:
            rules = allow.get((f.path, f.line))
            if rules and ("*" in rules or f.rule in rules):
                f.suppressed = True

    def run(self):
        self.check_layering()
        self.check_locks()
        self.check_units()
        self.check_schema()
        self.check_test_only()
        self.apply_suppressions()
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rta_archcheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to check (default: src)")
    parser.add_argument("--root", default=None,
                        help="repo root for path normalization (default: two "
                             "levels above this script)")
    parser.add_argument("--api-doc", default=None,
                        help="API doc with the response field reference "
                             "(default: <root>/docs/api.md)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule subset to run")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "<root>/tools/lint/rta_archcheck_baseline.json)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from this run's findings")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write a JSON report to this path ('-' stdout)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-finding human output")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULE_DOCS):
            print(f"{name:20s} {RULE_DOCS[name]}")
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(script_dir, "..", ".."))
    paths = args.paths or [os.path.join(root, "src")]
    api_doc = os.path.abspath(
        args.api_doc or os.path.join(root, "docs", "api.md"))
    api_doc_rel = os.path.relpath(api_doc, root).replace(os.sep, "/")
    if api_doc_rel.startswith(".."):
        api_doc_rel = api_doc

    rules = set(RULE_DOCS)
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = rules - set(RULE_DOCS)
        if unknown:
            print("rta-archcheck: unknown rule(s): "
                  + ", ".join(sorted(unknown)), file=sys.stderr)
            return 2
        rules.add("bad-suppression")

    baseline_path = args.baseline or os.path.join(
        root, "tools", "lint", "rta_archcheck_baseline.json")
    baseline = set()
    if not args.no_baseline and not args.write_baseline:
        if os.path.exists(baseline_path):
            try:
                baseline = load_baseline(baseline_path)
            except (ValueError, json.JSONDecodeError) as e:
                print(f"rta-archcheck: bad baseline: {e}", file=sys.stderr)
                return 2

    files = []
    try:
        for path in iter_source_files(paths):
            abspath = os.path.abspath(path)
            rel = os.path.relpath(abspath, root)
            if rel.startswith(".."):
                rel = abspath
            rel = rel.replace(os.sep, "/")
            with open(abspath, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
            files.append(SourceFile(abspath, rel, text))
    except FileNotFoundError as e:
        print(f"rta-archcheck: no such path: {e}", file=sys.stderr)
        return 2

    analyzer = Analyzer(files, rules, api_doc, api_doc_rel, root)
    findings = analyzer.run()
    if analyzer.errors:
        for e in analyzer.errors:
            print(f"rta-archcheck: {e}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(baseline_path, findings)
        print(f"rta-archcheck: baseline written: {baseline_path} "
              f"({count} fingerprints)")
        return 0

    for fp, f in indexed_fingerprints(findings):
        if not f.suppressed and fp in baseline:
            f.baselined = True

    new = [f for f in findings if not f.suppressed and not f.baselined]
    suppressed = [f for f in findings if f.suppressed]
    baselined = [f for f in findings if f.baselined]

    if not args.quiet:
        for f in new:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
            if f.snippet:
                print(f"    {f.snippet}")
        print(f"rta-archcheck: {len(files)} files, {len(new)} new "
              f"finding(s), {len(baselined)} baselined, "
              f"{len(suppressed)} suppressed")

    if args.json_out:
        report = {
            "tool": "rta-archcheck",
            "version": 1,
            "root": root,
            "files_scanned": len(files),
            "rules": [
                {"name": name, "description": RULE_DOCS[name]}
                for name in sorted(rules)
            ],
            "findings": [f.as_json() for f in findings],
            "counts": {
                "new": len(new),
                "baselined": len(baselined),
                "suppressed": len(suppressed),
            },
        }
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.json_out == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload)

    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
