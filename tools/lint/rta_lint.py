#!/usr/bin/env python3
"""rta-lint: static determinism checks for the bursty-rta codebase.

The engine's reproducibility contract (bit-identical results at any thread
count, byte-identical service responses) can be silently broken by a handful
of C++ idioms that no compiler warning covers: reading the wall clock in
analysis code, iterating an unordered container into serialized output,
comparing doubles with ==, or locking a mutex outside the annotated RAII
vocabulary of util/thread_annotations.hpp. This linter bans those idioms with
a small token-aware scanner -- no libclang, stdlib only -- so it runs
anywhere ctest runs.

Rules (see docs/static-analysis.md for the catalog with rationale):
  wallclock       wall-clock / ambient-randomness calls outside src/obs/
                  and bench/
  unordered-iter  iteration over unordered_{map,set} in output-producing
                  functions or anywhere under src/io/
  float-eq        == / != on float-typed operands outside the approved
                  epsilon helpers (util/time.hpp)
  naked-lock      .lock()/.unlock()/.try_lock() member calls outside
                  src/util/ (use rta::MutexLock)
  raw-mutex       std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable outside src/util/ (use the
                  annotated rta::Mutex vocabulary)
  unchecked-json-field  as_object()[...] / as_array()[...] subscripting
                  outside src/io/ (go through the checked find()/at()
                  accessors)
  bad-suppression an `rta-lint: allow(...)` comment with no reason text

Suppressions: `// rta-lint: allow(<rule>[, <rule>...]) <reason>` suppresses
findings of those rules on the same line, or on the next line when the
comment stands alone. The reason is mandatory.

Baseline: findings fingerprinted in the baseline file (default
tools/lint/rta_lint_baseline.json) are reported but do not fail the run, so
the rule set can tighten without blocking on legacy code. Regenerate with
--write-baseline after deliberate changes. Fingerprints are line-move
tolerant: path + rule + normalized snippet content + an occurrence index,
never a line number. The v2 baseline stores them as a list; the legacy v1
format ({fingerprint: count}) is migrated transparently on load.

Exit status: 0 when no new (non-baselined, non-suppressed) findings,
1 when there are new findings, 2 on usage errors.
"""

import argparse
import hashlib
import json
import os
import re
import sys

RULE_DOCS = {
    "wallclock": "wall-clock or ambient-randomness call in deterministic code",
    "unordered-iter": "unordered-container iteration feeding an output path",
    "float-eq": "== / != on floating-point operands (use util/time.hpp)",
    "naked-lock": "naked mutex .lock()/.unlock() (use rta::MutexLock)",
    "raw-mutex": "raw std mutex primitive (use util/thread_annotations.hpp)",
    "unchecked-json-field": "unchecked JSON subscript access (use the "
                            "checked find()/at() accessors)",
    "bad-suppression": "rta-lint: allow(...) comment without a reason",
}

# Paths (relative to the repo root, prefix match) where a rule does not
# apply. The obs layer measures wall time by design; bench binaries report
# it; the Prometheus exporter stamps scrape time (src/service/metrics_export
# renders wall-clock-derived payloads, never analysis inputs); util/time.hpp
# *is* the approved epsilon helper; util/ implements the annotated lock
# vocabulary the other rules push everyone toward.
RULE_EXEMPT_PREFIXES = {
    "wallclock": ("src/obs/", "bench/", "src/service/metrics_export"),
    "float-eq": ("src/util/time.hpp",),
    "naked-lock": ("src/util/",),
    "raw-mutex": ("src/util/",),
    "unchecked-json-field": ("src/io/",),
}

WALLCLOCK_IDS = {
    "system_clock",
    "utc_clock",
    "random_device",
    "gettimeofday",
    "localtime",
    "gmtime",
    "timespec_get",
}
# Banned only when spelled as a call (`rand()`, `std::time(...)`): the bare
# words are common as member names (`Span::finish` is fine, `.time()` on a
# struct is fine).
WALLCLOCK_CALLS = {"rand", "srand", "time", "clock"}

UNORDERED_TYPES = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}

FLOAT_TYPES = {"double", "float", "Time"}

# A function is an output path when its name says it produces serialized /
# printed / exported bytes. Files under src/io/ are output paths wholesale.
OUTPUT_FN_RE = re.compile(
    r"(json|csv|dump|write|print|serial|export|chrome|snapshot|report|emit|"
    r"save|to_string|str)",
    re.IGNORECASE,
)
OUTPUT_PATH_PREFIXES = ("src/io/",)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "do"}

SUPPRESS_RE = re.compile(
    r"rta-lint:\s*allow\(([a-z*][a-z0-9_*,\s-]*)\)\s*(.*)", re.IGNORECASE
)

TOKEN_RE = re.compile(
    r"""
      (?P<id>[A-Za-z_]\w*)
    | (?P<num>
        0[xX][0-9a-fA-F'.pP+-]+
      | (?:\d[\d']*\.?[\d']*|\.\d[\d']*)(?:[eE][+-]?\d+)?[fFlLuU]*
      )
    | (?P<punct>->|::|==|!=|<=|>=|&&|\|\||<<|>>|[{}()\[\];,<>=!&|*+\-/.:?%^~#])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind
        self.value = value
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, L{self.line})"


def lex(text):
    """Token stream plus per-line comment text and code-bearing line set.

    Strings and character literals are collapsed to single `str`/`chr`
    tokens; comments are stripped from the stream but recorded (joined per
    line) so suppression comments survive.
    """
    tokens = []
    comments = {}  # line -> comment text
    code_lines = set()
    i, n, line = 0, len(text), 1

    def add_comment(start_line, body):
        if start_line in comments:
            comments[start_line] += " " + body
        else:
            comments[start_line] = body

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            if end == -1:
                end = n
            add_comment(line, text[i + 2 : end].strip())
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                end = n
            add_comment(line, text[i + 2 : end].strip())
            line += text.count("\n", i, end)
            i = end + 2
            continue
        if c == '"' or text.startswith(('R"', 'u8R"', 'uR"', 'UR"', 'LR"'), i):
            # Raw string: R"delim( ... )delim"
            if c != '"':
                q = text.find('"', i)
                paren = text.find("(", q)
                delim = text[q + 1 : paren]
                closer = ")" + delim + '"'
                end = text.find(closer, paren)
                if end == -1:
                    end = n
                else:
                    end += len(closer)
                tokens.append(Token("str", text[i:end], line))
                code_lines.add(line)
                line += text.count("\n", i, end)
                i = end
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", text[i : j + 1], line))
            code_lines.add(line)
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("chr", text[i : j + 1], line))
            code_lines.add(line)
            i = j + 1
            continue
        m = TOKEN_RE.match(text, i)
        if m is None:
            i += 1
            continue
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(), line))
        code_lines.add(line)
        i = m.end()
    return tokens, comments, code_lines


def is_float_literal(value):
    if value.startswith(("0x", "0X")):
        return "p" in value or "P" in value
    base = value.rstrip("fFlLuU")
    stripped = value.replace("'", "")
    return ("." in base) or (
        ("e" in stripped or "E" in stripped) and not stripped.endswith(("u", "U"))
    )


def match_forward(tokens, i, open_p="(", close_p=")"):
    """Index just past the bracket pair opening at tokens[i], or None."""
    depth = 0
    j = i
    while j < len(tokens):
        v = tokens[j].value
        if v == open_p:
            depth += 1
        elif v == close_p:
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return None


def skip_template_args(tokens, i):
    """Index just past a template argument list opening at tokens[i] ('<')."""
    depth = 0
    j = i
    while j < len(tokens):
        v = tokens[j].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif v == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif v in (";", "{"):
            return None  # not a template list after all
        j += 1
    return None


def function_spans(tokens):
    """For each token index, the name of the innermost enclosing function.

    Heuristic: a `{` preceded (modulo trailing qualifiers) by a `(...)`
    parameter list whose head is an identifier that is not a control keyword
    opens a function body named after that identifier. Braces that do not
    match the pattern (namespaces, classes, lambdas, initializers) inherit
    the surrounding name. Good enough for rule scoping; it does not need to
    be a parser.
    """
    names = [None] * len(tokens)
    stack = []  # (name or None) per open brace
    qualifier_ok = {"const", "noexcept", "override", "final", "mutable",
                    "&", "&&", "->", "try"}
    for i, tok in enumerate(tokens):
        if tok.value == "{" and tok.kind == "punct":
            name = stack[-1] if stack else None
            j = i - 1
            # Skip trailing return types conservatively: walk back over
            # qualifier tokens and simple type names until a ')' or give up.
            steps = 0
            while j >= 0 and steps < 8 and (
                tokens[j].value in qualifier_ok or tokens[j].kind == "id"
            ):
                if tokens[j].value == ")":
                    break
                j -= 1
                steps += 1
            if j >= 0 and tokens[j].value == ")":
                depth = 0
                k = j
                while k >= 0:
                    if tokens[k].value == ")":
                        depth += 1
                    elif tokens[k].value == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k > 0 and tokens[k - 1].kind == "id" and (
                    tokens[k - 1].value not in CONTROL_KEYWORDS
                ):
                    name = tokens[k - 1].value
            stack.append(name)
        elif tok.value == "}" and tok.kind == "punct":
            if stack:
                stack.pop()
        names[i] = stack[-1] if stack else None
    return names


class Finding:
    def __init__(self, path, line, rule, message, snippet):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.snippet = snippet
        self.suppressed = False
        self.baselined = False

    def fingerprint(self):
        norm = " ".join(self.snippet.split())
        digest = hashlib.sha1(norm.encode("utf-8")).hexdigest()[:16]
        return f"{self.path}:{self.rule}:{digest}"

    def as_json(self):
        return {
            "file": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }


class FileLint:
    def __init__(self, path, rel, text, rules):
        self.path = path
        self.rel = rel
        self.text = text
        self.rules = rules
        self.lines = text.splitlines()
        self.tokens, self.comments, self.code_lines = lex(text)
        self.findings = []

    def exempt(self, rule):
        return self.rel.startswith(RULE_EXEMPT_PREFIXES.get(rule, ()))

    def snippet(self, line):
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def report(self, line, rule, message):
        if rule in self.rules and not self.exempt(rule):
            self.findings.append(
                Finding(self.rel, line, rule, message, self.snippet(line))
            )

    # --- rules ----------------------------------------------------------

    def check_wallclock(self):
        toks = self.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "id":
                continue
            if tok.value in WALLCLOCK_IDS:
                self.report(
                    tok.line,
                    "wallclock",
                    f"'{tok.value}' is nondeterministic; analysis code uses "
                    "steady_clock durations (src/obs/) or seeded util/rng.hpp "
                    "streams only",
                )
            elif tok.value in WALLCLOCK_CALLS:
                nxt = toks[i + 1] if i + 1 < len(toks) else None
                prv = toks[i - 1] if i > 0 else None
                if nxt is None or nxt.value != "(":
                    continue
                if prv is not None and prv.value in (".", "->"):
                    continue  # member call on some object, not libc
                if prv is not None and prv.value == "::" and (
                    i < 2 or toks[i - 2].value != "std"
                ):
                    continue  # qualified by something other than std
                self.report(
                    tok.line,
                    "wallclock",
                    f"'{tok.value}()' reads ambient state; derive time from "
                    "steady_clock (obs layer only) and randomness from "
                    "util/rng.hpp",
                )

    def _unordered_vars(self):
        names = set()
        toks = self.tokens
        i = 0
        while i < len(toks):
            if toks[i].kind == "id" and toks[i].value in UNORDERED_TYPES:
                j = i + 1
                if j < len(toks) and toks[j].value == "<":
                    j = skip_template_args(toks, j)
                    if j is None:
                        i += 1
                        continue
                while j < len(toks) and toks[j].value in ("&", "*", "const"):
                    j += 1
                if j < len(toks) and toks[j].kind == "id":
                    names.add(toks[j].value)
            i += 1
        return names

    def check_unordered_iter(self):
        unordered = self._unordered_vars()
        if not unordered:
            return
        toks = self.tokens
        fn_names = function_spans(toks)
        file_is_output = self.rel.startswith(OUTPUT_PATH_PREFIXES)
        for i, tok in enumerate(toks):
            if tok.kind != "id" or tok.value != "for":
                continue
            if i + 1 >= len(toks) or toks[i + 1].value != "(":
                continue
            end = match_forward(toks, i + 1)
            if end is None:
                continue
            # Range-for: a top-level ':' inside the parens.
            colon = None
            depth = 0
            for j in range(i + 1, end - 1):
                v = toks[j].value
                if v in ("(", "[", "{"):
                    depth += 1
                elif v in (")", "]", "}"):
                    depth -= 1
                elif v == ":" and depth == 1:
                    colon = j
                    break
            if colon is None:
                continue
            iterated = [
                t.value
                for t in toks[colon + 1 : end - 1]
                if t.kind == "id" and t.value in unordered
            ]
            if not iterated:
                continue
            fn = fn_names[i]
            in_output = file_is_output or (
                fn is not None and OUTPUT_FN_RE.search(fn)
            )
            if in_output:
                where = f"'{fn}'" if fn else "an output path"
                self.report(
                    tok.line,
                    "unordered-iter",
                    f"iterating unordered container '{iterated[0]}' in "
                    f"{where}: hash order is unspecified and breaks "
                    "byte-identical output; sort first or use an ordered "
                    "container",
                )

    def _float_vars(self):
        names = set()
        toks = self.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "id" or tok.value not in FLOAT_TYPES:
                continue
            j = i + 1
            while j < len(toks) and toks[j].value in ("&", "*", "const"):
                j += 1
            while j < len(toks) and toks[j].kind == "id":
                name = toks[j].value
                nxt = toks[j + 1] if j + 1 < len(toks) else None
                if nxt is not None and nxt.value == "(":
                    break  # function returning double, not a variable
                if nxt is not None and nxt.kind == "id":
                    break  # `double x, OtherType y`: toks[j] is a type name
                names.add(name)
                if nxt is not None and nxt.value == ",":  # double a, b;
                    j += 2
                    continue
                break
        return names

    def check_float_eq(self):
        float_vars = self._float_vars()
        toks = self.tokens
        for i, tok in enumerate(toks):
            if tok.value not in ("==", "!=") or tok.kind != "punct":
                continue
            prv = toks[i - 1] if i > 0 else None
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            # Skip a unary minus/plus in front of a literal operand.
            if nxt is not None and nxt.value in ("-", "+") and i + 2 < len(toks):
                nxt = toks[i + 2]
            # A comparison against nullptr is a pointer test, even when the
            # pointer's name is declared double elsewhere in the file.
            if any(t is not None and t.value == "nullptr" for t in (prv, nxt)):
                continue
            operand_hits = []
            for t in (prv, nxt):
                if t is None:
                    continue
                if t.kind == "num" and is_float_literal(t.value):
                    operand_hits.append(t.value)
                elif t.kind == "id" and t.value in float_vars:
                    operand_hits.append(t.value)
            if operand_hits:
                self.report(
                    tok.line,
                    "float-eq",
                    f"'{tok.value}' on floating-point operand "
                    f"'{operand_hits[0]}': exact double comparison is "
                    "representation-sensitive; use time_eq/time_le "
                    "(util/time.hpp) or compare bit patterns explicitly",
                )

    def check_naked_lock(self):
        toks = self.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "id" or tok.value not in ("lock", "unlock",
                                                     "try_lock"):
                continue
            prv = toks[i - 1] if i > 0 else None
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if prv is None or prv.value not in (".", "->"):
                continue
            if nxt is None or nxt.value != "(":
                continue
            self.report(
                tok.line,
                "naked-lock",
                f"naked '.{tok.value}()' call: scope the capability with "
                "rta::MutexLock so Clang's -Wthread-safety can prove the "
                "protocol",
            )

    def check_raw_mutex(self):
        toks = self.tokens
        banned = {
            "mutex",
            "recursive_mutex",
            "shared_mutex",
            "timed_mutex",
            "lock_guard",
            "unique_lock",
            "scoped_lock",
            "shared_lock",
            "condition_variable",
            "condition_variable_any",
        }
        for i, tok in enumerate(toks):
            if tok.kind != "id" or tok.value not in banned:
                continue
            if i < 2 or toks[i - 1].value != "::" or toks[i - 2].value != "std":
                continue
            self.report(
                tok.line,
                "raw-mutex",
                f"'std::{tok.value}' outside util/: use the annotated "
                "rta::Mutex / rta::MutexLock / rta::CondVar vocabulary "
                "(util/thread_annotations.hpp)",
            )

    def check_unchecked_json_field(self):
        toks = self.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "id" or tok.value not in ("as_object", "as_array"):
                continue
            prv = toks[i - 1] if i > 0 else None
            if prv is None or prv.value not in (".", "->"):
                continue
            if i + 2 >= len(toks) or toks[i + 1].value != "(" \
                    or toks[i + 2].value != ")":
                continue
            if i + 3 >= len(toks) or toks[i + 3].value != "[":
                continue
            self.report(
                tok.line,
                "unchecked-json-field",
                f"subscripting '.{tok.value}()[...]' bypasses bounds/key "
                "checking; use find()/at() so malformed input fails loudly "
                "instead of corrupting the response",
            )

    # --- suppression ----------------------------------------------------

    def apply_suppressions(self):
        allow = {}  # line -> set of rules
        for line, text in self.comments.items():
            m = SUPPRESS_RE.search(text)
            if m is None:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            reason = m.group(2).strip()
            # A standalone comment (possibly spanning several comment-only
            # lines) suppresses the next line that carries code.
            target = line
            if target not in self.code_lines:
                last = len(self.lines)
                target += 1
                while target <= last and target not in self.code_lines:
                    target += 1
            if not reason:
                self.report(
                    line,
                    "bad-suppression",
                    "suppression without a reason: write "
                    "`rta-lint: allow(<rule>) <why this is safe>`",
                )
                continue
            allow.setdefault(target, set()).update(rules)
        for f in self.findings:
            rules = allow.get(f.line)
            if rules and ("*" in rules or f.rule in rules):
                f.suppressed = True

    def run(self):
        self.check_wallclock()
        self.check_unordered_iter()
        self.check_float_eq()
        self.check_naked_lock()
        self.check_raw_mutex()
        self.check_unchecked_json_field()
        self.apply_suppressions()
        return self.findings


def iter_source_files(paths):
    exts = (".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h")
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(exts):
                        yield os.path.join(dirpath, name)
        else:
            raise FileNotFoundError(p)


def indexed_fingerprints(findings):
    """(fingerprint, finding) pairs with occurrence indices.

    Findings sharing (path, rule, normalized snippet) get `#0`, `#1`, ... in
    sorted (line) order, so identity survives line moves but duplicate
    findings on distinct lines stay distinct.
    """
    counts = {}
    out = []
    for f in findings:
        base = f.fingerprint()
        k = counts.get(base, 0)
        counts[base] = k + 1
        out.append((f"{base}#{k}", f))
    return out


def load_baseline(path):
    """Fingerprint set from a v1 (counts) or v2 (indexed list) baseline."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict) or "fingerprints" not in data:
        raise ValueError(f"{path}: not a baseline file")
    fps = data["fingerprints"]
    if isinstance(fps, dict):
        # v1 stored {fingerprint: count}; expand each count to occurrence
        # indices so old baselines keep working unchanged.
        out = set()
        for fp, count in fps.items():
            for k in range(int(count)):
                out.add(f"{fp}#{k}")
        return out
    if isinstance(fps, list):
        return set(fps)
    raise ValueError(f"{path}: 'fingerprints' must be an object or a list")


def write_baseline(path, findings):
    fps = sorted(fp for fp, f in indexed_fingerprints(findings)
                 if not f.suppressed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 2, "fingerprints": fps}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return len(fps)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rta_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--root", default=None,
                        help="repo root for path normalization and rule "
                             "exemptions (default: two levels above this "
                             "script)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule subset to run")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "<root>/tools/lint/rta_lint_baseline.json)")
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
            print(f"{name:15s} {RULE_DOCS[name]}")
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(script_dir, "..", ".."))
    paths = args.paths or [os.path.join(root, "src")]

    rules = set(RULE_DOCS)
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = rules - set(RULE_DOCS)
        if unknown:
            print(f"rta-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules.add("bad-suppression")

    baseline_path = args.baseline or os.path.join(
        root, "tools", "lint", "rta_lint_baseline.json")
    baseline = set()
    if not args.no_baseline and not args.write_baseline:
        if os.path.exists(baseline_path):
            try:
                baseline = load_baseline(baseline_path)
            except (ValueError, json.JSONDecodeError) as e:
                print(f"rta-lint: bad baseline: {e}", file=sys.stderr)
                return 2

    findings = []
    files_scanned = 0
    try:
        for path in iter_source_files(paths):
            abspath = os.path.abspath(path)
            rel = os.path.relpath(abspath, root)
            if rel.startswith(".."):
                rel = abspath
            rel = rel.replace(os.sep, "/")
            with open(abspath, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
            files_scanned += 1
            findings.extend(FileLint(abspath, rel, text, rules).run())
    except FileNotFoundError as e:
        print(f"rta-lint: no such path: {e}", file=sys.stderr)
        return 2

    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.write_baseline:
        count = write_baseline(baseline_path, findings)
        print(f"rta-lint: baseline written: {baseline_path} "
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
        print(f"rta-lint: {files_scanned} files, {len(new)} new finding(s), "
              f"{len(baselined)} baselined, {len(suppressed)} suppressed")

    if args.json_out:
        report = {
            "tool": "rta-lint",
            "version": 1,
            "root": root,
            "files_scanned": files_scanned,
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
