#include "io/json.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

#include "util/json_escape.hpp"
#include "util/number_format.hpp"

namespace rta::json {

namespace {

void newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

// ASCII classes, not <cctype>: isalnum follows LC_CTYPE, and the number
// path stays independent of every locale category.
bool is_ascii_digit(char c) { return c >= '0' && c <= '9'; }
bool is_ascii_alnum(char c) {
  return is_ascii_digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// Whether a grammar-valid JSON number token has magnitude below 1, from
/// the decimal order of its first significant digit plus its exponent.
/// Asked only of a token from_chars found out of range, where a negative
/// order means underflow and any other means overflow.
bool magnitude_below_one(std::string_view tok) {
  const std::size_t exp_at = std::min(tok.find_first_of("eE"), tok.size());
  const std::string_view mant = tok.substr(0, exp_at);
  const std::size_t int_end = std::min(mant.find('.'), mant.size());
  const std::size_t lead = mant.find_first_not_of("-0.");
  if (lead == std::string_view::npos) return true;  // zero
  std::int64_t order = lead < int_end
                           ? static_cast<std::int64_t>(int_end - lead) - 1
                           : -static_cast<std::int64_t>(lead - int_end);
  // Saturate the exponent: past the cap the token is out of range either
  // way, and the cap keeps `order + exp` far from int64 overflow.
  constexpr std::int64_t kExpCap = std::int64_t{1} << 40;
  std::int64_t exp = 0;
  std::size_t j = exp_at + 1;
  const bool neg_exp = j < tok.size() && tok[j] == '-';
  if (j < tok.size() && (tok[j] == '+' || tok[j] == '-')) ++j;
  for (; j < tok.size(); ++j) {
    exp = std::min(exp * 10 + (tok[j] - '0'), kExpCap);
  }
  order += neg_exp ? -exp : exp;
  return order < 0;
}

/// Recursive-descent parser over a flat byte buffer.
struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = "offset " + std::to_string(pos) + ": " + msg;
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0) return false;
    pos += len;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) break;
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (surrogate pairs unsupported; the serializers
            // only emit \u00xx control escapes).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail(std::string("bad escape '\\") + esc + "'");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (consume('-')) {}
    // Greedily take every char a malformed number could contain, so the
    // error message shows the whole offending token (e.g. "12abc" inside an
    // array) instead of stopping at the first bad char.
    while (pos < text.size() &&
           (is_ascii_alnum(text[pos]) || text[pos] == '.' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    const std::string_view tok(text.data() + start, pos - start);
    // Validate the exact JSON grammar before converting:
    //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // from_chars alone is too permissive ("inf", "nan", "1.", "01", ".5").
    // Both steps are locale-free, so acceptance and value mean the same in
    // every locale.
    std::size_t i = 0;
    auto digit = [&](std::size_t j) {
      return j < tok.size() && is_ascii_digit(tok[j]);
    };
    bool grammar_ok = [&] {
      if (i < tok.size() && tok[i] == '-') ++i;
      if (!digit(i)) return false;
      if (tok[i] == '0') {
        ++i;  // a leading zero stands alone ("01" is not JSON)
      } else {
        while (digit(i)) ++i;
      }
      if (i < tok.size() && tok[i] == '.') {
        ++i;
        if (!digit(i)) return false;
        while (digit(i)) ++i;
      }
      if (i < tok.size() && (tok[i] == 'e' || tok[i] == 'E')) {
        ++i;
        if (i < tok.size() && (tok[i] == '+' || tok[i] == '-')) ++i;
        if (!digit(i)) return false;
        while (digit(i)) ++i;
      }
      return i == tok.size();
    }();
    if (!grammar_ok) {
      pos = start;
      return fail("bad number '" + std::string(tok) + "'");
    }
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec == std::errc::result_out_of_range) {
      // from_chars leaves v unset on both overflow and underflow. JSON has
      // no Infinity, so an overflowed literal is an error (dump() could not
      // round-trip it); an underflow reads as a signed zero, as strtod does.
      if (!magnitude_below_one(tok)) {
        pos = start;
        return fail("number out of range '" + std::string(tok) + "'");
      }
      v = tok[0] == '-' ? -0.0 : 0.0;
    } else if (ec != std::errc() || end != tok.data() + tok.size()) {
      pos = start;
      return fail("bad number '" + std::string(tok) + "'");
    }
    out = Value(v);
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > 128) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') {
      if (!literal("null", 4)) return fail("bad literal");
      out = Value(nullptr);
      return true;
    }
    if (c == 't') {
      if (!literal("true", 4)) return fail("bad literal");
      out = Value(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false", 5)) return fail("bad literal");
      out = Value(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Value(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      Value::Array arr;
      skip_ws();
      if (consume(']')) {
        out = Value(std::move(arr));
        return true;
      }
      while (true) {
        Value elem;
        if (!parse_value(elem, depth + 1)) return false;
        arr.push_back(std::move(elem));
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) return fail("expected ',' or ']' in array");
      }
      out = Value(std::move(arr));
      return true;
    }
    if (c == '{') {
      ++pos;
      Value::Object obj;
      skip_ws();
      if (consume('}')) {
        out = Value(std::move(obj));
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        for (const auto& [k, unused] : obj) {
          (void)unused;
          if (k == key) return fail("duplicate key \"" + key + "\"");
        }
        skip_ws();
        if (!consume(':')) return fail("expected ':' after key");
        Value member;
        if (!parse_value(member, depth + 1)) return false;
        obj.emplace_back(std::move(key), std::move(member));
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) return fail("expected ',' or '}' in object");
      }
      out = Value(std::move(obj));
      return true;
    }
    return parse_number(out);
  }
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::set(const std::string& key, Value v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  assert(kind_ == Kind::kObject);
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

void Value::dump_into(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      append_double(out, num_);
      return;
    case Kind::kString:
      out += '"';
      append_json_escaped(out, str_);
      out += '"';
      return;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent >= 0) newline_indent(out, indent, depth + 1);
        arr_[i].dump_into(out, indent, depth + 1);
      }
      if (indent >= 0) newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        if (indent >= 0) newline_indent(out, indent, depth + 1);
        out += '"';
        append_json_escaped(out, k);
        out += "\":";
        if (indent >= 0) out += ' ';
        v.dump_into(out, indent, depth + 1);
      }
      if (indent >= 0) newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_into(out, indent, 0);
  return out;
}

ParseResult parse(const std::string& text) {
  ParseResult result;
  Parser p(text);
  Value v;
  if (!p.parse_value(v, 0)) {
    result.error = p.error;
    return result;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    p.fail("trailing characters after document");
    result.error = p.error;
    return result;
  }
  result.ok = true;
  result.value = std::move(v);
  return result;
}

std::optional<std::int64_t> checked_integer(const Value& v, std::int64_t lo,
                                            std::int64_t hi) {
  if (!v.is_number()) return std::nullopt;
  const double x = v.as_number();
  // Range first (NaN fails it too): only then is the cast below defined.
  if (!(x >= static_cast<double>(lo) && x <= static_cast<double>(hi))) {
    return std::nullopt;
  }
  // Integral exactly when truncation leaves the bit pattern unchanged.
  if (std::bit_cast<std::uint64_t>(std::trunc(x)) !=
      std::bit_cast<std::uint64_t>(x)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(x);
}

}  // namespace rta::json
