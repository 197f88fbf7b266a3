// The one JSON string escaper: the bytes between the quotes of a JSON
// string literal.
//
// '"', '\\', LF, TAB and CR take their two-character escapes; every other
// control byte below 0x20 is written as \u00XX with lowercase hex digits;
// everything else, UTF-8 continuation bytes included, is copied as is. JSON
// dumps, the metrics export and the Chrome trace export all go through
// here, so one name is spelled the same way in each of them.
#pragma once

#include <string>
#include <string_view>

namespace rta {

/// Append `s` to `out` escaped for the inside of a JSON string literal.
inline void append_json_escaped(std::string& out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
          out.append(esc, sizeof(esc));
        } else {
          out += c;
        }
      }
    }
  }
}

}  // namespace rta
