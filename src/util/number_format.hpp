// The one double formatter: the bytes C-locale printf writes for a %g
// conversion at precision 17.
//
// Seventeen significant digits round-trip every IEEE double bit-exactly,
// and %g drops trailing zeros, so integral values print as "4", not
// "4.0000000000000000". std::to_chars with chars_format::general and
// precision 17 is specified as that printf conversion in the C locale, so
// the bytes stay the same while the call needs no locale, no format-string
// parse and no allocation. JSON dumps, metric exports and CLI number columns
// all go through here.
#pragma once

#include <charconv>
#include <string>

namespace rta {

/// Append `v` to `out` as C-locale printf %g at precision 17 ("inf",
/// "-inf", "nan" and "-nan" for the non-finite values).
inline void append_double(std::string& out, double v) {
  // Longest output: '-', 17 digits, '.', "e-308" = 24 bytes.
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

}  // namespace rta
