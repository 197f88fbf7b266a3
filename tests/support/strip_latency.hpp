// Drop the wall-clock `latency_us` field from a service response stream, so
// two runs' responses can be compared byte for byte: every
// `,"latency_us":` and the value after it, up to (not including) the next
// ',' or '}' or the end of the text. A plain scan: GCC 12 at -O1 with
// -Werror rejects libstdc++'s regex engine (a false -Wmaybe-uninitialized).
#pragma once

#include <string>
#include <string_view>

namespace rta {

[[nodiscard]] inline std::string strip_latency(std::string_view responses) {
  static constexpr std::string_view kField = ",\"latency_us\":";
  std::string out;
  out.reserve(responses.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t hit = responses.find(kField, pos);
    if (hit == std::string_view::npos) break;
    out.append(responses, pos, hit - pos);
    pos = responses.find_first_of(",}", hit + kField.size());
    if (pos == std::string_view::npos) return out;
  }
  out.append(responses, pos, std::string_view::npos);
  return out;
}

}  // namespace rta
