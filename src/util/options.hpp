// Tiny command-line option parser for bench/example binaries.
//
// Supports --key=value, --key value, and boolean --flag forms; parsing
// never throws. Caveat: "--flag token" greedily binds token as the flag's
// value, so put positional arguments before flags or use --flag=1.
#pragma once

#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace rta {

class Options {
 public:
  /// Parse argv; returns false (and prints usage hint) on malformed input.
  static Options parse(int argc, char** argv) {
    Options opts;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        opts.positional_.push_back(arg);
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        opts.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        opts.values_[arg] = argv[++i];
      } else {
        opts.values_[arg] = std::string("1");
      }
    }
    return opts;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  [[nodiscard]] double get_double(const std::string& key, double def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    return (end && *end == '\0') ? v : def;
  }

  [[nodiscard]] long long get_int(const std::string& key, long long def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    return (end && *end == '\0') ? v : def;
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    return it->second != "0" && it->second != "false";
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  /// All flag names present, sorted (map order); for unknown-flag checks.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& [key, value] : values_) {
      (void)value;
      out.push_back(key);
    }
    return out;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rta
