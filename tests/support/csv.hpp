// Minimal CSV emission for experiment results: the output helper of the
// figure benches and their tests, in the test-only rta_test_support library.
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace rta {

/// Accumulates rows and writes RFC-4180-ish CSV (fields quoted on demand).
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Append one row; the caller is responsible for matching the header arity.
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Convenience: build a row from streamable values.
  template <typename... Ts>
  void add(const Ts&... values) {
    std::vector<std::string> row;
    row.reserve(sizeof...(values));
    (row.push_back(to_field(values)), ...);
    add_row(std::move(row));
  }

  void write(std::ostream& os) const {
    write_line(os, header_);
    for (const auto& row : rows_) write_line(os, row);
  }

  /// Write to a file; returns false (and prints to stderr) on failure.
  bool write_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "CsvWriter: cannot open " << path << "\n";
      return false;
    }
    write(os);
    return os.good();
  }

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  template <typename T>
  static std::string to_field(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      return v;
    } else if constexpr (std::is_convertible_v<T, const char*>) {
      return std::string(v);
    } else {
      std::ostringstream ss;
      ss << v;
      return ss.str();
    }
  }

  static void write_line(std::ostream& os,
                         const std::vector<std::string>& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) os << ',';
      os << quote(fields[i]);
    }
    os << '\n';
  }

  static std::string quote(const std::string& f) {
    if (f.find_first_of(",\"\n") == std::string::npos) return f;
    std::string out = "\"";
    for (char c : f) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rta
