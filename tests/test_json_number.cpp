// The JSON number codec (io/json.cpp over util/number_format.hpp) against
// the C library it replaced: dump() must write the bytes of C-locale
// printf("%.17g") and parse() must read the value strtod reads, over a
// million seeded doubles plus the special values, while staying independent
// of the process locale. snprintf and strtod appear here only as oracles.
#include <bit>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.hpp"

namespace rta {
namespace {

using Limits = std::numeric_limits<double>;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Shortest string that reads back as `v` (to_chars without a precision).
std::string shortest(double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double strtod_c(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

/// The value parse() reads from a bare-number document; fails the test when
/// the document does not parse.
double parse_number(const std::string& text) {
  const json::ParseResult r = json::parse(text);
  EXPECT_TRUE(r.ok) << text << ": " << r.error;
  return r.ok ? r.value.as_number() : Limits::quiet_NaN();
}

std::vector<double> specials() {
  return {0.0,
          -0.0,
          Limits::denorm_min(),
          -Limits::denorm_min(),
          Limits::min() - Limits::denorm_min(),  // largest subnormal
          Limits::min(),
          Limits::max(),
          -Limits::max(),
          Limits::epsilon(),
          1.0,
          -1.0,
          0.1,
          1e16,
          1e17,
          1e21,
          1e-5,
          9007199254740993.0,
          Limits::infinity(),
          -Limits::infinity(),
          Limits::quiet_NaN(),
          -Limits::quiet_NaN()};
}

/// A million seeded doubles: random bit patterns (every exponent, subnormals
/// and NaN payloads included), uniform values, integers, and uniform values
/// scaled over forty decades, then the specials.
std::vector<double> corpus() {
  std::mt19937_64 rng(20240917);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> decade(-20, 20);
  std::uniform_int_distribution<std::int64_t> integer(-(std::int64_t{1} << 53),
                                                      std::int64_t{1} << 53);
  std::vector<double> values;
  constexpr int kPerFamily = 250000;
  values.reserve(4 * kPerFamily + 32);
  for (int i = 0; i < kPerFamily; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(1000.0 * unit(rng));
    values.push_back(static_cast<double>(integer(rng)));
    values.push_back(unit(rng) * std::pow(10.0, decade(rng)));
  }
  for (double v : specials()) values.push_back(v);
  return values;
}

TEST(JsonNumber, DumpWritesPrintf17gBytes) {
  std::size_t mismatches = 0;
  for (const double v : corpus()) {
    const std::string dumped = json::Value(v).dump();
    if (dumped != printf_17g(v) && ++mismatches <= 5) {
      ADD_FAILURE() << "dump " << dumped << " != %.17g " << printf_17g(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, ParseOfDumpIsBitIdentical) {
  std::size_t mismatches = 0;
  for (const double v : corpus()) {
    if (!std::isfinite(v)) continue;  // JSON has no inf/nan literal
    const std::string dumped = json::Value(v).dump();
    if (bits(parse_number(dumped)) != bits(v) && ++mismatches <= 5) {
      ADD_FAILURE() << dumped << " did not read back bit-identically";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, ParseMatchesStrtodOn17DigitAndShortestStrings) {
  std::size_t mismatches = 0;
  for (const double v : corpus()) {
    if (!std::isfinite(v)) continue;
    for (const std::string& s : {printf_17g(v), shortest(v)}) {
      if (bits(parse_number(s)) != bits(strtod_c(s)) && ++mismatches <= 5) {
        ADD_FAILURE() << s << ": parse != strtod";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// Hand-shaped tokens strtod reads outside the double range or near its
// edges: random digit strings with leading zeros, a decimal point anywhere,
// and exponents far past both ends. An overflow must be an error, anything
// else must read as strtod reads it (underflow as a signed zero).
TEST(JsonNumber, ParseMatchesStrtodAcrossTheRangeEdges) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> len(1, 30);
  std::uniform_int_distribution<int> digit(0, 9);
  std::uniform_int_distribution<int> exp10(-420, 420);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    std::string digits;
    const int n = len(rng);
    for (int k = 0; k < n; ++k) digits += static_cast<char>('0' + digit(rng));
    // JSON allows one leading zero only, directly before the point.
    std::string tok = (rng() & 1) != 0 ? "-" : "";
    const std::size_t point = rng() % (digits.size() + 1);
    if (point == 0) {
      tok += "0.";
      tok += digits;
    } else {
      if (digits[0] == '0') digits[0] = '1';
      tok += digits.substr(0, point);
      if (point < digits.size()) {
        tok += '.';
        tok += digits.substr(point);
      }
    }
    tok += 'e';
    tok += std::to_string(exp10(rng));
    const json::ParseResult r = json::parse(tok);
    const double want = strtod_c(tok);
    const bool same = std::isinf(want)
                          ? !r.ok && r.error == "offset 0: number out of range '" +
                                                    tok + "'"
                          : r.ok && bits(r.value.as_number()) == bits(want);
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << tok << ": strtod " << printf_17g(want) << ", parse "
                    << (r.ok ? printf_17g(r.value.as_number()) : r.error);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, OutOfRangeEdgesKeepTheirAnswers) {
  EXPECT_EQ(bits(parse_number("1e-400")), bits(0.0));
  EXPECT_EQ(bits(parse_number("-1e-400")), bits(-0.0));
  EXPECT_EQ(bits(parse_number("2.5e-324")), bits(Limits::denorm_min()));
  EXPECT_EQ(bits(parse_number("0.0000001e-317")), bits(0.0));
  EXPECT_EQ(bits(parse_number("100000000000e-330")),
            bits(strtod_c("100000000000e-330")));

  const json::ParseResult over = json::parse("[1e999]");
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.error, "offset 1: number out of range '1e999'");
  const json::ParseResult neg_over = json::parse("[-1e999]");
  EXPECT_FALSE(neg_over.ok);
  EXPECT_EQ(neg_over.error, "offset 1: number out of range '-1e999'");
  // Overflow by the significand's length, not by the exponent's sign.
  const std::string wide = "1" + std::string(400, '0') + "e-10";
  const json::ParseResult wide_over = json::parse(wide);
  EXPECT_FALSE(wide_over.ok);
  EXPECT_EQ(wide_over.error, "offset 0: number out of range '" + wide + "'");
  // An exponent too long for any integer type saturates.
  const json::ParseResult huge_exp = json::parse("1e99999999999999999999999");
  EXPECT_FALSE(huge_exp.ok);
  EXPECT_EQ(bits(parse_number("1e-99999999999999999999999")), bits(0.0));
}

// printf and strtod follow LC_NUMERIC: under a comma-decimal locale the
// C library writes "0,5". The codec must not.
TEST(JsonNumber, CodecIgnoresCommaDecimalLocale) {
  struct RestoreLocale {
    std::string name = std::setlocale(LC_NUMERIC, nullptr);
    ~RestoreLocale() { std::setlocale(LC_NUMERIC, name.c_str()); }
  } restore;
  const char* comma_locales[] = {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                                 "fr_FR.utf8"};
  const char* active = nullptr;
  for (const char* name : comma_locales) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      active = name;
      break;
    }
  }
  if (active == nullptr) GTEST_SKIP() << "no comma-decimal locale installed";
  std::vector<double> values = specials();
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) values.push_back(std::bit_cast<double>(rng()));
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    const std::string dumped = json::Value(v).dump();
    EXPECT_EQ(dumped.find(','), std::string::npos) << active << ": " << dumped;
    EXPECT_EQ(bits(parse_number(dumped)), bits(v)) << active << ": " << dumped;
  }
  EXPECT_EQ(json::Value(0.5).dump(), "0.5");
  EXPECT_EQ(parse_number("1.5"), 1.5);
}

}  // namespace
}  // namespace rta
