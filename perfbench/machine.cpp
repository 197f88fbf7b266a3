#include "machine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

volatile std::uint64_t g_sink = 0;

std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) x = xorshift(x);
  return x;
}

/// One random cycle through 4 MiB of indices: every step a dependent load
/// that misses the core's private caches half the time.
const std::vector<std::uint32_t>& chase_table() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> order(std::size_t{1} << 20);
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t s = 88172645463325252ull;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      s = xorshift(s);
      std::swap(order[i], order[s % (i + 1)]);
    }
    std::vector<std::uint32_t> next(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  return table;
}

}  // namespace

double calib_ms() {
  constexpr std::size_t kChunk = std::size_t{8} << 20;
  constexpr std::size_t kPage = 4096;
  const std::vector<std::uint32_t>& next = chase_table();
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; round < 8; ++round) {
    void* p = mmap(nullptr, kChunk, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) continue;
    char* bytes = static_cast<char*>(p);
    for (std::size_t off = 0; off < kChunk; off += kPage) bytes[off] = 1;
    munmap(p, kChunk);
  }
  std::uint32_t at = 0;
  for (int i = 0; i < 2'000'000; ++i) at = next[at];
  g_sink = at;
  return ms_since(t0);
}

double effective_cores() {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kWork = 20'000'000;
  Clock::time_point t0 = Clock::now();
  g_sink = spin(kWork);
  const double one = ms_since(t0);
  t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] { g_sink = spin(kWork); });
  }
  for (std::thread& t : threads) t.join();
  const double all = ms_since(t0);
  return all > 0.0 ? kThreads * one / all : 0.0;
}

double speed_probe_ms() {
  static std::vector<double> buffer(std::size_t{1} << 14);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const Clock::time_point t0 = Clock::now();
  for (double& v : buffer) {
    x = xorshift(x);
    v = static_cast<double>(x % 100000);
  }
  std::sort(buffer.begin(), buffer.end());
  g_sink = static_cast<std::uint64_t>(buffer[buffer.size() / 2]);
  return ms_since(t0);
}

}  // namespace perfbench
