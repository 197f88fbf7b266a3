#include "closed_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>

#include "service/request_scheduler.hpp"
#include "service/sharded_scheduler.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Hands every completed line to a callback the moment its newline is
/// written, which is when the caller would see the response.
class LineSink final : public std::streambuf {
 public:
  explicit LineSink(std::function<void(std::string_view)> on_line)
      : on_line_(std::move(on_line)) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const char* end = s + n;
    while (s < end) {
      const void* nl = std::memchr(s, '\n', static_cast<std::size_t>(end - s));
      if (nl == nullptr) {
        line_.append(s, end);
        break;
      }
      const char* at = static_cast<const char*>(nl);
      line_.append(s, at);
      on_line_(line_);
      line_.clear();
      s = at + 1;
    }
    return n;
  }

 private:
  std::function<void(std::string_view)> on_line_;
  std::string line_;
};

/// The v2 envelope opens every response with its schema version and its
/// request number within the tenant's (or the single session's) stream.
void check_envelope(std::string_view line, int expected,
                    std::vector<std::string>& errors) {
  static constexpr std::string_view kPrefix =
      "{\"schema_version\":2,\"request\":";
  if (errors.size() >= 8) return;
  if (line.substr(0, kPrefix.size()) != kPrefix) {
    errors.push_back("not a v2 envelope: " + std::string(line.substr(0, 80)));
    return;
  }
  const std::string_view rest = line.substr(kPrefix.size());
  const std::string number = std::to_string(expected);
  if (rest.substr(0, number.size()) != number ||
      rest.substr(number.size(), 1) != ",") {
    errors.push_back("response out of order, expected request " + number +
                     ": " + std::string(line.substr(0, 80)));
  }
}

/// A request an idle caller is about to send, its line already built.
struct Outgoing {
  int caller = 0;
  Request req;
  std::string line;
};

}  // namespace

Service build_service(const Workload& wl, rta::obs::Observer observer) {
  rta::service::SessionConfig cfg = wl.config();
  cfg.analysis.observer = observer;
  auto base = std::make_unique<rta::service::AdmissionSession>(wl.base(), cfg);
  if (!base->last().ok) {
    throw std::runtime_error("base analysis failed: " + base->last().error);
  }
  Service svc;
  if (wl.tenants() == 0) {
    svc.session = std::move(base);
    return svc;
  }
  svc.registry = std::make_unique<rta::service::TenantRegistry>();
  for (int t = 0; t < wl.tenants(); ++t) {
    svc.registry->add(tenant_name(t), base->clone_committed());
  }
  return svc;
}

std::uint64_t stripped_hash(std::string_view line) {
  const std::size_t cut = line.rfind(",\"latency_us\":");
  if (cut != std::string_view::npos) line = line.substr(0, cut);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const unsigned char c : line) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Reply scan_reply(std::string_view line) {
  Reply r;
  r.ok = line.find("\"ok\":true") != std::string_view::npos;
  r.committed = line.find("\"committed\":true") != std::string_view::npos;
  static constexpr std::string_view kJobId = "\"job_id\":";
  const std::size_t at = line.find(kJobId);
  if (at != std::string_view::npos) {
    r.job_id = std::strtoull(line.data() + at + kJobId.size(), nullptr, 10);
  }
  return r;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

LoopResult run_closed_loop(Workload& wl, Service& svc,
                           const LoopOptions& options,
                           rta::obs::Observer observer) {
  LoopResult res;
  std::deque<std::size_t> outstanding;  // indices into res.done, FIFO
  std::vector<int> idle;
  for (int c = 0; c < kCallers; ++c) idle.push_back(c);
  std::vector<int> numbered(static_cast<std::size_t>(std::max(1, wl.tenants())),
                            0);
  std::size_t responses = 0;
  double last_response_us = 0.0;
  // The loop's clock stands still while `between_waves` runs.
  const Clock::time_point t0 = Clock::now();
  Clock::duration paused{};
  const auto since_start_us = [&t0, &paused] {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0 - paused)
        .count();
  };

  LineSink sink([&](std::string_view line) {
    const double now = since_start_us();
    if (outstanding.empty()) {
      res.envelope_errors.push_back("response with no request outstanding");
      return;
    }
    Completed& c = res.done[outstanding.front()];
    outstanding.pop_front();
    c.latency_us = now - c.submit_us;
    c.hash = stripped_hash(line);
    const Reply reply = scan_reply(line);
    c.ok = reply.ok;
    res.response_bytes += static_cast<double>(line.size());
    check_envelope(line,
                   ++numbered[static_cast<std::size_t>(std::max(0, c.req.tenant))],
                   res.envelope_errors);
    wl.on_reply(c.caller, c.req, reply);
    idle.push_back(c.caller);
    last_response_us = now;
    if (++responses == options.rss_probe_at) res.peak_rss_mb = peak_rss_mb();
    res.client_us += since_start_us() - now;
  });
  std::ostream out(&sink);

  // Both front ends answer one request at a time: the sharded one pumps
  // every line, and the single session is flushed before each new line.
  std::unique_ptr<rta::service::RequestScheduler> single;
  std::unique_ptr<rta::service::ShardedScheduler> sharded;
  if (svc.registry != nullptr) {
    rta::service::ShardedOptions so;
    so.shards = 1;
    so.pump_lines = 1;
    so.stream.parallel_reads = 1;
    sharded = std::make_unique<rta::service::ShardedScheduler>(
        *svc.registry, out, so, observer);
  } else {
    rta::service::StreamOptions so;
    so.parallel_reads = 1;
    single =
        std::make_unique<rta::service::RequestScheduler>(*svc.session, out, so);
  }

  std::vector<Outgoing> wave;
  double next_pause_s = options.pause_every_s;
  while (true) {
    if (options.max_requests > 0 && res.done.size() >= options.max_requests) {
      break;
    }
    const double elapsed_s = since_start_us() / 1e6;
    if (options.seconds > 0.0 && elapsed_s >= options.seconds) break;
    if (options.between_waves && next_pause_s > 0.0 &&
        elapsed_s >= next_pause_s && responses >= options.rss_probe_at) {
      const Clock::time_point p0 = Clock::now();
      options.between_waves();
      paused += Clock::now() - p0;
      next_pause_s += options.pause_every_s;
    }

    // Every idle caller builds its next line before any of them is sent, so
    // the client's own work falls inside no request's latency.
    const double build_from_us = since_start_us();
    wave.clear();
    for (const int caller : idle) {
      if (options.max_requests > 0 &&
          res.done.size() + wave.size() >= options.max_requests) {
        break;
      }
      Outgoing o;
      o.caller = caller;
      o.req = wl.next(caller);
      o.line = wl.line(o.req);
      wave.push_back(std::move(o));
    }
    idle.clear();
    res.client_us += since_start_us() - build_from_us;

    // A request is answered before the next different line is sent, so its
    // latency is its own time in the service. A byte-identical line right
    // behind it is a second poll of the same pending question: it joins the
    // batch and the scheduler coalesces it.
    const std::string* pending = nullptr;
    for (const Outgoing& o : wave) {
      if (single != nullptr && pending != nullptr && o.line != *pending) {
        single->flush();
      }
      Completed c;
      c.caller = o.caller;
      c.req = o.req;
      outstanding.push_back(res.done.size());
      res.done.push_back(c);
      res.done.back().submit_us = since_start_us();
      if (single != nullptr) {
        single->submit_line(o.line);
      } else {
        sharded->submit_line(o.line);
      }
      pending = &o.line;
    }
    if (single != nullptr) single->flush();
    if (!outstanding.empty()) {
      throw std::logic_error("closed loop stalled: a request got no response");
    }
  }
  if (single != nullptr) {
    single->finish();
    res.coalesced = single->stats().coalesced;
  } else {
    sharded->finish();
    res.coalesced = sharded->stats().stream.coalesced;
  }
  if (!outstanding.empty()) {
    res.envelope_errors.push_back(std::to_string(outstanding.size()) +
                                  " requests got no response");
  }
  if (res.peak_rss_mb == 0.0) res.peak_rss_mb = peak_rss_mb();
  res.wall_s = last_response_us / 1e6;
  return res;
}

}  // namespace perfbench
