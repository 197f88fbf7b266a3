#include "service/metrics_export.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "util/number_format.hpp"

namespace rta::service {

namespace {

/// Prometheus metric name: `rta_` + the registry name with every character
/// outside [a-zA-Z0-9_:] mapped to '_' (so "service.request_us" becomes
/// "rta_service_request_us").
std::string prom_name(const std::string& name) {
  std::string out = "rta_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

json::Value stats_payload(const obs::MetricsSnapshot& snap) {
  json::Value counters{json::Value::Object{}};
  for (const auto& [name, v] : snap.counters) {
    counters.set(name, static_cast<double>(v));
  }
  json::Value gauges{json::Value::Object{}};
  for (const auto& [name, v] : snap.gauges) gauges.set(name, v);
  json::Value histograms{json::Value::Object{}};
  for (const auto& [name, h] : snap.histograms) {
    json::Value entry{json::Value::Object{}};
    entry.set("count", static_cast<double>(h.count));
    entry.set("p50", h.quantile(0.50));
    entry.set("p90", h.quantile(0.90));
    entry.set("p99", h.quantile(0.99));
    entry.set("max", h.max);
    histograms.set(name, std::move(entry));
  }

  json::Value payload{json::Value::Object{}};
  payload.set("counters", std::move(counters));
  payload.set("gauges", std::move(gauges));
  payload.set("histograms", std::move(histograms));
  return payload;
}

std::string to_prometheus_text(const obs::MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, v] : snap.counters) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n" + p + " ";
    out += std::to_string(v);
    out += "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n" + p + " ";
    append_double(out, v);
    out += "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cum += i < h.counts.size() ? h.counts[i] : 0;
      out += p + "_bucket{le=\"";
      append_double(out, h.bounds[i]);
      out += "\"} " + std::to_string(cum) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += p + "_sum ";
    append_double(out, h.sum);
    out += "\n" + p + "_count " + std::to_string(h.count) + "\n";
  }
  // Scrape timestamp (unix seconds) so dashboards can alert on a stale
  // file. The one deliberate wall-clock read behind this file's rta-lint
  // wallclock exemption.
  const double now_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  out += "# TYPE rta_scrape_time_seconds gauge\nrta_scrape_time_seconds ";
  append_double(out, now_s);
  out += "\n";
  return out;
}

PromFlusher::PromFlusher(obs::MetricsRegistry& registry, std::string path,
                         double interval_ms)
    : registry_(registry),
      path_(std::move(path)),
      interval_ms_(interval_ms >= 1.0 ? interval_ms : 1.0) {
  thread_ = std::thread([this] { run(); });
}

PromFlusher::~PromFlusher() { stop_and_flush(); }

bool PromFlusher::write_once() {
  const std::string text = to_prometheus_text(registry_.snapshot());
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    // Rename can fail long after the write succeeded (target replaced by a
    // directory, target dir gone mid-run). The exposition at `path_` is
    // either the previous complete scrape or absent -- never torn -- but the
    // orphaned tmp file must not outlive the attempt.
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void PromFlusher::run() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      if (stop_) return;
      cv_.wait_for(mutex_,
                   std::chrono::duration<double, std::milli>(interval_ms_));
      if (stop_) return;
    }
    if (!write_once()) {
      MutexLock lock(mutex_);
      write_failed_ = true;
    }
  }
}

bool PromFlusher::stop_and_flush() {
  if (!joined_) {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    joined_ = true;
    if (!write_once()) {
      MutexLock lock(mutex_);
      write_failed_ = true;
    }
  }
  MutexLock lock(mutex_);
  return !write_failed_;
}

}  // namespace rta::service
