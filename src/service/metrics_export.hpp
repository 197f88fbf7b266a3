// Live introspection exporters for the admission service: the `stats` verb
// payload (JSON) and Prometheus text exposition, both rendered from a
// MetricsRegistry snapshot, plus a background flusher that re-renders the
// Prometheus file on a fixed cadence while `serve` streams requests.
//
// Everything in this file is wall-clock territory: latency quantiles come
// from the `_us` histograms, and the Prometheus output stamps the scrape
// time from the system clock so dashboards can spot a stale file. It is
// therefore OUTSIDE the byte-identity contract (like latency_us), and
// src/service/metrics_export.* carries an rta-lint wallclock exemption --
// keep any deterministic response logic out of this file.
#pragma once

#include <string>
#include <thread>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace rta::service {

/// The `stats` verb payload: counters and gauges verbatim, every histogram
/// reduced to {count, p50, p90, p99, max} (quantiles via
/// HistogramSnapshot::quantile). Schema documented in docs/observability.md.
[[nodiscard]] json::Value stats_payload(const obs::MetricsSnapshot& snap);

/// Prometheus text exposition (text/plain version 0.0.4) of a snapshot.
/// Metric names are prefixed `rta_` with non-alphanumerics mapped to '_';
/// histograms render as classic cumulative `_bucket{le=...}` series plus
/// `_sum`/`_count`. A `rta_scrape_time_seconds` gauge carries the wall
/// clock (unix seconds) at render time.
[[nodiscard]] std::string to_prometheus_text(const obs::MetricsSnapshot& snap);

/// Background thread that writes to_prometheus_text(registry.snapshot()) to
/// `path` every `interval_ms` (atomically: temp file + rename), for as long
/// as the flusher is alive. stop_and_flush() -- also run by the destructor
/// -- joins the thread and writes one final snapshot, so the file is always
/// left complete and current no matter how `serve` exits. A failed write
/// never leaves debris: the `.tmp` staging file is removed on every failure
/// path (including a failed rename), and `path` itself only ever holds a
/// complete exposition.
class PromFlusher {
 public:
  PromFlusher(obs::MetricsRegistry& registry, std::string path,
              double interval_ms);
  ~PromFlusher();

  PromFlusher(const PromFlusher&) = delete;
  PromFlusher& operator=(const PromFlusher&) = delete;

  /// Stop the background thread and write one final snapshot. Idempotent;
  /// returns false when any write (periodic or final) failed.
  bool stop_and_flush();

 private:
  void run();
  bool write_once();

  obs::MetricsRegistry& registry_;
  std::string path_;
  double interval_ms_;

  Mutex mutex_;
  CondVar cv_;
  bool stop_ RTA_GUARDED_BY(mutex_) = false;
  bool write_failed_ RTA_GUARDED_BY(mutex_) = false;

  bool joined_ = false;  ///< owner-thread only
  std::thread thread_;
};

}  // namespace rta::service
