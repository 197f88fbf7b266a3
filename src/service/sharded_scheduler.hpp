// Sharded multi-tenant front end for the JSONL admission service.
//
// A TenantRegistry holds thousands of independent AdmissionSessions; the
// ShardedScheduler hashes each tenant onto one of N worker shards
// (TenantRegistry::shard_of, a pure function of the tenant name) and gives
// every tenant its own RequestScheduler -- so each tenant keeps the full
// single-session machinery: read/mutate classification with class barriers,
// singleflight coalescing, and the simulated stable-id counter.
//
// Data flow: submit_line parses the line once, routes it by its "tenant"
// field, and appends it to its shard's run queue. When the queued lines
// reach pump_lines (or at finish), a pump drains every shard concurrently
// -- shard workers run disjoint tenant sets, so the fan-out is partitioned,
// not locked -- feeding each line to its tenant's scheduler and flushing
// the touched tenants. Each tenant's scheduler writes its finished response
// lines straight into that tenant's ready queue (the one response writer of
// request_codec.hpp; no stream or re-split in between), and the lines are
// then interleaved back into GLOBAL ARRIVAL ORDER on the calling thread, so
// the output stream is deterministic at every shard width. The untenanted
// bucket renders its error lines with the same writer.
//
// Numbering contract: a response's "request"/"line" fields count within its
// tenant's own stream, exactly as if that tenant's lines were served alone.
// That is the determinism contract: for every tenant, the responses in a
// multi-tenant run are byte-identical (modulo latency_us) to running just
// that tenant's lines through the sequential run_request_stream against
// that tenant's session -- at any shard width, any pump size, and any
// interleaving with other tenants. Lines that cannot be routed (missing or
// unknown tenant, unparseable JSON) are answered from an "untenanted"
// bucket with its own numbering: bad_request for missing/invalid fields,
// not_found (v2, non-retryable) for an unknown tenant.
//
// Backpressure is the single-session rule, applied by each tenant's own
// scheduler: StreamOptions::max_inflight bounds each same-class batch, and
// a line arriving at a full batch answers the v2 `overloaded` retryable
// error. A pump flushes every tenant it touched, so batches never span a
// pump window. A hot tenant therefore sheds while its siblings, each below
// its own bound, are untouched; and for a stream that fits in one pump
// window every tenant's answers equal its solo run under the same bound.
//
// Observability: per-shard counters service.shard.<k>.requests /
// service.shard.<k>.shed (lines routed to the shard / shed by its tenants'
// schedulers, counted from their `rejected` deltas after each pump) and
// gauge service.shard.<k>.depth (executable lines the last pump drained,
// sheds excluded), plus a shard-tagged service.shard.pump span per drained
// shard per pump (docs/observability.md).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "service/request_scheduler.hpp"
#include "service/tenant_registry.hpp"
#include "util/thread_pool.hpp"

namespace rta::service {

struct ShardedOptions {
  /// Worker shards, resolved by resolve_workers (util/thread_pool.hpp):
  /// 1 = serial, 0 = hardware concurrency. Shard placement is per-tenant
  /// and width-independent; the width only sets how many tenant sets drain
  /// concurrently.
  int shards = 1;

  /// Per-tenant scheduler knobs (timeouts, backpressure), handed to every
  /// tenant's RequestScheduler.
  StreamOptions stream;

  /// Queued lines (across all shards) that trigger a pump.
  int pump_lines = 256;
};

struct ShardedStats {
  RunnerStats stream;           ///< aggregated over tenants + untenanted
  std::uint64_t routed = 0;     ///< lines routed to a tenant
  std::uint64_t unrouted = 0;   ///< missing/unknown tenant or unparseable
  std::uint64_t pumps = 0;
  int shards = 0;               ///< resolved shard count (0 -> hardware)
};

class ShardedScheduler {
 public:
  /// Binds to a fully-built registry (read-only while serving) and `out`.
  /// `observer` carries the shard-level metrics/tracer; per-tenant service
  /// metrics ride on each session's own observer as usual.
  ShardedScheduler(TenantRegistry& registry, std::ostream& out,
                   ShardedOptions options, obs::Observer observer = {});
  ~ShardedScheduler();

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Feed one input line (blank and '#' lines are skipped). May trigger a
  /// pump and emit completed responses. Throws std::logic_error after
  /// finish().
  void submit_line(const std::string& line);

  /// Drain every shard, seal every tenant scheduler, emit every buffered
  /// response, and flush the output stream. Idempotent.
  void finish();

  /// Aggregate view (recomputed per call; cheap -- one pass over tenants).
  [[nodiscard]] ShardedStats stats() const;

  /// Per-tenant stream stats; zeros for a tenant that never sent a line.
  [[nodiscard]] RunnerStats tenant_stats(int idx) const;

 private:
  struct Tenant {
    /// Flushed response lines awaiting emission; the tenant's scheduler
    /// appends to it directly.
    std::deque<std::string> ready;
    std::unique_ptr<RequestScheduler> scheduler;
    int shard = 0;
    int rejected = 0;      ///< scheduler's rejected count at the last pump
    bool touched = false;  ///< routed at least one line this window
  };

  struct Entry {
    int tenant = -1;
    std::string line;
    detail::ParsedRequest req;
  };

  struct Shard {
    std::vector<Entry> queue;
    std::vector<int> touched;  ///< tenants with lines this window, in order
    int depth = 0;             ///< executable lines queued this window
    obs::Counter requests_counter;
    obs::Counter shed_counter;
    obs::Gauge depth_gauge;
  };

  Tenant& tenant(int idx);
  void route_untenanted(const std::string& line, detail::ParsedRequest req);
  void pump();
  void emit_ready();

  TenantRegistry& registry_;
  std::ostream& out_;
  ShardedOptions options_;
  obs::Tracer* tracer_ = nullptr;

  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  ///< registry-index aligned
  std::unique_ptr<ThreadPool> pool_;  ///< one shard per unit of pool width

  /// Response interleaving: bucket per routed line in arrival order
  /// (tenant index, or -1 for the untenanted bucket) and the emission
  /// cursor into it.
  std::vector<int> order_;
  std::size_t cursor_ = 0;
  std::deque<std::string> untenanted_ready_;
  int untenanted_no_ = 0;

  int pending_lines_ = 0;  ///< queued since the last pump, across shards
  bool finished_ = false;

  std::uint64_t unrouted_ = 0;
  std::uint64_t pumps_ = 0;
};

/// Drive a full stream through a ShardedScheduler (the multi-tenant
/// analogue of run_request_stream).
ShardedStats run_sharded_stream(TenantRegistry& registry, std::istream& in,
                                std::ostream& out,
                                const ShardedOptions& options,
                                obs::Observer observer = {});

}  // namespace rta::service
