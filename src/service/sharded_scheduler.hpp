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
// the touched tenants. Responses land in per-tenant buffers and are then
// interleaved back into GLOBAL ARRIVAL ORDER on the calling thread, so the
// output stream is deterministic at every shard width.
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
// Backpressure is decided at routing time, deterministically, from queue
// depths alone -- never from wall-clock -- and sheds with the v2
// `overloaded` retryable error through the tenant's own scheduler (so the
// rejection consumes the tenant's numbering like any other line):
//   - tenant_max_inflight bounds one tenant's executable lines per pump
//     window: a hot tenant starts shedding while its siblings, below their
//     own bounds, are untouched.
//   - shard_max_inflight bounds a shard's run queue. When the shard is
//     over its bound, only tenants at or above their fair share
//     (shard_max_inflight / active tenants in the window) are shed, so a
//     hot tenant cannot starve a quiet one that shares its shard.
//
// Observability: per-shard counters service.shard.<k>.requests /
// service.shard.<k>.shed and gauge service.shard.<k>.depth (executable
// lines drained by the last pump), plus a shard-tagged service.shard.pump
// span per drained shard per pump (docs/observability.md).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <sstream>
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
  /// Worker shards (0 = hardware concurrency). Shard placement is
  /// per-tenant and width-independent; the width only sets how many tenant
  /// sets drain concurrently.
  int shards = 1;

  /// Per-tenant scheduler knobs (timeouts, backpressure). The
  /// scheduler-level max_inflight composes with the routing-level bounds
  /// below; multi-tenant callers normally leave it 0 and bound at routing
  /// time instead.
  StreamOptions stream;

  /// Executable lines one tenant may queue per pump window before it sheds
  /// (0 = unbounded).
  int tenant_max_inflight = 0;

  /// Executable lines one shard may queue per pump window; over the bound,
  /// only tenants at/above their fair share shed (0 = unbounded).
  int shard_max_inflight = 0;

  /// Queued lines (across all shards) that trigger a pump.
  int pump_lines = 256;
};

struct ShardedStats {
  RunnerStats stream;           ///< aggregated over tenants + untenanted
  std::uint64_t routed = 0;     ///< lines routed to a tenant
  std::uint64_t unrouted = 0;   ///< missing/unknown tenant or unparseable
  std::uint64_t shed = 0;       ///< routing-level backpressure rejections
  std::uint64_t pumps = 0;
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

  /// Resolved shard count (option 0 -> hardware).
  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }

  /// Per-tenant stream stats; zeros for a tenant that never sent a line.
  [[nodiscard]] RunnerStats tenant_stats(int idx) const;

 private:
  struct Tenant {
    std::ostringstream buf;  ///< the tenant scheduler's response sink
    std::unique_ptr<RequestScheduler> scheduler;
    std::deque<std::string> ready;  ///< flushed responses awaiting emission
    int shard = 0;
    int queued = 0;        ///< executable lines queued this pump window
    bool touched = false;  ///< routed at least one line this window
  };

  struct Entry {
    int tenant = -1;
    bool shed = false;
    std::string line;
    std::string message;  ///< overloaded detail when shed
    detail::ParsedRequest req;
  };

  struct Shard {
    std::vector<Entry> queue;
    std::vector<int> touched;  ///< tenants with lines this window, in order
    int depth = 0;             ///< executable lines queued this window
    int active = 0;            ///< tenants contributing to depth
    std::uint64_t requests_total = 0;
    std::uint64_t shed_total = 0;
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
  std::unique_ptr<ThreadPool> pool_;  ///< shards-1 workers; caller is one

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
