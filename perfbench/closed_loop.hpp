// Closed-loop load generator for the admission service.
//
// kCallers callers share one thread with the service, which runs
// single-threaded (threads = 1, parallel_reads = 1, shards = 1). A caller
// sends its next request only after its previous response has arrived. The
// callers move in waves: every idle caller builds its next request line,
// then the lines go out one by one, and each is answered before the next
// different line is sent (the RequestScheduler is flushed, the
// ShardedScheduler pumps every line). So no request waits behind another
// caller's request, and a request's latency is its own time in the
// service, never a batch's. The one exception is a byte-identical read
// line sent right after its twin: it joins the twin's batch, as a second
// poll of a pending question does, and the scheduler coalesces the two.
//
// Latency runs from the submit call to the moment the response line reaches
// the output stream; a streambuf wrapped around that stream timestamps
// every completed line. The loop keeps a compact record per request (no
// strings), so its own footprint does not grow with the response bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/observer.hpp"
#include "service/admission_session.hpp"
#include "service/tenant_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The service state set-up builds: one session, or a tenant registry.
struct Service {
  std::unique_ptr<rta::service::AdmissionSession> session;
  std::unique_ptr<rta::service::TenantRegistry> registry;
};

/// Base analysis (plus the tenant registry, where the workload has one).
[[nodiscard]] Service build_service(const Workload& wl,
                                    rta::obs::Observer observer = {});

/// One request, in submission order.
struct Completed {
  Request req;
  int caller = 0;
  double submit_us = 0.0;   ///< since the loop started
  double latency_us = 0.0;  ///< submit -> response line written
  std::uint64_t hash = 0;   ///< response line with latency_us stripped
  bool ok = false;
};

struct LoopOptions {
  double seconds = 0.0;          ///< stop issuing after this long (0: no limit)
  std::size_t max_requests = 0;  ///< stop issuing after this many (0: no limit)
  std::size_t rss_probe_at = 0;  ///< read peak RSS after this many responses
  /// Called between two waves, when no request is outstanding, about every
  /// `pause_every_s` once peak RSS has been read. The loop's clock stands
  /// still meanwhile, so no timing of the loop includes it.
  std::function<void()> between_waves;
  double pause_every_s = 0.0;
};

struct LoopResult {
  std::vector<Completed> done;
  double wall_s = 0.0;        ///< first submit to last response
  double client_us = 0.0;     ///< callers' own work inside wall_s
  double peak_rss_mb = 0.0;   ///< at the probe (or at the end if never reached)
  int coalesced = 0;          ///< RunnerStats::coalesced, summed
  double response_bytes = 0.0;  ///< sum over response lines
  /// Envelope violations seen on the wire (schema or numbering).
  std::vector<std::string> envelope_errors;
};

/// Drive `svc` with `wl`'s callers until the options stop issuing, then
/// drain. The observer (may be empty) is handed to the sharded front end.
[[nodiscard]] LoopResult run_closed_loop(Workload& wl, Service& svc,
                                         const LoopOptions& options,
                                         rta::obs::Observer observer = {});

/// FNV-1a over a response line minus its trailing latency_us field.
[[nodiscard]] std::uint64_t stripped_hash(std::string_view line);

/// Parse the caller-visible fields of a response line.
[[nodiscard]] Reply scan_reply(std::string_view line);

/// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Restart the VmHWM high-water mark at the current RSS, so the machine
/// probes' scratch memory does not count as the service's peak.
void reset_peak_rss();

}  // namespace perfbench
