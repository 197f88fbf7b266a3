// The benchmark's three closed-loop traffic mixes (README.md says why each
// was chosen).
//
// A Workload owns the service's initial state -- one base system, or a
// prototype that is cloned into tenants -- and the client logic of the
// callers: what a caller sends next and what it learns from a response.
// Requests are compact records; the exact JSONL line is regenerated from a
// record on demand, so the timed loop keeps no per-request strings and the
// output checks replay the very bytes the service received.
//
// Everything a workload draws comes from the --seed it was built with, and
// the callers' choices depend only on that seed and on the (deterministic)
// responses, so one seed always yields one request sequence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/system.hpp"
#include "service/admission_session.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Op : std::uint8_t { kWhatIf, kQuery, kAdmit, kRemove };

[[nodiscard]] inline bool is_read(Op op) {
  return op == Op::kWhatIf || op == Op::kQuery;
}

inline constexpr int kMaxHops = 4;

/// Closed-loop callers, one per core the box reports (nproc = 4); each has
/// at most one request outstanding.
inline constexpr int kCallers = 4;

/// One request as a caller issues it.
struct Request {
  Op op = Op::kQuery;
  int tenant = -1;           ///< tenant index on tenant_mutate, else -1
  std::uint64_t key = 0;     ///< candidate key (what_if / admit)
  std::uint64_t job_id = 0;  ///< remove target
  /// An admit sent with a deadline of half its own execution time, which
  /// the service must refuse (polling_fig3, bursty_whatif).
  bool refused = false;
  /// Explicit per-hop priorities of a tenant admit; all 0 = none sent.
  std::array<int, kMaxHops> priority{};
};

/// What a caller reads off its response.
struct Reply {
  bool ok = false;
  bool committed = false;
  std::uint64_t job_id = 0;
};

class Workload {
 public:
  Workload(std::uint64_t seed, rta::System base);
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Peak RSS is read once the run has answered this many requests: a
  /// fixed amount of work, reached in every run, so a faster service is not
  /// charged for the curve-cache entries of the extra requests it serves.
  [[nodiscard]] virtual std::size_t rss_probe_at() const = 0;

  /// Tenants served through a ShardedScheduler; 0 means one session behind
  /// a RequestScheduler.
  [[nodiscard]] virtual int tenants() const { return 0; }

  /// The committed system every session (or tenant) starts from.
  [[nodiscard]] const rta::System& base() const { return base_; }
  [[nodiscard]] const rta::service::SessionConfig& config() const {
    return config_;
  }

  /// The next request of `caller`, whose previous response has arrived.
  virtual Request next(int caller) = 0;

  /// Client bookkeeping for the response to `req`.
  virtual void on_reply(int caller, const Request& req, const Reply& reply) = 0;

  /// The exact request line for `req`.
  [[nodiscard]] std::string line(const Request& req) const;

  /// The candidate job a what_if / admit carries, as generated.
  [[nodiscard]] virtual rta::Job candidate(const Request& req) const = 0;

 protected:
  rta::System base_;
  rta::service::SessionConfig config_;
  rta::Rng rng_;
  std::uint64_t seed_;
  std::uint64_t next_key_ = 0;

  /// A fresh candidate key: unique within the run, a pure function of the
  /// seed and the draw order.
  std::uint64_t fresh_key();
};

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// The tenant name the request lines carry for tenant index `idx`.
[[nodiscard]] std::string tenant_name(int idx);

}  // namespace perfbench
