// Incremental admission control: a long-lived analysis session that answers
// admit / remove / what-if queries by recomputing only the part of the
// system a change can influence.
//
// The session keeps the per-subjob curve state (detail::BoundStateMap) of
// the last analysis of the committed system. A candidate change dirties a
// seed set of subjobs -- the changed job's own hops, plus the co-located
// subjobs its presence influences (strictly lower-priority subjobs under
// SPP/SPNP via the interference edges of the dependency graph, subjobs whose
// Eq. 15 blocking term changes under SPNP, every subjob on a touched FCFS
// processor since Theorem 7's utilization function sums the whole
// processor). The seed is closed under dependency-graph successors and only
// that closure is re-run through the bounds wavefront; everything else is
// served from the retained curves.
//
// Determinism contract: every Decision::analysis is bit-identical to
// BoundsAnalyzer(config.analysis).analyze(candidate system) -- same bounds,
// same verdicts (tests/test_service.cpp drives random operation sequences
// against fresh full analyses). The incremental path is purely a latency
// optimization. Each subjob's curves depend only on its own arrival bounds
// and on its co-located subjobs, so re-running the dirty closure over the
// retained curves gives a full pass's answer whatever the closure's size.
// The session therefore takes it whenever it holds retained curves at an
// unchanged analysis horizon (pin AnalysisConfig::horizon for stable online
// behavior), and runs a full wavefront only when nothing can be reused: no
// retained curves yet, or the edit moved the horizon.
//
// Reads reuse work per committed state. read_what_if answers a repeated
// candidate from a memo that lives until the next commit, across any number
// of requests and scheduler batches; the RequestScheduler's coalescing, by
// contrast, only merges byte-identical lines inside one batch (and also
// covers query, what_if_region and general-path reads). A refused admit
// restores the committed state exactly, so it keeps both the memo and the
// fast path's read cache.
//
// Like BoundsAnalyzer, the session handles acyclic dependency graphs
// (heterogeneous SPP/SPNP/FCFS mixes included); a candidate that creates a
// cycle is rejected with the analyzer's error.
//
// Concurrency discipline (docs/static-analysis.md): a session is
// single-threaded -- its wavefronts run serially on the one thread that owns
// it. Where work does run concurrently (tenant shards, region columns), each
// worker owns its own session: a tenant's, or a committed snapshot
// (clone_committed) handed to exactly one worker. The session therefore
// holds no locks of its own; the lock-bearing components it embeds (the obs
// registries) carry the Clang thread-safety annotations, and the hand-off
// discipline itself is exercised under TSan and the differential tests
// rather than the static analysis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/instrument.hpp"
#include "analysis/order.hpp"
#include "analysis/result.hpp"
#include "model/system.hpp"
#include "obs/metrics.hpp"

namespace rta::service {

/// Configuration of an AdmissionSession.
struct SessionConfig {
  AnalysisConfig analysis;
};

/// Per-hop bound provenance for the candidate job of an admit / what_if
/// call: which hop dominates the end-to-end bound and what each hop's
/// Eq. 12 local term contributed to the Eq. 11 sum. Filled from the same
/// per-subjob states both analysis paths compute, so the fast what-if path
/// and the general wavefront produce bit-identical explains (part of the
/// response byte-identity contract).
struct ExplainHop {
  int hop = 0;        ///< index into the candidate's chain
  int processor = 0;  ///< processor the hop runs on
  Time bound = 0.0;   ///< Eq. 12 local response bound of this subjob
};

struct Explain {
  bool available = false;     ///< filled for ok admit/what_if decisions
  std::vector<ExplainHop> hops;
  int dominant_hop = -1;      ///< argmax of hops[].bound (first wins)
  Time wcrt = 0.0;            ///< Eq. 11 sum of the hop bounds
  Time deadline = 0.0;        ///< the candidate's end-to-end deadline
  int horizon_doublings = 0;  ///< horizon-search iterations this call ran
};

/// Outcome of one admit / what_if / remove call.
struct Decision {
  bool ok = false;           ///< analysis ran (candidate structurally valid)
  std::string error;         ///< reason when !ok
  bool admitted = false;     ///< candidate system fully schedulable
  bool committed = false;    ///< the session state now includes the change
  bool incremental = false;  ///< answered from retained curves
  std::uint64_t job_id = 0;  ///< stable id of the affected job
  int dirty_subjobs = 0;     ///< recomputed closure size (0 when !incremental)
  int total_subjobs = 0;     ///< subjobs in the candidate system
  AnalysisResult analysis;   ///< bit-identical to a fresh full analysis
  Explain explain;           ///< candidate bound provenance (admit/what_if)
};

/// Aggregate-only view of a Decision: exactly the fields the JSONL response
/// protocol serializes. The fast what-if path produces these directly --
/// skipping the O(jobs) report assembly a full Decision requires -- and the
/// general path reduces to them via AdmissionSession::summarize, so a
/// response is byte-identical whichever path computed it.
struct ReadDecision {
  bool ok = false;
  std::string error;
  bool admitted = false;
  bool committed = false;
  bool incremental = false;
  std::uint64_t job_id = 0;
  int dirty_subjobs = 0;
  int total_subjobs = 0;
  bool schedulable = false;  ///< analysis.all_schedulable()
  Time max_wcrt = 0.0;       ///< analysis.max_wcrt()
  Time horizon = 0.0;        ///< analysis.horizon
  Explain explain;           ///< candidate bound provenance (what_if)
};

class AdmissionSession {
 public:
  /// Takes ownership of the base system and analyzes it in full. Metrics
  /// (when config.analysis.observer.metrics is set): counters
  /// service.{admit,what_if,remove,incremental,full,dirty_subjobs,
  /// fast_admits,what_if_memo_hits}.
  explicit AdmissionSession(System base, SessionConfig config = {});

  ~AdmissionSession();
  AdmissionSession(const AdmissionSession&) = delete;
  AdmissionSession& operator=(const AdmissionSession&) = delete;

  [[nodiscard]] const System& system() const { return system_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }

  /// Analysis of the committed system (updated by every committing call).
  [[nodiscard]] const AnalysisResult& last() const { return last_; }

  /// Add `job` if the resulting system stays fully schedulable; otherwise
  /// leave the session untouched (committed == admitted). A zero job.id is
  /// assigned; a duplicate explicit id is an error.
  ///
  /// A candidate that passes read_what_if's fast-path screen, with
  /// record_curves off, takes that path here too: a refused admit costs
  /// exactly a fast what-if, and a committed one adds only its last hop's
  /// S̄ and Lemma 2 curve, so the retained states equal a full wavefront's.
  /// Such a candidate changes no other job's curves, so Decision::analysis
  /// is last() plus the candidate's report, bit-identical to the general
  /// path. Counter service.fast_admits counts these admits.
  Decision admit(Job job);

  /// admit() without ever committing: evaluates the candidate and restores
  /// the session state regardless of the verdict.
  Decision what_if(Job job);

  /// Remove the job with the given stable id and re-analyze. Always commits
  /// when the id exists (removals cannot make a system less schedulable).
  Decision remove(std::uint64_t job_id);

  /// Bounds of read_what_if's memo: answers kept per committed state, and
  /// the largest candidate (hops, first-hop releases) it copies in.
  static constexpr std::size_t kWhatIfMemoSlots = 16;
  static constexpr std::size_t kWhatIfMemoMaxHops = 16;
  static constexpr std::size_t kWhatIfMemoMaxReleases = 512;

  /// what_if() reduced to the serialized aggregates. Takes a fast path --
  /// no validate(), no graph build, no wavefront, no per-job report -- when
  /// the candidate provably dirties only its own subjobs (every hop on an
  /// SPP processor at strictly-lowest priority, horizon unchanged, the
  /// committed analysis bounded at that horizon); falls back to the general
  /// what_if() otherwise. The fast path computes only what the answer
  /// reads: each hop's higher-priority operands come from the read cache
  /// (built once per processor and committed state), and the last hop stops
  /// at its local bound. The returned aggregates are byte-identical either
  /// way (the service determinism contract extended to the read path;
  /// tests/test_service.cpp, tests/test_request_scheduler.cpp).
  ///
  /// A fast-path answer is a pure function of the committed state and the
  /// candidate's deadline, hops and releases, so it is memoized until the
  /// next commit (an admit that commits, a remove that finds its job): a
  /// candidate asked again -- under any name and id, in any later request --
  /// is answered from the memo without analysis, and its job_id and the id
  /// counter move exactly as System::add_job would move them. Error and
  /// general-path answers are never memoized, nor is a candidate whose
  /// explicit id is committed (it gets the duplicate-id error). Counter
  /// service.what_if_memo_hits counts the hits.
  ReadDecision read_what_if(Job job);

  /// Reduce a full Decision to the aggregate view (same bytes as the fast
  /// path would produce for the same candidate).
  [[nodiscard]] static ReadDecision summarize(const Decision& d);

  /// Deep copy of the committed session state (retained curves included):
  /// the copy answers what_if / query exactly like the original at its
  /// creation instant and is mutated only by its single owner (a tenant of
  /// a registry, a region probe column). Copies share no mutable state with
  /// the parent: curves are immutable and shared by handle.
  [[nodiscard]] std::unique_ptr<AdmissionSession> clone_committed() const;

  /// Stable-id counter passthrough, so a scheduler coalescing reads can
  /// pre-assign the ids the sequential execution would have handed out
  /// (System::next_job_id semantics).
  [[nodiscard]] std::uint64_t peek_next_job_id() const {
    return system_.next_job_id();
  }
  void set_next_job_id(std::uint64_t next) { system_.set_next_job_id(next); }

 private:
  struct ReadCache;
  struct WhatIfMemo;
  struct Undo;
  /// Dirty seed nodes of a change, over the candidate's dependency graph.
  using SeedFn = std::function<std::vector<int>(const DependencyGraph&)>;

  explicit AdmissionSession(const SessionConfig& config);  ///< clone shell

  Decision run_candidate(Job job, bool commit_on_admit);
  /// The fast path of read_what_if and admit: false (session untouched)
  /// when `job` fails its screen or is unbounded, else the answer in `rd`
  /// and the candidate's report in `bound`. With `commit`, a candidate that
  /// leaves the system schedulable also gets its last hop's upper part and
  /// stays in the session, its report appended to last_; the caller then
  /// runs committed_state_changed().
  bool try_fast_candidate(const Job& job, bool commit, ReadDecision& rd,
                          JobReport& bound);
  ReadCache& read_cache();
  /// The memoized answer to `job` for the committed state, or nullptr.
  [[nodiscard]] const ReadDecision* memo_find(const Job& job) const;
  /// Keep the fast path's answer `rd` to `job`, unless `job` is oversized.
  void memo_store(const Job& job, const ReadDecision& rd);
  /// Drops everything derived from the committed state: the read cache and
  /// the memo's answers. Called by every committing call only.
  void committed_state_changed();
  void analyze_pass(Decision& d, const DependencyOrder& order,
                    Time base_horizon, const std::vector<char>* dirty,
                    detail::BoundStateMap& states) const;
  /// The candidate system_'s dependency order, or nullopt with d's error
  /// set exactly as BoundsAnalyzer::analyze would report it.
  [[nodiscard]] std::optional<DependencyOrder> structural_check(
      Decision& d) const;
  /// Analyze the candidate system_ into `d`, shared by admit/what_if and
  /// remove: the closure of `seeds` over the retained curves when there are
  /// any at an unchanged horizon, else in full. Either way states_ /
  /// horizon_ then describe the candidate; with a non-null `undo`,
  /// roll_back(*undo) restores the committed ones.
  void analyze_change(Decision& d, const DependencyOrder& order,
                      const SeedFn& seeds, Undo* undo);
  void roll_back(Undo& undo);

  System system_;
  SessionConfig config_;
  std::unique_ptr<detail::EngineObs> eobs_;

  detail::BoundStateMap states_;  ///< committed system's curves at horizon_
  Time horizon_ = 0.0;
  bool have_states_ = false;  ///< false until a full pass succeeds
  AnalysisResult last_;

  /// Lazily built per-committed-state data backing try_fast_candidate
  /// (per-processor priority tops, horizon ingredients, committed verdict
  /// roll-ups, per-processor higher-priority operands of a candidate's first
  /// hop); dropped by every commit.
  std::unique_ptr<ReadCache> read_cache_;
  /// read_what_if's answers for the committed state; emptied by every
  /// commit, never copied by a clone.
  std::unique_ptr<WhatIfMemo> memo_;
  obs::Counter fast_admits_;  ///< service.fast_admits, bound up front
};

/// Assign each hop of `job` the lowest priority (largest phi) on its
/// processor: max existing priority + 1, counting earlier hops of this job.
/// The natural online policy -- a newcomer must not disturb admitted jobs --
/// and the fastest for the session (under SPP nothing but the new job's own
/// subjobs needs recomputing).
void assign_lowest_priorities(const System& system, Job& job);

}  // namespace rta::service
