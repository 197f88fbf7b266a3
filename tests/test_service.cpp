// Differential harness for the incremental admission service: long random
// admit / remove / what-if sequences through one AdmissionSession must
// produce decisions BIT-IDENTICAL to a fresh, serial full analysis
// of the candidate system at every step -- the session's retained curves and
// dirty-set propagation are a latency optimization, never a result change
// (admission_session.hpp states the contract). Exact double equality, as in
// test_differential_engine.cpp.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "model/priority.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission_session.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

using service::AdmissionSession;
using service::Decision;
using service::SessionConfig;

System random_base(Rng& rng, SchedulerKind scheduler, bool mixed) {
  JobShopConfig cfg;
  cfg.stages = static_cast<std::size_t>(rng.uniform_int(1, 2));
  cfg.processors_per_stage = static_cast<std::size_t>(rng.uniform_int(1, 2));
  cfg.jobs = static_cast<std::size_t>(rng.uniform_int(2, 4));
  cfg.pattern = rng.uniform_int(0, 1) == 0 ? ArrivalPattern::kPeriodic
                                           : ArrivalPattern::kAperiodic;
  cfg.utilization = rng.uniform(0.3, 0.7);
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = rng.uniform(2.0, 4.0);
  cfg.scheduler = scheduler;
  System system = generate_jobshop(cfg, rng);
  if (mixed) {
    // Heterogeneous mix: cycle the three schedulers across processors so
    // the dirty-set logic sees SPP, SPNP and FCFS coupling in one system.
    const SchedulerKind kinds[] = {SchedulerKind::kSpp, SchedulerKind::kSpnp,
                                   SchedulerKind::kFcfs};
    for (int p = 0; p < system.processor_count(); ++p) {
      system.set_scheduler(p, kinds[p % 3]);
    }
  }
  assign_proportional_deadline_monotonic(system);
  return system;
}

/// A light candidate job with 1-3 hops on random processors; priorities are
/// filled in by the session's lowest-priority policy.
Job random_job(Rng& rng, const System& base, int serial) {
  Job job;
  job.name = "cand" + std::to_string(serial);
  const int hops = rng.uniform_int(1, 3);
  double exec_total = 0.0;
  for (int h = 0; h < hops; ++h) {
    Subjob s;
    s.processor = rng.uniform_int(0, base.processor_count() - 1);
    s.exec_time = rng.uniform(0.02, 0.15);
    exec_total += s.exec_time;
    job.chain.push_back(s);
  }
  const Time period = rng.uniform(1.0, 4.0);
  const Time window = std::max<Time>(base.last_release(), 4.0 * period);
  job.arrivals =
      rng.uniform_int(0, 1) == 0
          ? ArrivalSequence::periodic(period, window)
          : ArrivalSequence::burst_then_periodic(2, 0.25 * period, period,
                                                 window);
  job.deadline = exec_total * rng.uniform(4.0, 20.0) + period;
  service::assign_lowest_priorities(base, job);
  return job;
}

void expect_bit_identical(const AnalysisResult& fresh,
                          const AnalysisResult& session,
                          const std::string& label) {
  ASSERT_EQ(fresh.ok, session.ok) << label;
  if (!fresh.ok) {
    EXPECT_EQ(fresh.error, session.error) << label;
    return;
  }
  ASSERT_EQ(fresh.jobs.size(), session.jobs.size()) << label;
  EXPECT_EQ(fresh.horizon, session.horizon) << label;
  for (std::size_t k = 0; k < fresh.jobs.size(); ++k) {
    const JobReport& a = fresh.jobs[k];
    const JobReport& b = session.jobs[k];
    EXPECT_EQ(a.wcrt, b.wcrt) << label << " job " << k;
    EXPECT_EQ(a.schedulable, b.schedulable) << label << " job " << k;
    ASSERT_EQ(a.hops.size(), b.hops.size()) << label << " job " << k;
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].local_bound, b.hops[h].local_bound)
          << label << " job " << k << " hop " << h;
    }
  }
}

/// One random operation sequence against one session; every step is checked
/// against BoundsAnalyzer on the candidate system built independently. With
/// a pinned horizon, every ok call made while the session holds retained
/// curves must also be answered incrementally, whatever its closure's size.
/// `performed` counts the operations run (ASSERT macros force void return).
void run_sequence(Rng& rng, SchedulerKind scheduler, bool mixed,
                  bool pin_horizon, int ops, const std::string& label,
                  int& performed) {
  const System base = random_base(rng, scheduler, mixed);

  SessionConfig cfg;
  if (pin_horizon) {
    cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  }

  // The reference config: serial, same horizon policy.
  AnalysisConfig ref_cfg;
  ref_cfg.horizon = cfg.analysis.horizon;

  AdmissionSession session(base, cfg);
  expect_bit_identical(BoundsAnalyzer(ref_cfg).analyze(base), session.last(),
                       label + " base");
  // The constructor's full pass retains curves when the base is valid, and
  // no later call drops them. (A cyclic base stays cyclic under added jobs,
  // so no call on it is ok.)
  const bool reusable = pin_horizon && session.last().ok;
  const auto expect_reuse = [&](const Decision& d, const std::string& what) {
    if (!reusable || !d.ok) return;
    EXPECT_TRUE(d.incremental) << what;
    EXPECT_LE(d.dirty_subjobs, d.total_subjobs) << what;
  };

  System shadow = base;  // independently maintained committed system
  std::vector<std::uint64_t> admitted_ids;
  for (int op = 0; op < ops; ++op) {
    const std::string op_label = label + " op " + std::to_string(op);
    const int kind = rng.uniform_int(0, 9);
    if (kind < 3 && !admitted_ids.empty()) {  // remove a previously added job
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(admitted_ids.size()) - 1));
      const std::uint64_t id = admitted_ids[pick];
      System candidate = shadow;
      ASSERT_TRUE(candidate.remove_job(candidate.job_index_by_id(id)));
      const Decision d = session.remove(id);
      ASSERT_TRUE(d.ok) << op_label;
      EXPECT_TRUE(d.committed) << op_label;
      expect_bit_identical(BoundsAnalyzer(ref_cfg).analyze(candidate),
                           d.analysis, op_label + " remove");
      expect_reuse(d, op_label + " remove");
      shadow = candidate;
      admitted_ids.erase(admitted_ids.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    } else {
      const bool query_only = kind >= 8;
      Job job = random_job(rng, shadow, op);
      System candidate = shadow;
      candidate.add_job(job);
      const AnalysisResult fresh = BoundsAnalyzer(ref_cfg).analyze(candidate);
      const Decision d =
          query_only ? session.what_if(job) : session.admit(job);
      // A structurally rejected candidate (e.g. an FCFS coupling cycle) must
      // fail with the analyzer's own error -- and agree with the fresh run.
      expect_bit_identical(fresh, d.analysis,
                           op_label + (query_only ? " what_if" : " admit"));
      EXPECT_EQ(d.ok, fresh.ok) << op_label << ": " << d.error;
      EXPECT_EQ(d.admitted, d.ok && fresh.all_schedulable()) << op_label;
      EXPECT_EQ(d.committed, !query_only && d.admitted) << op_label;
      expect_reuse(d, op_label + (query_only ? " what_if" : " admit"));
      if (d.committed) {
        // The session assigns ids even for rolled-back candidates, so the
        // shadow must adopt the session's id rather than auto-assign one.
        Job committed = job;
        committed.id = d.job_id;
        shadow.add_job(std::move(committed));
        admitted_ids.push_back(d.job_id);
      }
    }
    // The session's committed state must always match the shadow system.
    ASSERT_EQ(session.system().job_count(), shadow.job_count()) << op_label;
    ++performed;
  }
  // Final consistency: the retained committed analysis equals a fresh run.
  expect_bit_identical(BoundsAnalyzer(ref_cfg).analyze(shadow), session.last(),
                       label + " final");
}

/// >= 200 operations per RNG stream set (streams 0.. and 1000..), spread
/// over schedulers, horizon policies and heterogeneous systems.
TEST(ServiceDifferential, RandomSequencesMatchFreshAnalysis) {
  const RngFactory factory(0x5E55104E);
  const struct {
    SchedulerKind scheduler;
    bool mixed;
  } batches[] = {
      {SchedulerKind::kSpp, false},
      {SchedulerKind::kSpnp, false},
      {SchedulerKind::kFcfs, false},
      {SchedulerKind::kSpp, true},
  };
  const std::uint64_t stream_sets[] = {0, 1000};
  for (const std::uint64_t first_stream : stream_sets) {
    int total_ops = 0;
    std::uint64_t stream = first_stream;
    for (const auto& batch : batches) {
      for (int trial = 0; trial < 4; ++trial) {
        Rng rng = factory.stream(stream++);
        const bool pin = trial % 2 == 0;
        const std::string label =
            std::string(to_string(batch.scheduler)) +
            (batch.mixed ? "+mixed" : "") + " trial " + std::to_string(trial) +
            " stream " + std::to_string(stream - 1);
        run_sequence(rng, batch.scheduler, batch.mixed, pin, /*ops=*/13,
                     label, total_ops);
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GE(total_ops, 200) << "streams from " << first_stream;
  }
}

// A session with a pinned horizon must actually exercise the incremental
// path (otherwise the differential test above only covers full passes).
TEST(ServiceDifferential, PinnedHorizonTakesIncrementalPath) {
  Rng rng(42);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  AdmissionSession session(base, cfg);
  int incremental = 0;
  for (int i = 0; i < 6; ++i) {
    const Decision d = session.what_if(random_job(rng, base, i));
    ASSERT_TRUE(d.ok) << d.error;
    if (d.incremental) ++incremental;
  }
  EXPECT_GT(incremental, 0);
}

// A closure can be the whole system: on an all-FCFS shop, a top-priority
// candidate that visits every processor dirties every subjob, since Theorem
// 7's utilization function sums the whole processor. The session still
// answers from its retained curves, and the answer equals a fresh analysis.
TEST(ServiceDifferential, WholeSystemClosureStaysIncremental) {
  Rng rng(23);
  const System base = random_base(rng, SchedulerKind::kFcfs, false);
  SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  AdmissionSession session(base, cfg);
  ASSERT_TRUE(session.last().ok) << session.last().error;

  Job job;
  job.name = "everywhere";
  for (int p = 0; p < base.processor_count(); ++p) {
    job.chain.push_back(Subjob{p, 0.05, 0});
  }
  job.arrivals =
      ArrivalSequence::periodic(4.0, std::max<Time>(base.last_release(), 16.0));
  job.deadline = 1e3;
  System candidate = base;
  candidate.add_job(job);
  AnalysisConfig ref_cfg;
  ref_cfg.horizon = cfg.analysis.horizon;
  const AnalysisResult fresh = BoundsAnalyzer(ref_cfg).analyze(candidate);

  const Decision d = session.admit(job);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_TRUE(d.incremental);
  EXPECT_EQ(d.dirty_subjobs, d.total_subjobs);
  expect_bit_identical(fresh, d.analysis, "whole-system admit");
}

// The explain payload (per-hop bound provenance, docs/observability.md) is
// filled from the same per-subjob states both what-if paths compute, so the
// fast read path and the general path must agree on every field exactly --
// double-equality on the bounds, not approximate.
TEST(Service, ExplainBitIdenticalBetweenFastAndGeneralWhatIf) {
  Rng rng(29);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  AdmissionSession session(base, cfg);
  for (int i = 0; i < 8; ++i) {
    const Job job = random_job(rng, base, i);
    const service::ReadDecision fast = session.read_what_if(job);
    const service::ReadDecision general =
        AdmissionSession::summarize(session.what_if(job));
    ASSERT_EQ(fast.ok, general.ok) << "candidate " << i;
    if (!fast.ok) continue;
    ASSERT_TRUE(fast.explain.available) << "candidate " << i;
    ASSERT_TRUE(general.explain.available) << "candidate " << i;
    EXPECT_EQ(fast.explain.wcrt, general.explain.wcrt) << "candidate " << i;
    EXPECT_EQ(fast.explain.deadline, general.explain.deadline);
    EXPECT_EQ(fast.explain.dominant_hop, general.explain.dominant_hop);
    ASSERT_EQ(fast.explain.hops.size(), general.explain.hops.size());
    for (std::size_t h = 0; h < fast.explain.hops.size(); ++h) {
      EXPECT_EQ(fast.explain.hops[h].hop, general.explain.hops[h].hop);
      EXPECT_EQ(fast.explain.hops[h].processor,
                general.explain.hops[h].processor);
      EXPECT_EQ(fast.explain.hops[h].bound, general.explain.hops[h].bound)
          << "candidate " << i << " hop " << h;
    }
  }
}

/// A candidate of FastWhatIfFollowsCommits on an SPP shop: `hops` hops on
/// random processors, the second on the first's processor when
/// `share_processor`; first-hop arrivals periodic, a burst then periodic, or
/// Eq. 27 bursty. Lowest priorities against `committed`, lowered by a
/// further `offset` so a fixed probe stays strictly lowest while admits
/// come and go.
Job follow_candidate(Rng& rng, const System& committed, int hops,
                     bool share_processor, int arrivals, int offset,
                     int serial) {
  Job job;
  job.name = "follow" + std::to_string(serial);
  double exec_total = 0.0;
  for (int h = 0; h < hops; ++h) {
    Subjob s;
    s.processor = h == 1 && share_processor
                      ? job.chain[0].processor
                      : rng.uniform_int(0, committed.processor_count() - 1);
    s.exec_time = rng.uniform(0.02, 0.12);
    exec_total += s.exec_time;
    job.chain.push_back(s);
  }
  const Time period = rng.uniform(1.0, 4.0);
  const Time window = std::max<Time>(committed.last_release(), 4.0 * period);
  switch (arrivals) {
    case 0:
      job.arrivals = ArrivalSequence::periodic(period, window);
      break;
    case 1:
      job.arrivals =
          ArrivalSequence::burst_then_periodic(4, 0.1 * period, period, window);
      break;
    default:
      job.arrivals = ArrivalSequence::bursty_eq27(0.5, window);
      break;
  }
  job.deadline = exec_total * rng.uniform(4.0, 20.0) + period;
  service::assign_lowest_priorities(committed, job);
  for (Subjob& s : job.chain) s.priority += offset;
  return job;
}

/// Every serialized field of two read answers, bit for bit.
void expect_same_read(const service::ReadDecision& got,
                      const service::ReadDecision& want,
                      const std::string& label) {
  ASSERT_EQ(got.ok, want.ok) << label;
  EXPECT_EQ(got.error, want.error) << label;
  EXPECT_EQ(got.admitted, want.admitted) << label;
  EXPECT_EQ(got.committed, want.committed) << label;
  EXPECT_EQ(got.incremental, want.incremental) << label;
  EXPECT_EQ(got.job_id, want.job_id) << label;
  EXPECT_EQ(got.dirty_subjobs, want.dirty_subjobs) << label;
  EXPECT_EQ(got.total_subjobs, want.total_subjobs) << label;
  EXPECT_EQ(got.schedulable, want.schedulable) << label;
  EXPECT_EQ(got.max_wcrt, want.max_wcrt) << label;
  EXPECT_EQ(got.horizon, want.horizon) << label;
  EXPECT_EQ(got.explain.available, want.explain.available) << label;
  EXPECT_EQ(got.explain.wcrt, want.explain.wcrt) << label;
  EXPECT_EQ(got.explain.deadline, want.explain.deadline) << label;
  EXPECT_EQ(got.explain.dominant_hop, want.explain.dominant_hop) << label;
  EXPECT_EQ(got.explain.horizon_doublings, want.explain.horizon_doublings)
      << label;
  ASSERT_EQ(got.explain.hops.size(), want.explain.hops.size()) << label;
  for (std::size_t h = 0; h < got.explain.hops.size(); ++h) {
    EXPECT_EQ(got.explain.hops[h].hop, want.explain.hops[h].hop) << label;
    EXPECT_EQ(got.explain.hops[h].processor, want.explain.hops[h].processor)
        << label << " hop " << h;
    EXPECT_EQ(got.explain.hops[h].bound, want.explain.hops[h].bound)
        << label << " hop " << h;
  }
}

/// read_what_if (fast path when it applies) against the general what_if on
/// the same candidate, with the same job id handed out to both: every
/// serialized field must agree bit for bit.
void expect_fast_equals_general(AdmissionSession& session, const Job& job,
                                const std::string& label) {
  const std::uint64_t next_id = session.peek_next_job_id();
  const service::ReadDecision fast = session.read_what_if(job);
  session.set_next_job_id(next_id);
  const service::ReadDecision general =
      AdmissionSession::summarize(session.what_if(job));
  expect_same_read(fast, general, label);
}

/// service.fast_what_if spans opened by reads (`admits` false) or by fast
/// admits, whose args carry "op": "admit".
std::size_t fast_path_spans(const obs::Tracer& tracer, bool admits) {
  std::size_t n = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.phase == 'B' && e.name == "service.fast_what_if" &&
        (e.args.find("\"op\": \"admit\"") != std::string::npos) == admits) {
      ++n;
    }
  }
  return n;
}

std::size_t fast_what_if_spans(const obs::Tracer& tracer) {
  return fast_path_spans(tracer, /*admits=*/false);
}

// The fast what-if path keeps per-processor higher-priority operands across
// reads of one committed state and cuts the last hop at its local bound.
// Fixed probes -- 1-3 hops, periodic and bursty first hops, two of them with
// two hops on one processor -- are re-asked after every step of a stream of
// committed and refused admits, removes and general-path what_ifs, and must
// match the general path bit for bit each time: a stale cache, a cache
// reused for a hop whose processor already carries an earlier hop of the
// candidate, or a skipped upper part on a non-last hop all show up here.
// Each probe is asked with a deadline of its own per step (the horizon is
// pinned, so that moves only the verdict), which keeps every probe read off
// read_what_if's memo and on the fast path over the read cache, also right
// after a refused admit, which keeps that cache.
TEST(Service, FastWhatIfFollowsCommits) {
  Rng rng(43);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  obs::Tracer tracer;
  SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  cfg.analysis.observer.tracer = &tracer;
  AdmissionSession session(base, cfg);
  ASSERT_TRUE(session.last().ok);

  constexpr int kProbeOffset = 1000;
  const std::vector<Job> probes = {
      follow_candidate(rng, base, 1, false, 0, kProbeOffset, 0),
      follow_candidate(rng, base, 2, false, 1, kProbeOffset, 1),
      follow_candidate(rng, base, 3, true, 0, kProbeOffset, 2),
      follow_candidate(rng, base, 2, true, 2, kProbeOffset, 3),
      follow_candidate(rng, base, 3, false, 2, kProbeOffset, 4),
  };
  std::vector<std::uint64_t> admitted;
  int removes = 0, commits = 0, refusals = 0;
  for (int step = 0; step < 40; ++step) {
    const std::string label = "step " + std::to_string(step);
    const int kind = rng.uniform_int(0, 9);
    const int hops = rng.uniform_int(1, 3);
    Job job = follow_candidate(rng, session.system(), hops,
                               rng.uniform_int(0, 2) == 0,
                               rng.uniform_int(0, 2), 0, 100 + step);
    if (kind < 3 && !admitted.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(admitted.size()) - 1));
      ASSERT_TRUE(session.remove(admitted[pick]).committed) << label;
      admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(pick));
      ++removes;
    } else if (kind < 7) {
      if (kind == 6) job.deadline = 1e-3;  // certainly refused
      const Decision d = session.admit(job);
      ASSERT_TRUE(d.ok) << label << ": " << d.error;
      if (d.committed) {
        admitted.push_back(d.job_id);
        ++commits;
      } else {
        ++refusals;
      }
    } else {
      const Decision d = session.what_if(job);
      ASSERT_TRUE(d.ok) << label << ": " << d.error;
      EXPECT_FALSE(d.committed) << label;
      expect_fast_equals_general(session, job, label + " fresh candidate");
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
      Job probe = probes[i];
      probe.deadline *= 1.0 + 0.01 * step;
      expect_fast_equals_general(session, probe,
                                 label + " probe " + std::to_string(i));
    }
  }
  EXPECT_GT(removes, 0);
  EXPECT_GT(commits, 0);
  EXPECT_GT(refusals, 0);
  // Every probe read took the fast path (a fallback would compare the
  // general path with itself, and a memo hit opens no span).
  EXPECT_GE(fast_what_if_spans(tracer), 40 * probes.size());
}

std::uint64_t counter_value(const obs::MetricsRegistry& metrics,
                            const std::string& name) {
  const obs::MetricsSnapshot snap = metrics.snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::uint64_t memo_hits(const obs::MetricsRegistry& metrics) {
  return counter_value(metrics, "service.what_if_memo_hits");
}

/// read_what_if on `session` checked against a clone_committed() taken just
/// before it, whose memo is empty: the same answer field by field, and the
/// same id counter afterwards. Returns the session's answer.
service::ReadDecision read_against_clone(AdmissionSession& session,
                                         const Job& job,
                                         const std::string& label) {
  const std::unique_ptr<AdmissionSession> fresh = session.clone_committed();
  const service::ReadDecision got = session.read_what_if(job);
  const service::ReadDecision want = fresh->read_what_if(job);
  expect_same_read(got, want, label);
  EXPECT_EQ(session.peek_next_job_id(), fresh->peek_next_job_id()) << label;
  return got;
}

/// A session on an SPP shop with a pinned horizon and a metrics registry,
/// for the what-if memo tests.
struct MemoFixture {
  explicit MemoFixture(std::uint64_t seed) : rng(seed) {
    base = random_base(rng, SchedulerKind::kSpp, false);
    SessionConfig cfg;
    cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
    cfg.analysis.observer.metrics = &metrics;
    cfg.analysis.observer.tracer = &tracer;
    session = std::make_unique<AdmissionSession>(base, cfg);
  }
  /// A fast-path candidate that stays lowest-priority while admits come
  /// and go.
  Job probe(int serial) {
    return follow_candidate(rng, base, 2, false, 0, 1000, serial);
  }

  Rng rng;
  System base;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  std::unique_ptr<AdmissionSession> session;
};

// The memo differential: seeded random streams of re-asked what-ifs (auto,
// fresh explicit and committed explicit ids, renamed twins), fresh
// candidates, committed and refused admits, found and unknown removes and
// general-path what_ifs on one session. Every what_if must answer exactly
// like a clone with an empty memo and leave the same id counter, on SPP
// shops (fast path, memo) and on SPNP/FCFS mixes (general path, no memo).
TEST(ServiceDifferential, WhatIfMemoMatchesEmptyMemoClone) {
  std::uint64_t total_hits = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(1000 + seed);
    const bool mixed = seed % 4 == 0;
    const System base = random_base(rng, SchedulerKind::kSpp, mixed);
    obs::MetricsRegistry metrics;
    SessionConfig cfg;
    cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
    cfg.analysis.observer.metrics = &metrics;
    AdmissionSession session(base, cfg);
    ASSERT_TRUE(session.last().ok);

    std::vector<Job> working;
    for (int i = 0; i < 4; ++i) {
      working.push_back(follow_candidate(rng, base, rng.uniform_int(1, 3),
                                         rng.uniform_int(0, 1) == 0,
                                         rng.uniform_int(0, 2), 1000, i));
    }
    std::vector<std::uint64_t> admitted;
    for (int step = 0; step < 60; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const int kind = rng.uniform_int(0, 9);
      Job job = working[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(working.size()) - 1))];
      if (kind <= 4) {
        switch (rng.uniform_int(0, 3)) {
          case 0: break;
          case 1: job.name += "-twin"; break;
          case 2:
            job.id = session.peek_next_job_id() +
                     static_cast<std::uint64_t>(rng.uniform_int(0, 3));
            break;
          default:
            job.id = session.system().job(0).id;  // duplicate: an error
            break;
        }
        read_against_clone(session, job, label + " re-ask");
      } else if (kind == 5) {
        Job fresh = random_job(rng, session.system(), 100 + step);
        read_against_clone(session, fresh, label + " fresh");
        working[static_cast<std::size_t>(step) % working.size()] = fresh;
      } else if (kind <= 7) {
        Job cand = follow_candidate(rng, session.system(),
                                    rng.uniform_int(1, 2), false, 0, 0,
                                    200 + step);
        if (kind == 7) cand.deadline = 1e-3;  // certainly refused
        const Decision d = session.admit(cand);
        if (d.committed) admitted.push_back(d.job_id);
      } else if (kind == 8) {
        if (!admitted.empty() && rng.uniform_int(0, 2) != 0) {
          ASSERT_TRUE(session.remove(admitted.back()).committed) << label;
          admitted.pop_back();
        } else {
          EXPECT_FALSE(session.remove(987654).ok) << label;
        }
      } else {
        EXPECT_FALSE(session.what_if(job).committed) << label;
      }
    }
    if (!mixed) {
      EXPECT_GT(memo_hits(metrics), 0u) << "seed " << seed;
    }
    total_hits += memo_hits(metrics);
  }
  EXPECT_GT(total_hits, 40u);
}

TEST(Service, WhatIfMemoSurvivesRefusedAdmitAndUnknownRemove) {
  MemoFixture f(51);
  AdmissionSession& session = *f.session;
  const Job x = f.probe(0);
  ASSERT_TRUE(read_against_clone(session, x, "first ask").ok);
  EXPECT_EQ(memo_hits(f.metrics), 0u);

  Job hog = f.probe(1);
  hog.deadline = 1e-3;
  ASSERT_FALSE(session.admit(hog).committed);
  read_against_clone(session, x, "after refused admit");
  EXPECT_EQ(memo_hits(f.metrics), 1u);

  EXPECT_FALSE(session.remove(987654).ok);
  read_against_clone(session, x, "after unknown remove");
  EXPECT_EQ(memo_hits(f.metrics), 2u);

  EXPECT_FALSE(session.what_if(hog).committed);
  read_against_clone(session, x, "after general what_if");
  EXPECT_EQ(memo_hits(f.metrics), 3u);
}

// A refused admit and an unknown-id remove keep the read cache: new
// candidates (memo misses) read after each, one sharing the hops of the
// candidate that built the cache, run the fast path over the kept cache and
// answer like a clone that builds its own.
TEST(Service, ReadCacheSurvivesRefusedAdmitAndUnknownRemove) {
  MemoFixture f(58);
  AdmissionSession& session = *f.session;
  const Job x = f.probe(0);
  ASSERT_TRUE(read_against_clone(session, x, "build cache").ok);

  Job hog = f.probe(1);
  hog.deadline = 1e-3;
  ASSERT_FALSE(session.admit(hog).committed);
  Job y = x;
  y.deadline *= 0.5;
  read_against_clone(session, y, "same hops after refused admit");
  read_against_clone(session, f.probe(2), "new hops after refused admit");

  EXPECT_FALSE(session.remove(987654).ok);
  y.deadline *= 0.5;
  read_against_clone(session, y, "same hops after unknown remove");
  read_against_clone(session, f.probe(3), "new hops after unknown remove");

  EXPECT_EQ(memo_hits(f.metrics), 0u);
  // Every read ran the fast path, on the session and on its clones alike.
  EXPECT_EQ(fast_what_if_spans(f.tracer), 10u);
}

TEST(Service, WhatIfMemoEmptiedByCommitAndRemove) {
  MemoFixture f(52);
  AdmissionSession& session = *f.session;
  const Job x = f.probe(0);
  read_against_clone(session, x, "first ask");

  Job light = f.probe(1);
  light.deadline = 1e6;
  const Decision d = session.admit(light);
  ASSERT_TRUE(d.committed);
  read_against_clone(session, x, "after commit");
  EXPECT_EQ(memo_hits(f.metrics), 0u);
  read_against_clone(session, x, "re-ask after commit");
  EXPECT_EQ(memo_hits(f.metrics), 1u);

  ASSERT_TRUE(session.remove(d.job_id).committed);
  read_against_clone(session, x, "after remove");
  EXPECT_EQ(memo_hits(f.metrics), 1u);
}

// Keys compare doubles by bit pattern: a release at -0.0 is not the same
// candidate as one at +0.0, though either answers the same. A renamed twin
// is the same candidate.
TEST(Service, WhatIfMemoKeysOnBitsNotNames) {
  MemoFixture f(53);
  AdmissionSession& session = *f.session;
  Job plus = f.probe(0);
  std::vector<Time> releases = plus.arrivals.releases();
  ASSERT_FALSE(std::signbit(releases.front()));
  ASSERT_EQ(releases.front(), 0.0);
  releases.front() = -0.0;
  Job minus = plus;
  minus.arrivals = ArrivalSequence(releases);

  const service::ReadDecision a = read_against_clone(session, plus, "+0.0");
  const service::ReadDecision b = read_against_clone(session, minus, "-0.0");
  EXPECT_EQ(memo_hits(f.metrics), 0u);
  EXPECT_EQ(a.max_wcrt, b.max_wcrt);

  Job twin = plus;
  twin.name = "twin";
  read_against_clone(session, twin, "renamed twin");
  read_against_clone(session, minus, "-0.0 again");
  EXPECT_EQ(memo_hits(f.metrics), 2u);
}

// Every analysed field is part of the key: a candidate that differs from a
// stored one in any single field is a miss, and each is stored on its own.
TEST(Service, WhatIfMemoKeysEveryAnalysedField) {
  MemoFixture f(56);
  AdmissionSession& session = *f.session;
  Job x = f.probe(0);
  ASSERT_NE(x.chain[0].processor, x.chain[1].processor);
  x.chain[0].priority = 2000;  // lowest on any processor, in hop order
  x.chain[1].priority = 2001;
  std::vector<Job> variants(7, x);
  variants[1].deadline *= 1.5;
  variants[2].chain[1].exec_time *= 0.5;
  variants[3].chain[1].processor = x.chain[0].processor;
  variants[4].chain[1].priority += 1;
  std::vector<Time> moved = x.arrivals.releases();
  moved.back() *= 0.999;
  variants[5].arrivals = ArrivalSequence(moved);
  moved.pop_back();
  variants[6].arrivals = ArrivalSequence(moved);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    ASSERT_TRUE(read_against_clone(session, variants[i],
                                   "variant " + std::to_string(i))
                    .ok);
  }
  EXPECT_EQ(memo_hits(f.metrics), 0u);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    read_against_clone(session, variants[i], "again " + std::to_string(i));
  }
  EXPECT_EQ(memo_hits(f.metrics), variants.size());
}

// The memo is a ring of kWhatIfMemoSlots answers: one more candidate evicts
// the oldest, and the rest are still answered from it.
TEST(Service, WhatIfMemoRingEvictsOldest) {
  MemoFixture f(57);
  AdmissionSession& session = *f.session;
  const Job x = f.probe(0);
  constexpr std::size_t kSlots = AdmissionSession::kWhatIfMemoSlots;
  std::vector<Job> asked(kSlots + 1, x);
  for (std::size_t i = 0; i < asked.size(); ++i) {
    asked[i].deadline += static_cast<double>(i);
    read_against_clone(session, asked[i], "fill " + std::to_string(i));
  }
  EXPECT_EQ(memo_hits(f.metrics), 0u);
  for (std::size_t i = 2; i < asked.size(); ++i) {
    read_against_clone(session, asked[i], "kept " + std::to_string(i));
  }
  EXPECT_EQ(memo_hits(f.metrics), kSlots - 1);
  read_against_clone(session, asked[0], "evicted");
  EXPECT_EQ(memo_hits(f.metrics), kSlots - 1);

  // A commit empties the full ring; its slots refill from the first, and
  // none of the old answers is read again.
  Job light = follow_candidate(f.rng, session.system(), 1, false, 0, 0, 1);
  light.deadline = 1e6;
  ASSERT_TRUE(session.admit(light).committed);
  for (std::size_t i = 0; i < 3; ++i) {
    read_against_clone(session, asked[i], "refill " + std::to_string(i));
  }
  EXPECT_EQ(memo_hits(f.metrics), kSlots - 1);
  for (std::size_t i = 0; i < asked.size(); ++i) {
    read_against_clone(session, asked[i], "after refill " + std::to_string(i));
  }
  EXPECT_EQ(memo_hits(f.metrics), kSlots - 1 + 3);
}

TEST(Service, WhatIfMemoSkipsOversizedCandidate) {
  MemoFixture f(54);
  AdmissionSession& session = *f.session;
  Job big = f.probe(0);
  const Time span = f.base.last_release();
  const std::size_t n = AdmissionSession::kWhatIfMemoMaxReleases + 1;
  std::vector<Time> releases(n);
  for (std::size_t i = 0; i < n; ++i) {
    releases[i] = span * static_cast<double>(i) / static_cast<double>(n);
  }
  big.arrivals = ArrivalSequence(std::move(releases));
  big.deadline = 1e6;
  for (Subjob& s : big.chain) s.exec_time = 1e-4;
  const service::ReadDecision first = read_against_clone(session, big, "1st");
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(first.incremental);
  read_against_clone(session, big, "2nd");
  EXPECT_EQ(memo_hits(f.metrics), 0u);
  // Both reads ran the fast path, on the session and on its clone alike.
  EXPECT_EQ(fast_what_if_spans(f.tracer), 4u);
}

// Ids on a hit move exactly as System::add_job moves them, and a committed
// explicit id still gets the duplicate-id error with a stored answer at hand.
TEST(Service, WhatIfMemoHitDrawsIdsLikeAddJob) {
  MemoFixture f(55);
  AdmissionSession& session = *f.session;
  Job x = f.probe(0);
  read_against_clone(session, x, "store");

  x.id = session.system().job(0).id;
  const std::uint64_t next = session.peek_next_job_id();
  const service::ReadDecision dup = read_against_clone(session, x, "dup");
  EXPECT_FALSE(dup.ok);
  EXPECT_EQ(dup.error, "duplicate job id " + std::to_string(x.id));
  EXPECT_EQ(session.peek_next_job_id(), next);
  EXPECT_EQ(memo_hits(f.metrics), 0u);

  x.id = next + 10;  // explicit, past the counter: lifts it
  EXPECT_EQ(read_against_clone(session, x, "explicit").job_id, next + 10);
  EXPECT_EQ(session.peek_next_job_id(), next + 11);
  x.id = next + 5;  // explicit, below the counter: leaves it
  EXPECT_EQ(read_against_clone(session, x, "explicit low").job_id, next + 5);
  EXPECT_EQ(session.peek_next_job_id(), next + 11);
  x.id = 0;  // auto: draws the counter
  EXPECT_EQ(read_against_clone(session, x, "auto").job_id, next + 11);
  EXPECT_EQ(session.peek_next_job_id(), next + 12);
  EXPECT_EQ(memo_hits(f.metrics), 3u);
}

/// A candidate of FastAdmitMatchesFreshSession: 1-3 hops, each on one of
/// the `spp` processors with probability 3/4 (else on any processor), the
/// second hop sometimes on the first's processor, lowest priorities against
/// `committed`.
Job admit_candidate(Rng& rng, const System& committed,
                    const std::vector<int>& spp, int serial) {
  Job job = random_job(rng, committed, serial);
  for (Subjob& s : job.chain) {
    if (rng.uniform_int(0, 3) != 0) {
      s.processor = spp[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(spp.size()) - 1))];
    }
  }
  if (job.chain.size() > 1 && rng.uniform_int(0, 2) == 0) {
    job.chain[1].processor = job.chain[0].processor;
  }
  service::assign_lowest_priorities(committed, job);
  return job;
}

// The fast admit differential: seeded streams of committed and refused
// admits (lowest priorities, explicit and auto ids, hops on SPP processors
// and, in the SPNP/FCFS mixes, elsewhere), found and unknown removes and
// what-ifs, at a pinned horizon. After every op, last() equals a fresh
// analysis of the shadow system bit for bit, and a fresh candidate on every
// SPP processor -- whose higher-priority operands include the S̄ a fast
// commit computed for its last hop -- answers exactly as it does on a
// session built from the shadow system, with the same id counter after.
TEST(ServiceDifferential, FastAdmitMatchesFreshSession) {
  std::uint64_t fast_admits = 0, admits = 0;
  int commits = 0, refusals = 0;
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    Rng rng(2000 + seed);
    const bool mixed = seed % 3 == 0;
    const System base = random_base(rng, SchedulerKind::kSpp, mixed);
    std::vector<int> spp;
    for (int p = 0; p < base.processor_count(); ++p) {
      if (base.scheduler(p) == SchedulerKind::kSpp) spp.push_back(p);
    }
    ASSERT_FALSE(spp.empty());
    obs::MetricsRegistry metrics;
    SessionConfig ref_session_cfg;
    ref_session_cfg.analysis.horizon =
        4.0 * default_horizon(base, AnalysisConfig{});
    SessionConfig cfg = ref_session_cfg;
    cfg.analysis.observer.metrics = &metrics;
    AnalysisConfig ref_cfg;
    ref_cfg.horizon = cfg.analysis.horizon;
    AdmissionSession session(base, cfg);
    ASSERT_TRUE(session.last().ok);

    System shadow = base;
    std::vector<std::uint64_t> admitted;
    for (int step = 0; step < 30; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const int kind = rng.uniform_int(0, 9);
      if (kind < 2 && !admitted.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(admitted.size()) - 1));
        ASSERT_TRUE(session.remove(admitted[pick]).committed) << label;
        ASSERT_TRUE(
            shadow.remove_job(shadow.job_index_by_id(admitted[pick])));
        admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (kind == 2) {
        EXPECT_FALSE(session.remove(987654).ok) << label;
      } else if (kind < 8) {
        Job job = admit_candidate(rng, shadow, spp, step);
        if (kind == 6) job.id = session.peek_next_job_id() + 3;
        if (kind == 7) job.deadline = 1e-3;  // certainly refused
        System candidate = shadow;
        candidate.add_job(job);
        const AnalysisResult fresh = BoundsAnalyzer(ref_cfg).analyze(candidate);
        const Decision d = session.admit(job);
        ++admits;
        ASSERT_TRUE(d.ok) << label << ": " << d.error;
        expect_bit_identical(fresh, d.analysis, label + " admit");
        EXPECT_EQ(d.admitted, fresh.all_schedulable()) << label;
        EXPECT_EQ(d.committed, d.admitted) << label;
        EXPECT_TRUE(d.incremental) << label;
        if (job.id != 0) {
          EXPECT_EQ(d.job_id, job.id) << label;
        }
        if (d.committed) {
          job.id = d.job_id;
          shadow.add_job(job);
          admitted.push_back(d.job_id);
          ++commits;
        } else {
          ++refusals;
        }
      } else {
        expect_fast_equals_general(
            session, admit_candidate(rng, shadow, spp, step),
            label + " what_if");
      }
      ASSERT_EQ(session.system().job_count(), shadow.job_count()) << label;
      expect_bit_identical(BoundsAnalyzer(ref_cfg).analyze(shadow),
                           session.last(), label + " last()");

      AdmissionSession rebuilt(shadow, ref_session_cfg);
      for (const int p : spp) {
        Job probe;
        probe.name = "probe";
        const int hops = rng.uniform_int(1, 2);
        for (int h = 0; h < hops; ++h) {
          probe.chain.push_back(Subjob{p, rng.uniform(0.02, 0.1), 0});
        }
        probe.arrivals = ArrivalSequence::burst_then_periodic(
            2, 0.5, rng.uniform(1.0, 4.0),
            std::max<Time>(shadow.last_release(), 8.0));
        probe.deadline = rng.uniform(1.0, 30.0);
        service::assign_lowest_priorities(shadow, probe);
        rebuilt.set_next_job_id(session.peek_next_job_id());
        const std::string probe_label = label + " probe P" + std::to_string(p);
        expect_same_read(session.read_what_if(probe),
                         rebuilt.read_what_if(probe), probe_label);
        EXPECT_EQ(session.peek_next_job_id(), rebuilt.peek_next_job_id())
            << probe_label;
      }
      if (HasFatalFailure()) return;
    }
    fast_admits += counter_value(metrics, "service.fast_admits");
  }
  EXPECT_GT(commits, 20);
  EXPECT_GT(refusals, 20);
  EXPECT_GT(fast_admits, 40u);
  EXPECT_LT(fast_admits, admits);  // the mixes also admit off the fast path
}

// Fast admits, committed and refused alike, are counted in
// service.fast_admits and run no wavefront unit; an admit the screen turns
// away (a mid priority, an SPNP or FCFS hop, recorded curves) is not
// counted and takes the wavefront.
TEST(Service, FastAdmitRunsNoWavefront) {
  System base(3);
  base.set_scheduler(1, SchedulerKind::kSpnp);
  base.set_scheduler(2, SchedulerKind::kFcfs);
  const auto make = [](const std::string& name, std::vector<Subjob> chain,
                       Time period, Time deadline) {
    Job j;
    j.name = name;
    j.deadline = deadline;
    j.chain = std::move(chain);
    j.arrivals = ArrivalSequence::periodic(period, 48.0);
    return j;
  };
  base.add_job(make("a", {{0, 0.5, 1}, {1, 0.4, 1}, {2, 0.3, 0}}, 6.0, 20.0));
  base.add_job(make("b", {{0, 0.4, 3}, {1, 0.3, 2}}, 8.0, 24.0));

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  cfg.analysis.observer.metrics = &metrics;
  cfg.analysis.observer.tracer = &tracer;
  AdmissionSession session(base, cfg);
  ASSERT_TRUE(session.last().ok);
  const auto fast = [&] {
    return counter_value(metrics, "service.fast_admits");
  };
  const auto units = [&] { return counter_value(metrics, "bounds.units"); };
  EXPECT_EQ(fast(), 0u);
  const std::uint64_t base_units = units();
  ASSERT_GT(base_units, 0u);

  Job low = make("low", {{0, 0.1, 0}}, 12.0, 1e3);
  service::assign_lowest_priorities(session.system(), low);
  const Decision committed = session.admit(low);
  ASSERT_TRUE(committed.committed) << committed.error;
  EXPECT_EQ(committed.dirty_subjobs, 1);
  EXPECT_EQ(fast(), 1u);
  EXPECT_EQ(units(), base_units);

  Job pair = make("pair", {{0, 0.1, 0}, {0, 0.1, 0}}, 12.0, 1e-3);
  service::assign_lowest_priorities(session.system(), pair);
  const Decision refused = session.admit(pair);
  ASSERT_TRUE(refused.ok) << refused.error;
  EXPECT_FALSE(refused.committed);
  EXPECT_EQ(fast(), 2u);
  EXPECT_EQ(units(), base_units);
  EXPECT_EQ(fast_path_spans(tracer, /*admits=*/true), 2u);

  const Job off_screen[] = {
      make("mid", {{0, 0.1, 2}}, 12.0, 1e3),
      make("spnp", {{1, 0.1, 5}}, 12.0, 1e3),
      make("fcfs", {{2, 0.1, 0}}, 12.0, 1e3),
  };
  for (const Job& job : off_screen) {
    const std::uint64_t before = units();
    ASSERT_TRUE(session.admit(job).ok) << job.name;
    EXPECT_EQ(fast(), 2u) << job.name;
    EXPECT_GT(units(), before) << job.name;
  }
  EXPECT_EQ(fast_path_spans(tracer, /*admits=*/true), 2u);

  obs::MetricsRegistry recorded_metrics;
  SessionConfig recorded = cfg;
  recorded.analysis.record_curves = true;
  recorded.analysis.observer.metrics = &recorded_metrics;
  recorded.analysis.observer.tracer = nullptr;
  AdmissionSession recording(base, recorded);
  Job again = make("again", {{0, 0.1, 0}}, 12.0, 1e3);
  service::assign_lowest_priorities(recording.system(), again);
  const Decision d = recording.admit(again);
  ASSERT_TRUE(d.committed) << d.error;
  EXPECT_FALSE(d.analysis.jobs.back().hops.front().curves.empty());
  EXPECT_EQ(counter_value(recorded_metrics, "service.fast_admits"), 0u);
}

// A commit whose analysis needed a horizon doubling leaves last() at the
// doubled horizon and the retained curves at the pinned one, where a
// committed job is unbounded. Every later candidate then doubles too, so
// the fast path must hand it to the general path: a fast answer would
// report the pinned horizon and no doubling.
TEST(Service, FastPathSkipsStateCommittedAtDoubledHorizon) {
  System base(1);
  Job a;
  a.name = "a";
  a.deadline = 20.0;
  a.chain.push_back(Subjob{0, 1.0, 1});
  a.arrivals = ArrivalSequence::periodic(10.0, 100.0);
  base.add_job(a);
  SessionConfig cfg;
  cfg.analysis.horizon = 120.0;
  AnalysisConfig ref_cfg;
  ref_cfg.horizon = cfg.analysis.horizon;
  AdmissionSession session(base, cfg);
  ASSERT_EQ(session.last().horizon, 120.0);

  Job late;
  late.name = "late";
  late.deadline = 40.0;
  late.chain.push_back(Subjob{0, 0.5, 0});
  late.arrivals = ArrivalSequence(std::vector<Time>{0.0, 50.0, 119.9});
  service::assign_lowest_priorities(base, late);
  const Decision committed = session.admit(late);
  ASSERT_TRUE(committed.committed) << committed.error;
  EXPECT_EQ(committed.explain.horizon_doublings, 1);
  ASSERT_EQ(session.last().horizon, 240.0);

  Job probe;
  probe.name = "probe";
  probe.deadline = 30.0;
  probe.chain.push_back(Subjob{0, 0.2, 0});
  probe.arrivals = ArrivalSequence::periodic(20.0, 100.0);
  service::assign_lowest_priorities(session.system(), probe);
  expect_fast_equals_general(session, probe, "what_if");
  EXPECT_EQ(session.read_what_if(probe).horizon, 240.0);

  System grown = session.system();
  grown.add_job(probe);
  const Decision d = session.admit(probe);
  ASSERT_TRUE(d.ok) << d.error;
  expect_bit_identical(BoundsAnalyzer(ref_cfg).analyze(grown), d.analysis,
                       "admit");
}

// The fast path's screen mirrors System::validate's per-job checks, so a
// non-finite deadline or execution time gets the general path's error on
// both what-if and admit, and is never committed.
TEST(Service, FastPathScreenRejectsNonFiniteCandidates) {
  MemoFixture f(59);
  AdmissionSession& session = *f.session;
  const int jobs = session.system().job_count();
  Job inf_deadline = f.probe(0);
  inf_deadline.deadline = std::numeric_limits<double>::infinity();
  Job inf_exec = f.probe(1);
  inf_exec.chain.back().exec_time = std::numeric_limits<double>::infinity();
  Job nan_exec = f.probe(2);
  nan_exec.chain.front().exec_time = std::numeric_limits<double>::quiet_NaN();
  for (const Job& job : {inf_deadline, inf_exec, nan_exec}) {
    const service::ReadDecision read = read_against_clone(session, job, "read");
    EXPECT_FALSE(read.ok);
    EXPECT_NE(read.error.find("invalid system"), std::string::npos)
        << read.error;
    const Decision d = session.admit(job);
    EXPECT_FALSE(d.ok);
    EXPECT_EQ(d.error, read.error);
    EXPECT_EQ(session.system().job_count(), jobs);
  }
  EXPECT_EQ(counter_value(f.metrics, "service.fast_admits"), 0u);
  EXPECT_EQ(fast_path_spans(f.tracer, /*admits=*/false), 0u);
}

// Explain invariants on the general path: one provenance entry per chain
// hop, the candidate's wcrt is the hop-order sum of the local bounds
// (Eq. 11/12 structure), and dominant_hop points at the largest term.
TEST(Service, ExplainDecomposesWcrtAcrossHops) {
  Rng rng(31);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  AdmissionSession session(base, SessionConfig{});
  for (int i = 0; i < 6; ++i) {
    const Job job = random_job(rng, base, i);
    const service::ReadDecision rd =
        AdmissionSession::summarize(session.what_if(job));
    ASSERT_TRUE(rd.ok) << rd.error;
    ASSERT_TRUE(rd.explain.available);
    EXPECT_EQ(rd.explain.deadline, job.deadline);
    ASSERT_EQ(rd.explain.hops.size(), job.chain.size());
    if (!std::isfinite(rd.explain.wcrt)) continue;  // unbounded candidate
    Time sum = 0.0;
    Time best = -1.0;
    int best_hop = -1;
    for (const service::ExplainHop& hop : rd.explain.hops) {
      EXPECT_EQ(hop.processor,
                job.chain[static_cast<std::size_t>(hop.hop)].processor);
      sum += hop.bound;
      if (hop.bound > best) {
        best = hop.bound;
        best_hop = hop.hop;
      }
    }
    EXPECT_EQ(sum, rd.explain.wcrt) << "candidate " << i;
    EXPECT_EQ(best_hop, rd.explain.dominant_hop) << "candidate " << i;
    EXPECT_GE(rd.explain.horizon_doublings, 0);
  }
}

TEST(Service, WhatIfNeverCommits) {
  Rng rng(7);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  AdmissionSession session(base, SessionConfig{});
  const AnalysisResult before = session.last();
  const Decision d = session.what_if(random_job(rng, base, 0));
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_FALSE(d.committed);
  EXPECT_EQ(session.system().job_count(), base.job_count());
  expect_bit_identical(before, session.last(), "what_if state");
}

TEST(Service, RejectedAdmitLeavesSessionUntouched) {
  Rng rng(11);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  AdmissionSession session(base, SessionConfig{});
  const AnalysisResult before = session.last();
  // A job that saturates processor 0 cannot be schedulable.
  Job hog;
  hog.name = "hog";
  hog.deadline = 0.5;
  hog.chain.push_back(Subjob{0, 0.9, 0});
  hog.arrivals = ArrivalSequence::periodic(1.0, 20.0);
  service::assign_lowest_priorities(base, hog);
  const Decision d = session.admit(hog);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_FALSE(d.admitted);
  EXPECT_FALSE(d.committed);
  EXPECT_EQ(session.system().job_count(), base.job_count());
  expect_bit_identical(before, session.last(), "rejected admit state");
}

TEST(Service, StructurallyInvalidJobIsRejectedWithAnalyzerError) {
  Rng rng(13);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  AdmissionSession session(base, SessionConfig{});
  Job bad;
  bad.name = "bad";
  bad.deadline = 1.0;
  bad.chain.push_back(Subjob{base.processor_count() + 5, 0.1, 99});
  bad.arrivals = ArrivalSequence::periodic(1.0, 10.0);
  const Decision d = session.admit(bad);
  EXPECT_FALSE(d.ok);
  EXPECT_NE(d.error.find("invalid system"), std::string::npos) << d.error;
  EXPECT_EQ(session.system().job_count(), base.job_count());
}

TEST(Service, CycleClosingCandidateIsRejectedWithAnalyzerError) {
  // The Order.CycleReturnsNullopt loop (paper §6): Tk is committed, and a
  // candidate Tn with explicit priorities outranks Tk on P0 while Tk
  // outranks it on P1, closing the cycle.
  const auto make = [](const std::string& name, std::vector<Subjob> chain) {
    Job j;
    j.name = name;
    j.deadline = 10.0;
    j.chain = std::move(chain);
    j.arrivals = ArrivalSequence::periodic(5.0, 20.0);
    return j;
  };
  System base(2, SchedulerKind::kSpp);
  base.add_job(make("Tk", {{0, 1.0, 2}, {1, 1.0, 1}}));
  const Job tn = make("Tn", {{1, 1.0, 2}, {0, 1.0, 1}});
  System cyclic = base;
  cyclic.add_job(tn);
  const AnalysisResult fresh = BoundsAnalyzer().analyze(cyclic);
  ASSERT_FALSE(fresh.ok);

  SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  AdmissionSession session(base, cfg);
  const AnalysisResult before = session.last();
  ASSERT_TRUE(before.ok) << before.error;
  for (const bool commit : {true, false}) {
    const std::string label = commit ? "admit" : "what_if";
    const Decision d = commit ? session.admit(tn) : session.what_if(tn);
    EXPECT_FALSE(d.ok) << label;
    EXPECT_FALSE(d.committed) << label;
    EXPECT_EQ(d.error, fresh.error) << label;
    EXPECT_EQ(d.analysis.error, fresh.error) << label;
    ASSERT_EQ(session.system().job_count(), 1) << label;
    EXPECT_EQ(session.system().job(0).name, "Tk") << label;
    EXPECT_EQ(session.system().job(0).id, base.job(0).id) << label;
    expect_bit_identical(before, session.last(), label + " last()");
  }
  EXPECT_EQ(service::AdmissionSession::summarize(session.what_if(tn)).error,
            fresh.error);
  EXPECT_EQ(session.read_what_if(tn).error, fresh.error);

  // The retained curves are intact: an acyclic admit still matches a fresh
  // analysis bit for bit.
  Job low = make("low", {{0, 0.5, 3}, {1, 0.5, 3}});
  System grown = base;
  grown.add_job(low);
  AnalysisConfig ref;
  ref.horizon = cfg.analysis.horizon;
  const Decision ok = session.admit(low);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_TRUE(ok.incremental);
  expect_bit_identical(BoundsAnalyzer(ref).analyze(grown), ok.analysis,
                       "admit after rejected cycle");
}

TEST(Service, RemoveUnknownIdFails) {
  Rng rng(17);
  AdmissionSession session(random_base(rng, SchedulerKind::kSpp, false),
                           SessionConfig{});
  const Decision d = session.remove(987654);
  EXPECT_FALSE(d.ok);
  EXPECT_FALSE(d.committed);
}

TEST(Service, DuplicateExplicitIdFails) {
  Rng rng(19);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  AdmissionSession session(base, SessionConfig{});
  Job job = random_job(rng, base, 0);
  job.id = base.job(0).id;  // collides with an existing job
  const Decision d = session.admit(job);
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(session.system().job_count(), base.job_count());
}

// Invalid operations -- removing unknown or already-removed ids, admitting
// a duplicate explicit id -- must fail with a clean error AND leave the
// retained curve state untouched: subsequent decisions stay bit-identical
// to fresh analyses.
TEST(Service, InvalidOpsDoNotCorruptRetainedState) {
  Rng rng(23);
  const System base = random_base(rng, SchedulerKind::kSpp, false);
  SessionConfig cfg;
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  AnalysisConfig ref_cfg;
  ref_cfg.horizon = cfg.analysis.horizon;
  AdmissionSession session(base, cfg);
  System shadow = base;

  auto check_matches_shadow = [&](const std::string& label) {
    expect_bit_identical(BoundsAnalyzer(ref_cfg).analyze(shadow),
                         session.last(), label);
    ASSERT_EQ(session.system().job_count(), shadow.job_count()) << label;
  };

  // Admit a candidate with an explicit id; it may be rejected on
  // schedulability grounds, but the session must stay consistent.
  Job first = random_job(rng, shadow, 0);
  first.id = 777;
  const Decision admit1 = session.admit(first);
  ASSERT_TRUE(admit1.ok) << admit1.error;
  if (admit1.committed) {
    Job committed = first;
    shadow.add_job(std::move(committed));
  }
  check_matches_shadow("after first admit");

  // Double-admit of the same explicit id: clean duplicate error.
  Job dup = random_job(rng, shadow, 1);
  dup.id = 777;
  const Decision admit2 = session.admit(dup);
  if (admit1.committed) {
    EXPECT_FALSE(admit2.ok);
    EXPECT_EQ(admit2.error, "duplicate job id 777");
  }
  check_matches_shadow("after duplicate admit");

  // Remove of a nonexistent id: clean error, no state change.
  const Decision gone = session.remove(987654321);
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.error, "no job with id 987654321");
  EXPECT_FALSE(gone.committed);
  check_matches_shadow("after remove of unknown id");

  if (admit1.committed) {
    // Remove the admitted job, then remove it AGAIN: the second must fail
    // without touching the (already reconciled) curves.
    const Decision removed = session.remove(777);
    ASSERT_TRUE(removed.ok) << removed.error;
    ASSERT_TRUE(shadow.remove_job(shadow.job_index_by_id(777)));
    check_matches_shadow("after remove");

    const Decision twice = session.remove(777);
    EXPECT_FALSE(twice.ok);
    EXPECT_EQ(twice.error, "no job with id 777");
    check_matches_shadow("after double remove");
  }

  // The session must still serve valid work after the abuse.
  const Decision after = session.what_if(random_job(rng, shadow, 2));
  EXPECT_TRUE(after.ok) << after.error;
  check_matches_shadow("after recovery what_if");
}

// Randomized differential sequences salted with invalid operations: every
// few steps an invalid remove or duplicate-id admit fires, and the next
// valid decision must still match a fresh analysis bit for bit.
TEST(ServiceDifferential, InvalidOpsInterleavedWithValidSequences) {
  const RngFactory factory(0xBADC0DE5);
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng = factory.stream(static_cast<std::uint64_t>(trial));
    const System base = random_base(rng, SchedulerKind::kSpp, trial == 2);
    SessionConfig cfg;
    cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
    AnalysisConfig ref_cfg;
    ref_cfg.horizon = cfg.analysis.horizon;
    AdmissionSession session(base, cfg);
    System shadow = base;
    std::vector<std::uint64_t> admitted;

    for (int op = 0; op < 12; ++op) {
      const std::string label =
          "trial " + std::to_string(trial) + " op " + std::to_string(op);
      switch (rng.uniform_int(0, 3)) {
        case 0: {  // invalid remove
          const Decision d = session.remove(500000 + op);
          EXPECT_FALSE(d.ok) << label;
          break;
        }
        case 1: {  // duplicate-id admit against an existing base job
          Job dup = random_job(rng, shadow, op);
          dup.id = shadow.job(0).id;
          const Decision d = session.admit(dup);
          EXPECT_FALSE(d.ok) << label;
          EXPECT_EQ(d.error,
                    "duplicate job id " + std::to_string(dup.id))
              << label;
          break;
        }
        case 2: {  // valid admit
          Job job = random_job(rng, shadow, op);
          const Decision d = session.admit(job);
          ASSERT_TRUE(d.ok) << label << ": " << d.error;
          if (d.committed) {
            Job committed = job;
            committed.id = d.job_id;
            shadow.add_job(std::move(committed));
            admitted.push_back(d.job_id);
          }
          break;
        }
        default: {  // valid remove when possible
          if (admitted.empty()) break;
          const std::uint64_t id = admitted.back();
          admitted.pop_back();
          const Decision d = session.remove(id);
          ASSERT_TRUE(d.ok) << label << ": " << d.error;
          ASSERT_TRUE(shadow.remove_job(shadow.job_index_by_id(id))) << label;
          break;
        }
      }
      expect_bit_identical(BoundsAnalyzer(ref_cfg).analyze(shadow),
                           session.last(), label);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Service, AssignLowestPrioritiesPicksMaxPlusOnePerProcessor) {
  System system(2);
  Job a;
  a.name = "a";
  a.deadline = 10.0;
  a.chain.push_back(Subjob{0, 0.1, 3});
  a.chain.push_back(Subjob{1, 0.1, 7});
  a.arrivals = ArrivalSequence::periodic(5.0, 20.0);
  system.add_job(a);

  Job fresh;
  fresh.name = "b";
  fresh.deadline = 10.0;
  fresh.chain.push_back(Subjob{0, 0.1, 0});
  fresh.chain.push_back(Subjob{0, 0.1, 0});  // two hops on one processor
  fresh.chain.push_back(Subjob{1, 0.1, 0});
  fresh.arrivals = ArrivalSequence::periodic(5.0, 20.0);
  service::assign_lowest_priorities(system, fresh);
  EXPECT_EQ(fresh.chain[0].priority, 4);
  EXPECT_EQ(fresh.chain[1].priority, 5);  // counts its own earlier hop
  EXPECT_EQ(fresh.chain[2].priority, 8);
}

}  // namespace
}  // namespace rta
