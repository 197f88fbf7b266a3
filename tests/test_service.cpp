// Differential harness for the incremental admission service: long random
// admit / remove / what-if sequences through one AdmissionSession must
// produce decisions BIT-IDENTICAL to a fresh, serial full analysis
// of the candidate system at every step -- the session's retained curves and
// dirty-set propagation are a latency optimization, never a result change
// (admission_session.hpp states the contract). Exact double equality, as in
// test_differential_engine.cpp.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "model/priority.hpp"
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
  ASSERT_EQ(fast.ok, general.ok) << label;
  EXPECT_EQ(fast.error, general.error) << label;
  EXPECT_EQ(fast.admitted, general.admitted) << label;
  EXPECT_EQ(fast.committed, general.committed) << label;
  EXPECT_EQ(fast.incremental, general.incremental) << label;
  EXPECT_EQ(fast.job_id, general.job_id) << label;
  EXPECT_EQ(fast.dirty_subjobs, general.dirty_subjobs) << label;
  EXPECT_EQ(fast.total_subjobs, general.total_subjobs) << label;
  EXPECT_EQ(fast.schedulable, general.schedulable) << label;
  EXPECT_EQ(fast.max_wcrt, general.max_wcrt) << label;
  EXPECT_EQ(fast.horizon, general.horizon) << label;
  EXPECT_EQ(fast.explain.available, general.explain.available) << label;
  EXPECT_EQ(fast.explain.wcrt, general.explain.wcrt) << label;
  EXPECT_EQ(fast.explain.dominant_hop, general.explain.dominant_hop) << label;
  ASSERT_EQ(fast.explain.hops.size(), general.explain.hops.size()) << label;
  for (std::size_t h = 0; h < fast.explain.hops.size(); ++h) {
    EXPECT_EQ(fast.explain.hops[h].bound, general.explain.hops[h].bound)
        << label << " hop " << h;
  }
}

std::size_t fast_what_if_spans(const obs::Tracer& tracer) {
  std::size_t n = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.phase == 'B' && e.name == "service.fast_what_if") ++n;
  }
  return n;
}

// The fast what-if path keeps per-processor higher-priority operands across
// reads of one committed state and cuts the last hop at its local bound.
// Fixed probes -- 1-3 hops, periodic and bursty first hops, two of them with
// two hops on one processor -- are re-asked after every step of a stream of
// committed and refused admits, removes and general-path what_ifs, and must
// match the general path bit for bit each time: a stale cache, a cache
// reused for a hop whose processor already carries an earlier hop of the
// candidate, or a skipped upper part on a non-last hop all show up here.
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
      expect_fast_equals_general(session, probes[i],
                                 label + " probe " + std::to_string(i));
    }
  }
  EXPECT_GT(removes, 0);
  EXPECT_GT(commits, 0);
  EXPECT_GT(refusals, 0);
  // Every probe read took the fast path (a fallback would compare the
  // general path with itself).
  EXPECT_GE(fast_what_if_spans(tracer), 40 * probes.size());
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
