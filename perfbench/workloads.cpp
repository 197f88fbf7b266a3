#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <utility>

#include "io/json.hpp"
#include "model/priority.hpp"
#include "workload/jobshop.hpp"

namespace perfbench {

using rta::ArrivalSequence;
using rta::Job;
using rta::Rng;
using rta::SchedulerKind;
using rta::Subjob;
using rta::System;
using rta::Time;

namespace {

/// The Fig. 3 periodic shop of bench/service_admission: 4 stages x 2
/// processors, 8 jobs, periodic arrivals, PDM priorities. The shop is fixed
/// (its own seed); --seed varies the traffic, so runs on different seeds
/// measure the same service state.
constexpr std::uint64_t kShopSeed = 42;
constexpr int kStages = 4;
constexpr int kProcsPerStage = 2;

System fig3_shop(double utilization) {
  rta::JobShopConfig cfg;
  cfg.stages = kStages;
  cfg.processors_per_stage = kProcsPerStage;
  cfg.jobs = 8;
  cfg.pattern = rta::ArrivalPattern::kPeriodic;
  cfg.utilization = utilization;
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = 4.0;
  cfg.scheduler = SchedulerKind::kSpp;
  Rng rng(kShopSeed);
  return rta::generate_jobshop(cfg, rng);
}

/// Candidate keys cycle through 12 strata (Workload::fresh_key): the
/// generators draw their coarse shape (hops, arrival count, stage range)
/// from the stratum, so every seed issues the same mix of shapes and only
/// the fine parameters vary.
std::uint64_t stratum(std::uint64_t key) { return key % 12; }

std::string key_name(const char* prefix, std::uint64_t key) {
  return prefix + std::to_string(key % 1000000007ull);
}

/// Short periodic chain on arbitrary processors of an all-SPP shop: the
/// online-admission candidate of bench/service_admission.
Job periodic_candidate(const System& base, std::uint64_t key) {
  Rng rng(key);
  Job job;
  job.name = key_name("c", key);
  const int hops = 1 + static_cast<int>(stratum(key) % 3);
  double exec_total = 0.0;
  for (int h = 0; h < hops; ++h) {
    Subjob s;
    s.processor = rng.uniform_int(0, base.processor_count() - 1);
    s.exec_time = rng.uniform(0.02, 0.12);
    exec_total += s.exec_time;
    job.chain.push_back(s);
  }
  const Time period = rng.uniform(2.0, 6.0);
  job.arrivals = ArrivalSequence::periodic(period, base.last_release());
  job.deadline = exec_total * rng.uniform(6.0, 20.0) + period;
  return job;
}

/// Every other admit of a caller is refused whatever its system: its
/// deadline is half its own execution time. Without refusals every admit is
/// followed by its remove, so the mutate median sat exactly on the edge
/// between cheap removes and costly admits and jumped between the two from
/// run to run; now it falls inside the admits. Refusing by a coin flip
/// instead of by turns let the share of removes, and with it the mutate
/// median, drift from run to run.
Request admit(std::uint64_t key, std::uint64_t& admits) {
  Request r;
  r.op = Op::kAdmit;
  r.key = key;
  r.refused = admits++ % 2 == 1;
  return r;
}

Job refuse(Job job) {
  double exec_total = 0.0;
  for (const Subjob& s : job.chain) exec_total += s.exec_time;
  job.deadline = 0.5 * exec_total;
  return job;
}

/// First-hop arrival counts of the bursty candidates: a fixed geometric
/// ladder spanning 4x, one rung per stratum, so the per-unit cost can be
/// read per problem size. Rungs alternate between one and two hops. Fine
/// rungs keep neighbouring costs close, so a median that lands between two
/// of them moves little; three coarse rungs times two chain lengths had put
/// the read median on the edge between two costs 50% apart.
constexpr std::array<std::size_t, 12> kArrivalLadder = {
    24, 27, 31, 35, 40, 45, 51, 58, 66, 76, 86, 96};

/// `n` releases inside the window, shaped either like Eq. 27 (a burst at
/// time 0 relaxing to periodicity) rescaled to the window, or as a
/// leaky-bucket burst followed by steady releases.
ArrivalSequence bursty_arrivals(Rng& rng, std::size_t n, Time window) {
  if (rng.uniform(0.0, 1.0) < 0.5) {
    const double x = rng.uniform(0.3, 0.7);
    std::vector<Time> t(n);
    for (std::size_t m = 0; m < n; ++m) {
      const double k = static_cast<double>(m);
      t[m] = std::sqrt(x * x + k * k) / x - 1.0;
    }
    const double scale = 0.98 * window / t.back();
    for (Time& v : t) v *= scale;
    return ArrivalSequence(std::move(t));
  }
  const std::size_t burst = n / 4;
  const Time gap = window / (16.0 * static_cast<double>(n));
  const Time period = (0.98 * window - static_cast<double>(burst) * gap) /
                      static_cast<double>(n - burst);
  return ArrivalSequence::burst_then_periodic(burst, gap, period,
                                              0.98 * window);
}

Job bursty_candidate(const System& base, std::uint64_t key) {
  Rng rng(key);
  Job job;
  job.name = key_name("b", key);
  const std::size_t n = kArrivalLadder[stratum(key)];
  const Time window = base.last_release();
  const int hops = 1 + static_cast<int>(stratum(key) % 2);
  const double load = rng.uniform(0.02, 0.04);
  double exec_total = 0.0;
  for (int h = 0; h < hops; ++h) {
    Subjob s;
    s.processor = rng.uniform_int(0, base.processor_count() - 1);
    s.exec_time = load * window / static_cast<double>(n);
    exec_total += s.exec_time;
    job.chain.push_back(s);
  }
  job.arrivals = bursty_arrivals(rng, n, window);
  job.deadline = exec_total * 4.0 + rng.uniform(0.05, 0.2) * window;
  return job;
}

/// Priorities of the tenant prototype are spaced this far apart, so an
/// admit can slot in between two established subjobs.
constexpr int kPrioritySpacing = 64;

/// Heterogeneous prototype: the Fig. 3 shop with stage 1 non-preemptive and
/// stage 2 FCFS.
System tenant_prototype() {
  System s = fig3_shop(0.6);
  for (int q = 0; q < kProcsPerStage; ++q) {
    s.set_scheduler(1 * kProcsPerStage + q, SchedulerKind::kSpnp);
    s.set_scheduler(2 * kProcsPerStage + q, SchedulerKind::kFcfs);
  }
  rta::assign_proportional_deadline_monotonic(s);
  for (int k = 0; k < s.job_count(); ++k) {
    for (Subjob& hop : s.job(k).chain) hop.priority *= kPrioritySpacing;
  }
  return s;
}

/// Tenant candidate: one hop per stage over a contiguous stage range (stage
/// order keeps the dependency graph acyclic across FCFS/SPNP stages).
Job staged_candidate(const System& base, std::uint64_t key) {
  Rng rng(key);
  Job job;
  job.name = key_name("t", key);
  const int first = static_cast<int>(stratum(key) % kStages);
  const int last = std::min(kStages - 1,
                            first + static_cast<int>(stratum(key) / kStages));
  double exec_total = 0.0;
  for (int stage = first; stage <= last; ++stage) {
    Subjob s;
    s.processor = stage * kProcsPerStage + rng.uniform_int(0, kProcsPerStage - 1);
    s.exec_time = rng.uniform(0.02, 0.08);
    exec_total += s.exec_time;
    job.chain.push_back(s);
  }
  const Time period = rng.uniform(3.0, 8.0);
  job.arrivals = ArrivalSequence::periodic(period, base.last_release());
  job.deadline = exec_total * rng.uniform(8.0, 20.0) + period;
  return job;
}

/// Tenant what_if candidate: one hop on an SPP stage (the first or the
/// last) at the lowest priorities, which the session answers on its fast
/// path. Staged candidates at the lowest priorities took the fast path only
/// a third of the time, and the read median sat on the edge between the
/// fast path's cost and a dirty closure's.
Job probe_candidate(const System& base, std::uint64_t key) {
  Rng rng(key);
  Job job;
  job.name = key_name("p", key);
  const int stage = stratum(key) % 2 == 0 ? 0 : kStages - 1;
  Subjob s;
  s.processor = stage * kProcsPerStage + rng.uniform_int(0, kProcsPerStage - 1);
  s.exec_time = rng.uniform(0.02, 0.08);
  job.chain.push_back(s);
  const Time period = rng.uniform(3.0, 8.0);
  job.arrivals = ArrivalSequence::periodic(period, base.last_release());
  job.deadline = s.exec_time * rng.uniform(8.0, 20.0) + period;
  return job;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kWhatIf: return "what_if";
    case Op::kQuery: return "query";
    case Op::kAdmit: return "admit";
    case Op::kRemove: return "remove";
  }
  return "query";
}

// ---- polling_fig3 -------------------------------------------------------

class PollingFig3 final : public Workload {
 public:
  explicit PollingFig3(std::uint64_t seed) : Workload(seed, fig3_shop(0.7)) {
    rta::assign_proportional_deadline_monotonic(base_);
    config_.analysis.horizon = rta::default_horizon(base_, {});
  }

  std::size_t rss_probe_at() const override { return 3000; }

  Request next(int caller) override {
    Request r;
    std::uint64_t& remove = pending_remove_[static_cast<std::size_t>(caller)];
    if (remove != 0) {
      r.op = Op::kRemove;
      r.job_id = remove;
      remove = 0;
      return r;
    }
    if (issued_++ % kRefreshEvery == 0) {
      // Three consecutive keys: one candidate of each chain length.
      for (std::uint64_t& k : working_set_) k = fresh_key();
    }
    std::uint64_t& action = actions_[static_cast<std::size_t>(caller)];
    if ((action++ + 5 * static_cast<std::uint64_t>(caller)) % kAdmitEvery == 0) {
      return admit(fresh_key(), admits_[static_cast<std::size_t>(caller)]);
    }
    const int pick = rng_.uniform_int(0, static_cast<int>(working_set_.size()));
    if (pick == static_cast<int>(working_set_.size())) {
      r.op = Op::kQuery;
    } else {
      r.op = Op::kWhatIf;
      r.key = working_set_[static_cast<std::size_t>(pick)];
    }
    return r;
  }

  void on_reply(int caller, const Request& req, const Reply& reply) override {
    if (req.op == Op::kAdmit && reply.committed) {
      pending_remove_[static_cast<std::size_t>(caller)] = reply.job_id;
    }
  }

  Job candidate(const Request& req) const override {
    Job job = periodic_candidate(base_, req.key);
    return req.refused ? refuse(std::move(job)) : job;
  }

 private:
  // Every caller re-probes one shared working set of three pending
  // candidates plus the status query; the set turns over every
  // kRefreshEvery requests. Every kAdmitEvery-th action of a caller is an
  // admit, followed by its remove, so about 10% of requests mutate.
  static constexpr int kRefreshEvery = 64;
  static constexpr std::uint64_t kAdmitEvery = 20;
  std::array<std::uint64_t, 3> working_set_{};
  std::array<std::uint64_t, kCallers> pending_remove_{};
  std::array<std::uint64_t, kCallers> actions_{};
  std::array<std::uint64_t, kCallers> admits_{};
  std::uint64_t issued_ = 0;
};

// ---- bursty_whatif ------------------------------------------------------

class BurstyWhatIf final : public Workload {
 public:
  explicit BurstyWhatIf(std::uint64_t seed) : Workload(seed, fig3_shop(0.7)) {
    rta::assign_proportional_deadline_monotonic(base_);
    config_.analysis.horizon = rta::default_horizon(base_, {});
  }

  std::size_t rss_probe_at() const override { return 150; }

  Request next(int caller) override {
    Request r;
    std::uint64_t& remove = pending_remove_[static_cast<std::size_t>(caller)];
    if (remove != 0) {
      r.op = Op::kRemove;
      r.job_id = remove;
      remove = 0;
      return r;
    }
    // One admit per two what_ifs; each committed admit is followed by its
    // remove, so about half the requests are what_ifs. Each caller deals
    // its ops from a shuffled deck: the mix is exact per deck, and the
    // callers do not lock into one read/mutate phase for a whole run.
    Deck& deck = decks_[static_cast<std::size_t>(caller)];
    if (deck.next == deck.ops.size()) {
      std::shuffle(deck.ops.begin(), deck.ops.end(), rng_.engine());
      deck.next = 0;
    }
    if (deck.ops[deck.next++] == Op::kAdmit) {
      return admit(fresh_key(), admits_[static_cast<std::size_t>(caller)]);
    }
    r.op = Op::kWhatIf;
    r.key = fresh_key();
    return r;
  }

  void on_reply(int caller, const Request& req, const Reply& reply) override {
    if (req.op == Op::kAdmit && reply.committed) {
      pending_remove_[static_cast<std::size_t>(caller)] = reply.job_id;
    }
  }

  Job candidate(const Request& req) const override {
    Job job = bursty_candidate(base_, req.key);
    return req.refused ? refuse(std::move(job)) : job;
  }

 private:
  struct Deck {
    std::array<Op, 12> ops = {Op::kAdmit,  Op::kAdmit,  Op::kAdmit,
                              Op::kAdmit,  Op::kWhatIf, Op::kWhatIf,
                              Op::kWhatIf, Op::kWhatIf, Op::kWhatIf,
                              Op::kWhatIf, Op::kWhatIf, Op::kWhatIf};
    std::size_t next = ops.size();
  };
  std::array<std::uint64_t, kCallers> pending_remove_{};
  std::array<std::uint64_t, kCallers> admits_{};
  std::array<Deck, kCallers> decks_{};
};

// ---- tenant_mutate ------------------------------------------------------

class TenantMutate final : public Workload {
 public:
  explicit TenantMutate(std::uint64_t seed)
      : Workload(seed, tenant_prototype()), tenants_(kTenants) {
    config_.analysis.horizon = rta::default_horizon(base_, {});
  }

  std::size_t rss_probe_at() const override { return 600; }
  int tenants() const override { return kTenants; }

  Request next(int caller) override {
    Request r;
    r.tenant = rng_.uniform_int(0, kTenants - 1);
    TenantState& ts = tenants_[static_cast<std::size_t>(r.tenant)];
    const std::size_t turn =
        actions_[static_cast<std::size_t>(caller)]++ % kReadSlots.size();
    if (kReadSlots[turn]) {
      r.op = turn == kQuerySlot ? Op::kQuery : Op::kWhatIf;
      if (r.op == Op::kWhatIf) r.key = fresh_key();
      return r;
    }
    const bool remove =
        !ts.established.empty() &&
        (ts.established.size() >= kMaxEstablished ||
         rng_.uniform(0.0, 1.0) < 0.5);
    Slot& slot = inflight_[static_cast<std::size_t>(caller)];
    if (remove) {
      slot = ts.established.front();
      ts.established.pop_front();
      r.op = Op::kRemove;
      r.job_id = slot.job_id;
      return r;
    }
    r.op = Op::kAdmit;
    r.key = fresh_key();
    const Job job = staged_candidate(base_, r.key);
    slot = Slot{};
    slot.hops = static_cast<int>(job.chain.size());
    for (int h = 0; h < slot.hops; ++h) {
      const int p = job.chain[static_cast<std::size_t>(h)].processor;
      slot.processor[static_cast<std::size_t>(h)] = p;
      if (base_.scheduler(p) == SchedulerKind::kFcfs) continue;
      r.priority[static_cast<std::size_t>(h)] = reserve_priority(ts, p);
    }
    slot.priority = r.priority;
    return r;
  }

  void on_reply(int caller, const Request& req, const Reply& reply) override {
    if (req.op != Op::kAdmit && req.op != Op::kRemove) return;
    TenantState& ts = tenants_[static_cast<std::size_t>(req.tenant)];
    Slot& slot = inflight_[static_cast<std::size_t>(caller)];
    if (req.op == Op::kAdmit && reply.committed) {
      slot.job_id = reply.job_id;
      ts.established.push_back(slot);
      return;
    }
    // A rejected admit or a finished remove frees the priorities it held.
    for (int h = 0; h < slot.hops; ++h) {
      ts.used.erase({slot.processor[static_cast<std::size_t>(h)],
                     slot.priority[static_cast<std::size_t>(h)]});
    }
  }

  Job candidate(const Request& req) const override {
    if (req.op == Op::kWhatIf) return probe_candidate(base_, req.key);
    Job job = staged_candidate(base_, req.key);
    for (std::size_t h = 0; h < job.chain.size(); ++h) {
      job.chain[h].priority = req.priority[h];
    }
    return job;
  }

 private:
  static constexpr int kTenants = 64;
  /// Three reads in every ten requests of a caller; the rest mutate. The
  /// last read of the three is a query, the others what_ifs. A coin flip
  /// between the two let the query share, and with it the read median,
  /// drift from run to run.
  static constexpr std::array<bool, 10> kReadSlots = {
      true, false, false, true, false, false, true, false, false, false};
  static constexpr std::size_t kQuerySlot = 6;
  static constexpr std::size_t kMaxEstablished = 3;

  struct Slot {
    std::uint64_t job_id = 0;
    int hops = 0;
    std::array<int, kMaxHops> processor{};
    std::array<int, kMaxHops> priority{};
  };
  struct TenantState {
    std::deque<Slot> established;  ///< admitted by the stream, oldest first
    std::set<std::pair<int, int>> used;  ///< (processor, priority) held
  };

  /// A free priority strictly between two of the prototype's subjobs on
  /// `p`, so the admit dirties the lower-priority ones.
  int reserve_priority(TenantState& ts, int p) {
    const int ranks = static_cast<int>(base_.subjobs_on(p).size());
    const int rank = ranks >= 2 ? rng_.uniform_int(1, ranks - 1) : ranks;
    for (int j = 1; j < kPrioritySpacing; ++j) {
      const int phi = rank * kPrioritySpacing + j;
      if (ts.used.insert({p, phi}).second) return phi;
    }
    return 0;  // unreachable: at most kMaxEstablished + kCallers are held
  }

  std::vector<TenantState> tenants_;
  std::array<Slot, kCallers> inflight_{};
  std::array<std::uint64_t, kCallers> actions_{};
};

}  // namespace

Workload::Workload(std::uint64_t seed, System base)
    : base_(std::move(base)), rng_(seed), seed_(seed) {
  config_.analysis.threads = 1;
  config_.analysis.use_curve_cache = true;
}

std::uint64_t Workload::fresh_key() {
  const std::uint64_t k = rta::splitmix64(seed_ ^ rta::splitmix64(++next_key_));
  return k - stratum(k) + next_key_ % 12;
}

std::string Workload::line(const Request& req) const {
  rta::json::Value v;
  v.set("op", op_name(req.op));
  if (req.tenant >= 0) v.set("tenant", tenant_name(req.tenant));
  if (req.op == Op::kRemove) {
    v.set("job_id", static_cast<double>(req.job_id));
  } else if (req.op == Op::kWhatIf || req.op == Op::kAdmit) {
    const Job job = candidate(req);
    const bool explicit_priority =
        std::any_of(req.priority.begin(), req.priority.end(),
                    [](int p) { return p != 0; });
    rta::json::Value jv;
    jv.set("name", job.name);
    jv.set("deadline", job.deadline);
    rta::json::Value::Array chain;
    for (const Subjob& s : job.chain) {
      rta::json::Value hop;
      hop.set("processor", s.processor);
      hop.set("exec", s.exec_time);
      if (explicit_priority) hop.set("priority", s.priority);
      chain.push_back(std::move(hop));
    }
    jv.set("chain", rta::json::Value(std::move(chain)));
    rta::json::Value::Array arrivals;
    for (Time t : job.arrivals.releases()) arrivals.emplace_back(t);
    jv.set("arrivals", rta::json::Value(std::move(arrivals)));
    v.set("job", std::move(jv));
  }
  return v.dump();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "polling_fig3", "bursty_whatif", "tenant_mutate"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "polling_fig3") return std::make_unique<PollingFig3>(seed);
  if (name == "bursty_whatif") return std::make_unique<BurstyWhatIf>(seed);
  if (name == "tenant_mutate") return std::make_unique<TenantMutate>(seed);
  return nullptr;
}

std::string tenant_name(int idx) {
  return (idx < 10 ? "tenant0" : "tenant") + std::to_string(idx);
}

}  // namespace perfbench
