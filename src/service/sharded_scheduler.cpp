#include "service/sharded_scheduler.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "service/request_codec.hpp"

namespace rta::service {

namespace {

void accumulate(RunnerStats& into, const RunnerStats& from) {
  into.requests += from.requests;
  into.errors += from.errors;
  into.failures += from.failures;
  into.timeouts += from.timeouts;
  into.rejected += from.rejected;
  into.coalesced += from.coalesced;
}

}  // namespace

ShardedScheduler::ShardedScheduler(TenantRegistry& registry, std::ostream& out,
                                   ShardedOptions options,
                                   obs::Observer observer)
    : registry_(registry),
      out_(out),
      options_(std::move(options)),
      tracer_(observer.tracer) {
  const std::size_t n = resolve_workers(options_.shards);
  shards_.resize(n);
  if (observer.metrics != nullptr) {
    for (std::size_t k = 0; k < n; ++k) {
      Shard& sh = shards_[k];
      const std::string prefix = "service.shard." + std::to_string(k);
      sh.requests_counter = observer.metrics->counter(prefix + ".requests");
      sh.shed_counter = observer.metrics->counter(prefix + ".shed");
      sh.depth_gauge = observer.metrics->gauge(prefix + ".depth");
    }
  }
  tenants_.resize(static_cast<std::size_t>(registry_.count()));
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n);
}

ShardedScheduler::~ShardedScheduler() = default;

ShardedScheduler::Tenant& ShardedScheduler::tenant(int idx) {
  std::unique_ptr<Tenant>& slot = tenants_[static_cast<std::size_t>(idx)];
  if (slot == nullptr) {
    slot = std::make_unique<Tenant>();
    slot->scheduler = std::make_unique<RequestScheduler>(
        registry_.session(idx), slot->ready, options_.stream);
    slot->shard = TenantRegistry::shard_of(registry_.name(idx),
                                           static_cast<int>(shards_.size()));
  }
  return *slot;
}

void ShardedScheduler::route_untenanted(const std::string& line,
                                        detail::ParsedRequest req) {
  // The bucket for lines no tenant owns. Same response shape and stamping
  // order as the per-tenant drivers, numbered within this bucket.
  const auto arrival = std::chrono::steady_clock::now();
  ++untenanted_no_;
  detail::ErrorReply error;
  if (req.cls == detail::RequestClass::kImmediate) {
    error = {"bad_request", req.error, /*retryable=*/false};
  } else if (!req.has_tenant) {
    error = {"bad_request", "multi-tenant stream requires a 'tenant' field",
             /*retryable=*/false};
  } else {
    error = {"not_found", "no tenant named '" + req.tenant + "'",
             /*retryable=*/false};
  }
  std::string& line_out = untenanted_ready_.emplace_back();
  detail::append_response(
      line_out, untenanted_no_, untenanted_no_, req,
      detail::response_trace_id(req, untenanted_no_, line), error,
      detail::micros_since(arrival));
  ++unrouted_;
  order_.push_back(-1);
}

void ShardedScheduler::submit_line(const std::string& line) {
  if (finished_) {
    throw std::logic_error("ShardedScheduler: submit_line after finish()");
  }
  if (detail::is_skipped_line(line)) return;

  detail::ParsedRequest req = detail::parse_request(line);
  const int idx = req.has_tenant ? registry_.find(req.tenant) : -1;
  if (idx < 0) {
    route_untenanted(line, std::move(req));
    emit_ready();
    return;
  }

  Tenant& tn = tenant(idx);
  Shard& sh = shards_[static_cast<std::size_t>(tn.shard)];
  if (req.cls != detail::RequestClass::kImmediate) ++sh.depth;
  if (!tn.touched) {
    tn.touched = true;
    sh.touched.push_back(idx);
  }
  sh.requests_counter.inc();
  order_.push_back(idx);
  sh.queue.push_back(Entry{idx, line, std::move(req)});
  ++pending_lines_;
  if (pending_lines_ >= options_.pump_lines) pump();
}

void ShardedScheduler::pump() {
  if (pending_lines_ == 0) return;
  ++pumps_;

  // Drain shards concurrently. The work is partitioned, not locked: a
  // shard's worker touches only that shard's queue and its tenants'
  // sessions/schedulers/buffers, and the pool barrier orders every write
  // before the serial collection below.
  auto run_shard = [&](std::size_t s) {
    Shard& sh = shards_[s];
    if (sh.queue.empty()) return;
    obs::Tracer::Span span = obs::Tracer::span_if(
        tracer_, "service.shard.pump",
        tracer_ != nullptr
            ? "{\"shard\": " + std::to_string(s) +
                  ", \"lines\": " + std::to_string(sh.queue.size()) + "}"
            : std::string());
    for (Entry& e : sh.queue) {
      tenants_[static_cast<std::size_t>(e.tenant)]->scheduler->submit_parsed(
          e.line, std::move(e.req));
    }
    for (const int idx : sh.touched) {
      tenants_[static_cast<std::size_t>(idx)]->scheduler->flush();
    }
  };
  if (shards_.size() == 1) {
    run_shard(0);
  } else {
    for_each_index(pool_.get(), shards_.size(), run_shard);
  }

  // Serial epilogue: count each drained tenant's sheds, reset the window
  // accounting, and emit the completed prefix. The tenants' schedulers
  // already appended their finished lines to the ready queues.
  for (Shard& sh : shards_) {
    int shed = 0;
    for (const int idx : sh.touched) {
      Tenant& tn = *tenants_[static_cast<std::size_t>(idx)];
      const int rejected = tn.scheduler->stats().rejected;
      shed += rejected - tn.rejected;
      tn.rejected = rejected;
      tn.touched = false;
    }
    if (!sh.queue.empty()) {
      sh.shed_counter.add(static_cast<std::uint64_t>(shed));
      sh.depth_gauge.set(static_cast<double>(sh.depth - shed));
    }
    sh.queue.clear();
    sh.touched.clear();
    sh.depth = 0;
  }
  pending_lines_ = 0;
  emit_ready();
}

void ShardedScheduler::emit_ready() {
  while (cursor_ < order_.size()) {
    const int bucket = order_[cursor_];
    std::deque<std::string>& ready =
        bucket < 0 ? untenanted_ready_
                   : tenants_[static_cast<std::size_t>(bucket)]->ready;
    if (ready.empty()) return;  // that bucket's batch has not flushed yet
    out_ << ready.front() << "\n";
    ready.pop_front();
    ++cursor_;
  }
}

void ShardedScheduler::finish() {
  if (finished_) return;
  pump();
  for (const std::unique_ptr<Tenant>& tn : tenants_) {
    if (tn != nullptr) tn->scheduler->finish();
  }
  emit_ready();
  out_.flush();
  finished_ = true;
}

ShardedStats ShardedScheduler::stats() const {
  ShardedStats s;
  for (const std::unique_ptr<Tenant>& tn : tenants_) {
    if (tn != nullptr) accumulate(s.stream, tn->scheduler->stats());
  }
  // Every untenanted line answers exactly one error response.
  s.routed = static_cast<std::uint64_t>(s.stream.requests);
  s.stream.requests += static_cast<int>(unrouted_);
  s.stream.errors += static_cast<int>(unrouted_);
  s.unrouted = unrouted_;
  s.pumps = pumps_;
  s.shards = static_cast<int>(shards_.size());
  return s;
}

RunnerStats ShardedScheduler::tenant_stats(int idx) const {
  const std::unique_ptr<Tenant>& tn = tenants_[static_cast<std::size_t>(idx)];
  return tn == nullptr ? RunnerStats{} : tn->scheduler->stats();
}

ShardedStats run_sharded_stream(TenantRegistry& registry, std::istream& in,
                                std::ostream& out,
                                const ShardedOptions& options,
                                obs::Observer observer) {
  ShardedScheduler scheduler(registry, out, options, observer);
  std::string line;
  while (std::getline(in, line)) scheduler.submit_line(line);
  scheduler.finish();
  return scheduler.stats();
}

}  // namespace rta::service
