#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>

#include "util/json_escape.hpp"
#include "util/thread_annotations.hpp"

namespace rta::obs {

namespace {

std::uint64_t next_tracer_uid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// Per-(thread, tracer) event buffer. Appends come only from the owning
/// thread; the mutex makes export from another thread safe and is otherwise
/// uncontended.
struct ThreadBuf {
  int tid = 0;  ///< written once at creation, then immutable
  Mutex mutex;
  double last_ts RTA_GUARDED_BY(mutex) = -1.0;
  std::vector<TraceEvent> events RTA_GUARDED_BY(mutex);
};

struct Tracer::Impl {
  std::uint64_t uid = next_tracer_uid();
  Mutex mutex;
  std::vector<std::unique_ptr<ThreadBuf>> bufs RTA_GUARDED_BY(mutex);
  int next_tid RTA_GUARDED_BY(mutex) = 0;
};

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()), impl_(new Impl) {}

Tracer::~Tracer() { delete impl_; }

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void* Tracer::local_buf() {
  thread_local std::vector<std::pair<std::uint64_t, ThreadBuf*>> cache;
  for (auto& [id, buf] : cache) {
    if (id == impl_->uid) return buf;
  }
  MutexLock lock(impl_->mutex);
  impl_->bufs.push_back(std::make_unique<ThreadBuf>());
  ThreadBuf* buf = impl_->bufs.back().get();
  buf->tid = impl_->next_tid++;
  cache.emplace_back(impl_->uid, buf);
  return buf;
}

void Tracer::emit(char phase, void* buf_ptr, const std::string& name,
                  const std::string& args) {
  ThreadBuf* buf = static_cast<ThreadBuf*>(buf_ptr);
  double ts = now_us();
  MutexLock lock(buf->mutex);
  // Strictly increasing timestamps per thread (nudge by 1 ns on clock ties).
  if (ts <= buf->last_ts) ts = buf->last_ts + 0.001;
  buf->last_ts = ts;
  buf->events.push_back({name, phase, ts, buf->tid, args});
}

Tracer::Span Tracer::span(std::string name, std::string args_json) {
  void* buf = local_buf();
  emit('B', buf, name, args_json);
  return Span(this, buf, std::move(name));
}

void Tracer::Span::finish() {
  if (tracer_ == nullptr) return;
  tracer_->emit('E', buf_, name_, end_args_);
  tracer_ = nullptr;
}

void Tracer::instant(std::string name, std::string args_json) {
  emit('i', local_buf(), name, args_json);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> all;
  MutexLock lock(impl_->mutex);
  for (const auto& buf : impl_->bufs) {
    MutexLock buf_lock(buf->mutex);
    all.insert(all.end(), buf->events.begin(), buf->events.end());
  }
  return all;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const TraceEvent& e : events()) {
    if (!first) out += ",\n";
    first = false;
    char head[96];
    std::snprintf(head, sizeof(head),
                  "{\"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d",
                  e.phase, e.ts_us, e.tid);
    out += head;
    out += ", \"cat\": \"rta\", \"name\": \"";
    append_json_escaped(out, e.name);
    out += "\"";
    if (e.phase == 'i') out += ", \"s\": \"t\"";
    if (!e.args.empty()) {
      out += ", \"args\": ";
      out += e.args;
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  for (const TraceEvent& e : events()) {
    char head[96];
    std::snprintf(head, sizeof(head),
                  "{\"ts_us\": %.3f, \"tid\": %d, \"ph\": \"%c\", \"name\": \"",
                  e.ts_us, e.tid, e.phase);
    out += head;
    append_json_escaped(out, e.name);
    out += "\"";
    if (!e.args.empty()) {
      out += ", \"args\": ";
      out += e.args;
    }
    out += "}\n";
  }
  return out;
}

}  // namespace rta::obs
