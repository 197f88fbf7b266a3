#include "obs/metrics.hpp"

#include <atomic>
#include <bit>
#include <cassert>
#include <deque>
#include <memory>
#include <utility>

#include "util/json_escape.hpp"
#include "util/number_format.hpp"
#include "util/thread_annotations.hpp"

namespace rta::obs {

namespace {

/// Unique id per registry instance, so the thread-local slab cache can tell
/// a new registry apart from a destroyed one that happened to be reallocated
/// at the same address.
std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

double bits_to_double(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t double_to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

enum class MetricKind { kCounter, kHistogram };

struct GaugeCell {
  std::atomic<std::uint64_t> bits{double_to_bits(0.0)};
};

/// One thread's private cells. Structure (cell count) only changes under the
/// registry mutex and only at the hands of the owning thread; the cells are
/// relaxed atomics so snapshot() can read them from another thread. A deque
/// keeps cell addresses stable across growth.
struct Slab {
  std::deque<std::atomic<std::uint64_t>> cells;
  std::atomic<std::size_t> ready{0};  ///< cells constructed so far
};

struct MetricsRegistry::Impl {
  struct Desc {
    MetricKind kind;
    std::string name;
    std::uint32_t first_slot = 0;
    std::uint32_t n_slots = 1;
    std::vector<double> bounds;  ///< histograms only
  };

  std::uint64_t uid = next_registry_uid();
  mutable Mutex mutex;
  std::deque<Desc> descs RTA_GUARDED_BY(mutex);  // stable addresses
  std::map<std::string, std::size_t> by_name
      RTA_GUARDED_BY(mutex);  // name -> index into descs
  std::uint32_t slot_count RTA_GUARDED_BY(mutex) = 0;
  std::deque<std::pair<std::string, std::unique_ptr<GaugeCell>>> gauges
      RTA_GUARDED_BY(mutex);
  std::map<std::string, GaugeCell*> gauges_by_name RTA_GUARDED_BY(mutex);
  std::vector<std::unique_ptr<Slab>> slabs RTA_GUARDED_BY(mutex);

  /// The calling thread's slab, created/grown on demand.
  Slab* local_slab(std::uint32_t min_slots) {
    thread_local std::vector<std::pair<std::uint64_t, Slab*>> cache;
    Slab* slab = nullptr;
    for (auto& [id, s] : cache) {
      if (id == uid) {
        slab = s;
        break;
      }
    }
    if (slab == nullptr) {
      MutexLock lock(mutex);
      slabs.push_back(std::make_unique<Slab>());
      slab = slabs.back().get();
      cache.emplace_back(uid, slab);
    }
    if (slab->ready.load(std::memory_order_relaxed) < min_slots) {
      MutexLock lock(mutex);
      while (slab->cells.size() < slot_count) slab->cells.emplace_back(0);
      slab->ready.store(slab->cells.size(), std::memory_order_release);
    }
    return slab;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(impl_->mutex);
  auto it = impl_->by_name.find(name);
  if (it != impl_->by_name.end()) {
    const Impl::Desc& d = impl_->descs[it->second];
    assert(d.kind == MetricKind::kCounter);
    return Counter(this, d.first_slot);
  }
  Impl::Desc d;
  d.kind = MetricKind::kCounter;
  d.name = name;
  d.first_slot = impl_->slot_count;
  d.n_slots = 1;
  impl_->slot_count += 1;
  impl_->by_name.emplace(name, impl_->descs.size());
  impl_->descs.push_back(std::move(d));
  return Counter(this, impl_->descs.back().first_slot);
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const std::vector<double>& bounds) {
  MutexLock lock(impl_->mutex);
  auto it = impl_->by_name.find(name);
  if (it != impl_->by_name.end()) {
    const Impl::Desc& d = impl_->descs[it->second];
    assert(d.kind == MetricKind::kHistogram);
    return Histogram(this, d.first_slot, &d.bounds);
  }
  Impl::Desc d;
  d.kind = MetricKind::kHistogram;
  d.name = name;
  d.bounds = bounds;
  d.first_slot = impl_->slot_count;
  // Layout: per-bucket counts (bounds + overflow), then sum bits, max bits.
  d.n_slots = static_cast<std::uint32_t>(bounds.size() + 1 + 2);
  impl_->slot_count += d.n_slots;
  impl_->by_name.emplace(name, impl_->descs.size());
  impl_->descs.push_back(std::move(d));
  const Impl::Desc& stored = impl_->descs.back();
  return Histogram(this, stored.first_slot, &stored.bounds);
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(impl_->mutex);
  auto it = impl_->gauges_by_name.find(name);
  if (it != impl_->gauges_by_name.end()) return Gauge(it->second);
  assert(impl_->by_name.find(name) == impl_->by_name.end());
  impl_->gauges.emplace_back(name, std::make_unique<GaugeCell>());
  GaugeCell* cell = impl_->gauges.back().second.get();
  impl_->gauges_by_name.emplace(name, cell);
  return Gauge(cell);
}

const std::vector<double>& MetricsRegistry::knot_buckets() {
  static const std::vector<double> buckets = {1,  2,   4,   8,    16,   32,  64,
                                              128, 256, 512, 1024, 2048, 4096};
  return buckets;
}

const std::vector<double>& MetricsRegistry::latency_buckets_us() {
  // 10us .. ~40ms, exponential. One shared layout for every service latency
  // histogram (request/read/mutate) so their snapshots compare bucket by
  // bucket.
  static const std::vector<double> buckets = [] {
    std::vector<double> b;
    for (double edge = 10.0; edge <= 50000.0; edge *= 2.0) b.push_back(edge);
    return b;
  }();
  return buckets;
}

void MetricsRegistry::add_to_slot(std::uint32_t slot, std::uint64_t n) {
  Slab* slab = impl_->local_slab(slot + 1);
  slab->cells[slot].fetch_add(n, std::memory_order_relaxed);
}

void MetricsRegistry::cas_max_slot(std::uint32_t slot, double v) {
  Slab* slab = impl_->local_slab(slot + 1);
  std::atomic<std::uint64_t>& cell = slab->cells[slot];
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (bits_to_double(cur) < v &&
         !cell.compare_exchange_weak(cur, double_to_bits(v),
                                     std::memory_order_relaxed)) {
  }
}

void Counter::add(std::uint64_t n) const {
  if (registry_ != nullptr) registry_->add_to_slot(slot_, n);
}

void Gauge::set(double v) const {
  if (cell_ != nullptr) {
    static_cast<GaugeCell*>(cell_)->bits.store(double_to_bits(v),
                                               std::memory_order_relaxed);
  }
}

void Gauge::record_max(double v) const {
  if (cell_ == nullptr) return;
  std::atomic<std::uint64_t>& bits = static_cast<GaugeCell*>(cell_)->bits;
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (bits_to_double(cur) < v &&
         !bits.compare_exchange_weak(cur, double_to_bits(v),
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::observe(double v) const {
  if (registry_ == nullptr) return;
  std::size_t bucket = bounds_->size();  // overflow bucket
  for (std::size_t i = 0; i < bounds_->size(); ++i) {
    if (v <= (*bounds_)[i]) {
      bucket = i;
      break;
    }
  }
  registry_->add_to_slot(first_slot_ + static_cast<std::uint32_t>(bucket), 1);
  // Sum and max live in the two slots after the buckets, as double bits
  // (uncontended CAS: the cells are thread-local by construction).
  const std::uint32_t sum_slot =
      first_slot_ + static_cast<std::uint32_t>(bounds_->size() + 1);
  registry_->cas_sum_slot(sum_slot, v);
  registry_->cas_max_slot(sum_slot + 1, v);
}

void MetricsRegistry::cas_sum_slot(std::uint32_t slot, double v) {
  Slab* slab = impl_->local_slab(slot + 1);
  std::atomic<std::uint64_t>& cell = slab->cells[slot];
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, double_to_bits(bits_to_double(cur) + v),
                                     std::memory_order_relaxed)) {
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(impl_->mutex);
  auto slot_sum = [&](std::uint32_t slot) {
    std::uint64_t total = 0;
    for (const auto& slab : impl_->slabs) {
      if (slot < slab->ready.load(std::memory_order_acquire)) {
        total += slab->cells[slot].load(std::memory_order_relaxed);
      }
    }
    return total;
  };
  auto slot_sum_double = [&](std::uint32_t slot) {
    double total = 0.0;
    for (const auto& slab : impl_->slabs) {
      if (slot < slab->ready.load(std::memory_order_acquire)) {
        total +=
            bits_to_double(slab->cells[slot].load(std::memory_order_relaxed));
      }
    }
    return total;
  };
  auto slot_max_double = [&](std::uint32_t slot) {
    double m = 0.0;
    for (const auto& slab : impl_->slabs) {
      if (slot < slab->ready.load(std::memory_order_acquire)) {
        const double v =
            bits_to_double(slab->cells[slot].load(std::memory_order_relaxed));
        if (v > m) m = v;
      }
    }
    return m;
  };

  for (const Impl::Desc& d : impl_->descs) {
    if (d.kind == MetricKind::kCounter) {
      snap.counters[d.name] = slot_sum(d.first_slot);
    } else {
      HistogramSnapshot h;
      h.bounds = d.bounds;
      h.counts.resize(d.bounds.size() + 1);
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        h.counts[i] = slot_sum(d.first_slot + static_cast<std::uint32_t>(i));
        h.count += h.counts[i];
      }
      const std::uint32_t sum_slot =
          d.first_slot + static_cast<std::uint32_t>(d.bounds.size() + 1);
      h.sum = slot_sum_double(sum_slot);
      h.max = slot_max_double(sum_slot + 1);
      snap.histograms[d.name] = std::move(h);
    }
  }
  for (const auto& [name, cell] : impl_->gauges) {
    snap.gauges[name] = bits_to_double(cell->bits.load(std::memory_order_relaxed));
  }
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += c;
    if (static_cast<double>(cum) >= target) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      // The overflow bucket has no upper edge; the observed max is the
      // tightest one available.
      double upper = i < bounds.size() ? bounds[i] : max;
      if (upper < lower) upper = lower;
      double frac = (target - prev) / static_cast<double>(c);
      if (frac > 1.0) frac = 1.0;
      return lower + frac * (upper - lower);
    }
  }
  return max;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": ";
    append_double(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      append_double(out, h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) + ", \"sum\": ";
    append_double(out, h.sum);
    out += ", \"max\": ";
    append_double(out, h.max);
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace rta::obs
