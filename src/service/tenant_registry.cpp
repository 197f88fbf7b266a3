#include "service/tenant_registry.hpp"

#include <utility>

namespace rta::service {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TenantRegistry::TenantRegistry() = default;
TenantRegistry::~TenantRegistry() = default;

std::uint64_t TenantRegistry::hash(std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  // FNV alone clusters on short ASCII ids ("t1", "t2", ...); the finalizer
  // spreads them so shard_of stays balanced.
  return splitmix64(h);
}

int TenantRegistry::shard_of(std::string_view name, int shards) {
  if (shards <= 1) return 0;
  return static_cast<int>(hash(name) % static_cast<std::uint64_t>(shards));
}

int TenantRegistry::add(std::string name,
                        std::unique_ptr<AdmissionSession> session) {
  const int index = static_cast<int>(names_.size());
  if (!index_.emplace(name, index).second) return -1;  // duplicate
  names_.push_back(std::move(name));
  sessions_.push_back(std::move(session));
  return index;
}

int TenantRegistry::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

}  // namespace rta::service
