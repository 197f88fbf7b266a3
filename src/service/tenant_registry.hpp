// Tenant-id -> AdmissionSession lookup for the sharded front end.
//
// The registry interns tenant names into dense indices (the sharded
// scheduler's per-tenant state lives in index-aligned vectors) and resolves
// names through a std::unordered_map with transparent std::string_view
// lookup, so routing a line never builds a std::string.
//
// Shard placement is a pure function of the tenant name (shard_of), so a
// tenant lands on the same shard no matter the insertion order, and widths
// 1/2/N route identically per tenant -- which is what keeps the sharded
// scheduler's per-tenant byte-identity contract width-independent.
//
// Concurrency: the registry is built before serving starts and is read-only
// afterwards (the sharded scheduler never adds tenants mid-stream), so
// lookups are safe from any shard worker without locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "service/admission_session.hpp"

namespace rta::service {

class TenantRegistry {
 public:
  TenantRegistry();
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Intern `name` and take ownership of its session. Returns the new
  /// tenant's dense index, or -1 when the name is already registered (the
  /// session is then discarded).
  int add(std::string name, std::unique_ptr<AdmissionSession> session);

  /// Dense index for `name`, or -1 when absent.
  [[nodiscard]] int find(std::string_view name) const;

  [[nodiscard]] int count() const { return static_cast<int>(names_.size()); }
  [[nodiscard]] const std::string& name(int idx) const { return names_[static_cast<std::size_t>(idx)]; }
  [[nodiscard]] AdmissionSession& session(int idx) const {
    return *sessions_[static_cast<std::size_t>(idx)];
  }

  /// Stable 64-bit hash of a tenant name (FNV-1a mixed through a
  /// splitmix64 finalizer); the single source of truth for placement.
  [[nodiscard]] static std::uint64_t hash(std::string_view name);

  /// Shard placement: hash(name) folded onto [0, shards). Independent of
  /// registration order and of every other tenant.
  [[nodiscard]] static int shard_of(std::string_view name, int shards);

 private:
  /// Transparent hash, so find() looks up a std::string_view directly.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::unordered_map<std::string, int, NameHash, std::equal_to<>> index_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<AdmissionSession>> sessions_;
};

}  // namespace rta::service
