#include "storage/qos.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "storage/lru_cache.hpp"
#include "storage/tenant_ledger.hpp"
#include "storage/topology.hpp"
#include "util/parse.hpp"

namespace flo::storage {

const char* sched_policy_name(SchedPolicyKind policy) {
  switch (policy) {
    case SchedPolicyKind::kLook:
      return "look";
    case SchedPolicyKind::kFcfs:
      return "fcfs";
    case SchedPolicyKind::kPriority:
      return "priority";
  }
  return "?";
}

std::optional<SchedPolicyKind> parse_sched_policy(const std::string& name) {
  if (name == "look") return SchedPolicyKind::kLook;
  if (name == "fcfs") return SchedPolicyKind::kFcfs;
  if (name == "priority") return SchedPolicyKind::kPriority;
  return std::nullopt;
}

void QosConfig::validate() const {
  for (std::uint32_t s : shares) {
    if (s == 0) {
      throw std::invalid_argument("QosConfig: shares must be >= 1");
    }
  }
  for (std::uint32_t p : priorities) {
    if (p == 0) {
      throw std::invalid_argument("QosConfig: priorities must be >= 1");
    }
  }
  if (epoch_accesses == 0) {
    throw std::invalid_argument("QosConfig: epoch_accesses must be >= 1");
  }
  if (dynamic_shares && shares.empty()) {
    throw std::invalid_argument(
        "QosConfig: dynamic_shares needs shares to rebalance");
  }
  if (!(sched_window > 0)) {
    throw std::invalid_argument("QosConfig: sched_window must be > 0");
  }
}

namespace {

constexpr std::string_view kSpec = "qos spec";

std::vector<std::uint32_t> spec_weights(const std::string& value,
                                        const std::string& key) {
  std::vector<std::uint32_t> out;
  for (const std::string& part : util::split(value, ':')) {
    out.push_back(static_cast<std::uint32_t>(util::spec_integer(
        kSpec, key, part, std::numeric_limits<std::uint32_t>::max())));
  }
  return out;
}

}  // namespace

QosConfig parse_qos_spec(const std::string& spec) {
  QosConfig config;
  if (spec.empty()) return config;
  config.enabled = true;
  for (const std::string& entry : util::split(spec, ',')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("qos spec: expected key=value, got '" +
                                  entry + "'");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "shares") {
      config.shares = spec_weights(value, key);
    } else if (key == "prio") {
      config.priorities = spec_weights(value, key);
    } else if (key == "dynamic") {
      config.dynamic_shares = util::spec_integer(kSpec, key, value) != 0;
    } else if (key == "epoch") {
      config.epoch_accesses = util::spec_integer(kSpec, key, value);
    } else if (key == "sched") {
      const auto policy = parse_sched_policy(value);
      if (!policy) {
        throw std::invalid_argument(
            "qos spec: unknown scheduler '" + value +
            "' (expected look, fcfs or priority)");
      }
      config.scheduler = *policy;
    } else if (key == "window") {
      config.sched_window = util::spec_number(kSpec, key, value);
    } else {
      throw std::invalid_argument("qos spec: unknown key '" + key + "'");
    }
  }
  config.validate();
  return config;
}

QosConfig qos_config_from_env(QosConfig fallback) {
  static const std::optional<QosConfig> spec =
      util::read_knob("FLO_QOS", parse_qos_spec);
  static const std::optional<SchedPolicyKind> sched =
      util::read_knob("FLO_SCHED", [](const std::string& name) {
        if (const auto policy = parse_sched_policy(name)) return *policy;
        throw std::invalid_argument(
            "unknown disk scheduling policy '" + name +
            "' (expected look, fcfs or priority)");
      });
  QosConfig config = spec ? *spec : std::move(fallback);
  if (sched) {
    // FLO_SCHED overrides whatever the spec (or fallback) chose; a bare
    // FLO_SCHED also enables QoS so the policy reaches the simulator.
    config.scheduler = *sched;
    config.enabled = true;
  }
  return config;
}

namespace {

/// Largest-remainder split of `amount` units by `weights`: each entry gets
/// floor(amount * weight / total) but at least `floor` (static quotas: one
/// block; the dynamic slack: none), and the leftover units go to the
/// largest remainders, ties to the lower index. Deterministic.
std::vector<std::size_t> apportion(std::size_t amount,
                                   const std::vector<std::uint64_t>& weights,
                                   std::size_t floor) {
  std::vector<std::size_t> out(weights.size(), 0);
  std::uint64_t total = 0;
  for (std::uint64_t w : weights) total += w;
  if (total == 0) throw std::invalid_argument("apportion: zero total weight");
  std::vector<std::pair<std::uint64_t, std::size_t>> remainder(weights.size());
  std::size_t granted = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::uint64_t scaled = static_cast<std::uint64_t>(amount) * weights[i];
    out[i] = std::max(floor, static_cast<std::size_t>(scaled / total));
    remainder[i] = {scaled % total, i};
    granted += out[i];
  }
  // The floor can overshoot a tiny amount: shave the largest entries
  // (lowest index first among equals) until the sum fits.
  while (granted > amount) {
    std::size_t richest = 0;
    for (std::size_t i = 1; i < out.size(); ++i) {
      if (out[i] > out[richest]) richest = i;
    }
    --out[richest];
    --granted;
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::size_t i = 0; granted < amount; ++i) {
    ++out[remainder[i % remainder.size()].second];
    ++granted;
  }
  return out;
}

}  // namespace

std::vector<std::size_t> quota_partition(
    std::size_t capacity, std::size_t tenants,
    const std::vector<std::uint32_t>& shares) {
  if (tenants == 0) return {};
  if (!shares.empty() && shares.size() < tenants) {
    throw std::invalid_argument(
        "quota_partition: fewer shares than tenants");
  }
  if (capacity < tenants) {
    throw std::invalid_argument(
        "quota_partition: capacity smaller than tenant count");
  }
  std::vector<std::uint64_t> weight(tenants, 1);
  if (!shares.empty()) {
    std::copy_n(shares.begin(), tenants, weight.begin());
  }
  return apportion(capacity, weight, 1);
}

void QosPartitioner::arm(const StorageTopology& topology, bool karma,
                         const TenantLedger& ledger,
                         std::vector<LruCache>& io_caches,
                         std::vector<LruCache>& storage_caches) {
  const QosConfig& qos = topology.config().qos;
  *this = QosPartitioner{};
  if (qos.enabled && !qos.priorities.empty()) {
    for (std::uint32_t tenant : ledger.tenant_of_thread()) {
      priority_.push_back(
          tenant < qos.priorities.size() ? qos.priorities[tenant] : 1);
    }
  }
  active_ = qos.enabled && !qos.shares.empty() && ledger.enabled() && !karma;
  if (!active_) {
    for (auto& c : io_caches) c.set_partitions({});
    for (auto& c : storage_caches) c.set_partitions({});
    return;
  }
  qos.validate();
  tenants_ = ledger.tenant_count();
  if (qos.shares.size() < tenants_) {
    throw std::invalid_argument("QosPartitioner: fewer QoS shares than tenants");
  }
  io_quota_ = quota_partition(topology.io_cache_blocks(), tenants_, qos.shares);
  storage_quota_ =
      quota_partition(topology.storage_cache_blocks(), tenants_, qos.shares);
  for (auto& c : io_caches) c.set_partitions(io_quota_);
  for (auto& c : storage_caches) c.set_partitions(storage_quota_);
  prev_misses_.assign(tenants_, 0);
  occ_.assign(tenants_, 0);
  epoch_ = qos.epoch_accesses;
  if (qos.dynamic_shares) epoch_next_ = epoch_;
}

void QosPartitioner::note_insert(std::uint32_t owner, bool was_resident,
                                 bool evicted,
                                 std::uint64_t TenantStats::*evictions,
                                 std::vector<TenantStats>& tenants) {
  if (evicted) {
    // The victim came from the owner's own partition, so net occupancy is
    // unchanged and the eviction is the owner's — that is the attribution
    // guarantee partitioning buys.
    if (owner < tenants.size()) ++(tenants[owner].*evictions);
  } else if (!was_resident && owner < occ_.size()) {
    std::uint64_t& peak = tenants[owner].occupancy_peak;
    peak = std::max(peak, ++occ_[owner]);
  }
}

bool QosPartitioner::erase(LruCache& cache, BlockKey key) {
  if (active_) {
    const std::optional<std::uint32_t> owner = cache.owner_of(key);
    if (owner && *owner < occ_.size() && occ_[*owner] > 0) --occ_[*owner];
  }
  return cache.erase(key);
}

std::vector<QosPartitioner::Trimmed> QosPartitioner::rebalance(
    std::uint64_t accesses, std::vector<TenantStats>& tenants,
    std::vector<LruCache>& io_caches, std::vector<LruCache>& storage_caches) {
  while (epoch_next_ <= accesses) epoch_next_ += epoch_;
  // The marginal-gain signal: misses suffered during this epoch, per
  // tenant — the same observed-pressure signal KARMA uses per range
  // class, applied to capacity shares.
  std::vector<std::uint64_t> gain(tenants_, 0);
  std::uint64_t total_gain = 0;
  for (std::uint32_t t = 0; t < tenants_; ++t) {
    const TenantStats& s = tenants[t];
    const std::uint64_t misses = (s.io_lookups - s.io_hits) +
                                 (s.storage_lookups - s.storage_hits);
    gain[t] = misses - prev_misses_[t];
    prev_misses_[t] = misses;
    total_gain += gain[t];
  }
  if (total_gain == 0) return {};  // no pressure anywhere: keep the quotas

  // Guaranteed floor: half the static quota (at least one block). The
  // slack above the floors is what the epoch's miss pressure contends for.
  // Every cache of a level has the capacity its static quotas sum to.
  const auto rebalanced = [&](const std::vector<std::size_t>& statiq) {
    std::vector<std::size_t> quota(tenants_);
    std::size_t capacity = 0;
    std::size_t floored = 0;
    for (std::uint32_t t = 0; t < tenants_; ++t) {
      capacity += statiq[t];
      quota[t] = std::max<std::size_t>(1, statiq[t] / 2);
      floored += quota[t];
    }
    if (floored >= capacity) return statiq;  // degenerate tiny cache
    const std::vector<std::size_t> extra =
        apportion(capacity - floored, gain, 0);
    for (std::uint32_t t = 0; t < tenants_; ++t) quota[t] += extra[t];
    return quota;
  };

  // Applies one level's new quotas, shrinking before growing. The trimmed
  // tenant was just ruled over-provisioned, so its victims are evicted,
  // never re-inserted below.
  std::vector<Trimmed> trimmed;
  const auto trim = [&](std::vector<LruCache>& caches,
                        const std::vector<std::size_t>& statiq, bool storage,
                        std::uint64_t TenantStats::*evictions) {
    const std::vector<std::size_t> quota = rebalanced(statiq);
    for (std::size_t i = 0; i < caches.size(); ++i) {
      LruCache& cache = caches[i];
      for (std::uint32_t t = 0; t < tenants_; ++t) {
        if (quota[t] >= cache.partition_quota(t)) continue;
        for (const Victim& victim : cache.set_partition_quota(t, quota[t])) {
          if (t < tenants.size()) ++(tenants[t].*evictions);
          if (occ_[t] > 0) --occ_[t];
          trimmed.push_back({storage, static_cast<std::uint32_t>(i),
                             victim.key.packed(), victim.dirty});
        }
      }
      for (std::uint32_t t = 0; t < tenants_; ++t) {
        if (quota[t] > cache.partition_quota(t)) {
          cache.set_partition_quota(t, quota[t]);
        }
      }
    }
  };
  trim(io_caches, io_quota_, false, &TenantStats::io_evictions);
  trim(storage_caches, storage_quota_, true, &TenantStats::storage_evictions);
  return trimmed;
}

}  // namespace flo::storage
