// core::FingerprintCache — a fingerprint-keyed LRU that concurrent
// requesters share: the engine's per-run compile dedup and flo_serve's
// long-lived cache of rendered plans.
//
// One instance holds one kind of value, behind one in-flight routine (the
// first requester computes, concurrent requesters of the key block on its
// shared future, and a failure is forgotten, not kept):
//   CompileCache  — CompiledExperiments with their layouts, for the
//                   ExperimentEngine, whose cells simulate them; the
//                   engine forgets each one after the last cell that
//                   needs it;
//   RenderedCache — an already-serialized response payload (the
//                   transform-plan text a service request needs), for
//                   flo_serve, which renders it from compile_plan and never
//                   holds a compiled object. Its entries survive process
//                   restarts through a crash-safe journal (atomic
//                   tmp+fsync+rename on every update, the same pattern as
//                   the engine's checkpoint journal).
//
// Keys are CONTENT fingerprints (printed IR + the config fields that can
// influence compile_experiment), never pointers: a long-lived cache shared
// across requests must not confuse two programs that happen to reuse an
// address. The template-family fast tier falls out of the key scheme — a
// config whose compile_topology is the family's reference topology hashes
// identically for every member, so one cached compile serves the family.
//
// Eviction is LRU over completed entries (in-flight compiles are never
// evicted); hits/misses/evictions surface both as local stats() and, when
// obs is enabled, as `<metric_prefix>_hits/_misses/_evictions` counters.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "core/experiment.hpp"

namespace flo::core {

using CompiledPtr = std::shared_ptr<const CompiledExperiment>;

/// FNV-1a over raw bytes — the repo-wide fingerprint primitive (journal
/// keys, compile keys, the chaos harness's response canaries).
std::uint64_t fnv1a(std::string_view bytes);

/// 16-hex-digit rendering of a 64-bit fingerprint.
std::string hex16(std::uint64_t value);

/// Appends the raw bytes of one trivially copyable value to a key byte
/// string. Shared by compile fingerprints and the engine's journal keys.
template <typename T>
void append_value(std::string& key, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  key.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Appends every TopologyConfig field (individually — the struct may
/// contain padding) to a key byte string. Shared by compile fingerprints
/// and the engine's journal keys.
void append_topology_key(std::string& key, const storage::TopologyConfig& t);

/// Content fingerprint of a program: fnv1a of its printed IR. Stable
/// across processes and program instances, unlike the address.
std::uint64_t program_fingerprint(const ir::Program& program);

/// Compile signature of (program content, config): two cells with equal
/// fingerprints yield identical CompiledExperiments, so the second can
/// reuse the first's. Only fields that influence compile_experiment
/// participate — e.g. the cache policy matters only for the
/// dimension-reindexing scheme (whose profiler simulates under it), so
/// "inter-node under LRU" and "inter-node under KARMA" share one key.
std::string compile_fingerprint(std::uint64_t program_fp,
                                const ExperimentConfig& config);

struct CompileCacheOptions {
  /// Maximum resident entries; 0 = unbounded (the engine's per-run
  /// default). In-flight compiles may transiently exceed the cap.
  std::size_t capacity = 0;
  /// obs counter prefix: `<prefix>_hits`, `<prefix>_misses`,
  /// `<prefix>_evictions`, `<prefix>_journal_replayed`.
  std::string metric_prefix = "engine.compile_cache";
  /// RenderedCache persistence path; empty = in-memory only. The file is
  /// replayed on construction and atomically rewritten on every insert and
  /// eviction. A compiled object is not serializable, so a CompileCache
  /// refuses a path.
  std::string journal_path;
};

/// A serialized response payload: a RenderedCache's value. `tier` records
/// how it was compiled ("exact" or "template") so a restarted daemon
/// reports honestly.
struct RenderedCompile {
  std::string tier;
  std::string body;
};

struct CompileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t journal_replayed = 0;
  std::size_t size = 0;
};

/// The LRU over one kind of value T: CompiledPtr (CompileCache) or
/// RenderedCompile (RenderedCache). Defined for those two only.
template <typename T>
class FingerprintCache {
 public:
  /// Replays the journal when options name one; throws
  /// std::invalid_argument when a CompileCache is given one.
  explicit FingerprintCache(CompileCacheOptions options = {});

  /// Returns the compiled object for `key`, invoking `compile` exactly
  /// once per resident key; concurrent requesters for the same key block
  /// on the first requester's future. A failed compile propagates to
  /// every waiter and is then forgotten, so a later request retries
  /// instead of hitting a poisoned entry. Counts a hit when a live entry
  /// existed (or was in flight), a miss otherwise.
  CompiledPtr get_or_compile(const std::string& key,
                             const std::function<CompiledExperiment()>& compile)
    requires std::is_same_v<T, CompiledPtr>;

  /// get_or_compile for rendered payloads: the same sharing of concurrent
  /// requesters, forgetting of a failed render and hit/miss counting. The
  /// entry is stored and, when a journal is configured, atomically
  /// written through before the rendering requester returns; a failed
  /// journal write throws std::system_error to that requester and keeps
  /// the entry in memory.
  RenderedCompile get_or_render(const std::string& key,
                                const std::function<RenderedCompile()>& render)
    requires std::is_same_v<T, RenderedCompile>;

  /// Erases `key` once its compile has settled, for a caller that knows no
  /// later request needs it; the compile is freed when the last holder of
  /// its CompiledPtr lets go. Returns whether it erased an entry: an
  /// absent key and an entry still in flight (its requester still stores
  /// it) are left alone.
  bool forget(const std::string& key)
    requires std::is_same_v<T, CompiledPtr>;

  /// Memory first, journal-replayed entries count too; a render still in
  /// flight is not found. Hits refresh LRU recency and count as cache
  /// hits; a miss is NOT counted here (the caller usually proceeds to
  /// get_or_render, which counts it).
  std::optional<RenderedCompile> lookup_rendered(const std::string& key)
    requires std::is_same_v<T, RenderedCompile>;

  CompileCacheStats stats() const;
  std::size_t size() const;

 private:
  static constexpr bool kJournaled = std::is_same_v<T, RenderedCompile>;

  /// `value` is valid from the key's first request on, and `inflight`
  /// while that requester still computes it.
  struct Entry {
    std::shared_future<T> value;
    bool inflight = false;
    std::list<std::string>::iterator lru_it;
  };

  /// The one in-flight routine behind get_or_compile and get_or_render:
  /// looks `key` up and, on a miss, runs `make` as the key's only
  /// computation, then stores (and journals) its value before returning.
  T get_or_make(const std::string& key, const std::function<T()>& make);

  // All private helpers below assume mutex_ is held.
  Entry& touch(const std::string& key);
  /// Drops least-recent settled entries down to the capacity.
  void evict_over_capacity();
  /// Rewrites the journal, if one is configured, from the settled entries.
  void write_journal_locked()
    requires std::is_same_v<T, RenderedCompile>;
  void replay_journal()
    requires std::is_same_v<T, RenderedCompile>;
  void count(const char* suffix, std::uint64_t n = 1) const;

  CompileCacheOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recent
  mutable CompileCacheStats stats_;
};

extern template class FingerprintCache<CompiledPtr>;
extern template class FingerprintCache<RenderedCompile>;

/// The engine's cache of compiled experiments.
using CompileCache = FingerprintCache<CompiledPtr>;
/// flo_serve's cache of rendered plans, journaled across restarts.
using RenderedCache = FingerprintCache<RenderedCompile>;

}  // namespace flo::core
