#include "core/io_lower_bound.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace flo::core {

namespace {

/// Bitset pages: 32,768 blocks, 4 KiB of bits each.
constexpr unsigned kPageShift = 15;
constexpr std::uint64_t kPageBlocks = std::uint64_t{1} << kPageShift;
using Page = std::array<std::uint64_t, kPageBlocks / 64>;

/// Dense ids for the pages a trace touches, in first-touch order. Every
/// PagedBlockSet indexes its pages by these ids, so the sets' memory scales
/// with the touched footprint, never with the declared file sizes.
class PageDirectory {
 public:
  std::uint32_t id_of(std::uint64_t page) {
    // Consecutive extents of one stream mostly land in the same page.
    if (page != last_page_) {
      last_id_ = ids_.try_emplace(page, static_cast<std::uint32_t>(
                                            ids_.size()))
                     .first->second;
      last_page_ = page;
    }
    return last_id_;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> ids_;
  std::uint64_t last_page_ = ~std::uint64_t{0};  ///< no page has this number
  std::uint32_t last_id_ = 0;
};

/// Zeroed pages returned by drained phase sets, reused before any new
/// page is allocated.
class PagePool {
 public:
  std::unique_ptr<Page> take() {
    if (free_.empty()) return std::make_unique<Page>();  // zero-filled
    std::unique_ptr<Page> page = std::move(free_.back());
    free_.pop_back();
    return page;
  }
  void give(std::unique_ptr<Page> page) { free_.push_back(std::move(page)); }

 private:
  std::vector<std::unique_ptr<Page>> free_;
};

/// Bitset over global block ids, one page per touched page id, allocated
/// on first touch.
class PagedBlockSet {
 public:
  /// Sets blocks [lo, lo + span) of page `id` (the span stays inside the
  /// page); returns how many bits were newly set.
  std::uint64_t mark(std::uint32_t id, std::uint64_t lo, std::uint64_t span,
                     PagePool& pool) {
    std::unique_ptr<Page>& slot = slot_of(id);
    if (!slot) {
      slot = pool.take();
      touched_.push_back(id);
    }
    Page& words = *slot;
    std::uint64_t fresh = 0;
    std::uint64_t bit = lo;
    const std::uint64_t end = lo + span;
    while (bit < end) {
      const std::uint64_t word = bit / 64;
      const unsigned shift = static_cast<unsigned>(bit % 64);
      const std::uint64_t run = std::min<std::uint64_t>(end - bit, 64 - shift);
      const std::uint64_t mask =
          (run == 64 ? ~0ull : ((1ull << run) - 1)) << shift;
      fresh += static_cast<std::uint64_t>(std::popcount(mask & ~words[word]));
      words[word] |= mask;
      bit += run;
    }
    return fresh;
  }

  /// ORs every page of this set into `into` and returns how many of its
  /// bits were not yet set there. Only the pages this set touched are
  /// swept; the set is left empty, its pages zeroed in `pool` (or adopted
  /// whole by `into` where `into` had no such page yet).
  std::uint64_t drain_into(PagedBlockSet& into, PagePool& pool) {
    std::uint64_t fresh = 0;
    for (const std::uint32_t id : touched_) {
      std::unique_ptr<Page>& src = pages_[id];
      std::unique_ptr<Page>& dst = into.slot_of(id);
      if (!dst) {
        for (const std::uint64_t w : *src) {
          fresh += static_cast<std::uint64_t>(std::popcount(w));
        }
        dst = std::move(src);
        into.touched_.push_back(id);
        continue;
      }
      for (std::size_t w = 0; w < src->size(); ++w) {
        fresh += static_cast<std::uint64_t>(
            std::popcount((*src)[w] & ~(*dst)[w]));
        (*dst)[w] |= (*src)[w];
        (*src)[w] = 0;
      }
      pool.give(std::move(src));
    }
    touched_.clear();
    return fresh;
  }

 private:
  std::unique_ptr<Page>& slot_of(std::uint32_t id) {
    if (id >= pages_.size()) pages_.resize(id + 1);
    return pages_[id];
  }

  std::vector<std::unique_ptr<Page>> pages_;  ///< by page id; null: untouched
  std::vector<std::uint32_t> touched_;        ///< ids of the non-null pages
};

}  // namespace

IoBound compute_io_lower_bound(
    const storage::TraceSource& source,
    const std::vector<storage::NodeId>& io_node_of_thread,
    const storage::StorageTopology& topology, storage::PolicyKind policy) {
  const storage::TopologyConfig& cfg = topology.config();
  IoBound bound;
  // Layers whose fills the model cannot bound from below claim zero (see
  // the header comment); fault outages skip fills entirely.
  if (cfg.fault.enabled) return bound;
  const bool io_on =
      cfg.io_cache_enabled && policy != storage::PolicyKind::kKarma;
  const bool storage_on = cfg.storage_cache_enabled &&
                          policy != storage::PolicyKind::kKarma &&
                          policy != storage::PolicyKind::kDemoteLru;
  if (!io_on && !storage_on) return bound;

  // Global block ids: files laid out back to back.
  const std::vector<std::uint64_t>& file_blocks = source.file_blocks();
  std::vector<std::uint64_t> file_offset(file_blocks.size(), 0);
  std::uint64_t total_blocks = 0;
  for (std::size_t f = 0; f < file_blocks.size(); ++f) {
    file_offset[f] = total_blocks;
    total_blocks += file_blocks[f];
  }
  if (total_blocks == 0) return bound;
  if (io_node_of_thread.size() < source.thread_count()) {
    throw std::invalid_argument(
        "compute_io_lower_bound: io_node_of_thread shorter than the "
        "trace's thread count");
  }

  const std::size_t io_caches = cfg.io_nodes;
  const std::uint64_t io_capacity = topology.io_cache_blocks();
  // ever[c]: blocks ever requested at I/O cache c (compulsory fills).
  // phase[c]: blocks requested at c within the current phase (repetition
  // pressure). touched: global footprint (storage compulsory fills).
  // All of them page their bits in on first touch (see PagedBlockSet).
  PageDirectory directory;
  PagePool pool;
  std::vector<PagedBlockSet> ever(io_on ? io_caches : 0);
  std::vector<PagedBlockSet> phase(io_on ? io_caches : 0);
  PagedBlockSet touched;

  std::uint64_t io_bound_blocks = 0;
  std::uint64_t storage_bound_blocks = 0;
  std::vector<std::uint64_t> phase_distinct(io_caches, 0);

  for (std::size_t p = 0; p < source.phase_count(); ++p) {
    if (io_on) std::fill(phase_distinct.begin(), phase_distinct.end(), 0);
    for (std::uint32_t t = 0; t < source.thread_count(); ++t) {
      const storage::NodeId cache = io_node_of_thread[t];
      const auto cursor = source.open(p, t);
      storage::AccessEvent ev;
      while (cursor->next(ev)) {
        // Writes count too: the simulator write-allocates, so a written
        // block fills the caches exactly like a read one.
        std::uint64_t bit = file_offset[ev.file] + ev.block;
        const std::uint64_t end = bit + ev.run_blocks;
        while (bit < end) {  // one piece per page the extent crosses
          const std::uint64_t lo = bit & (kPageBlocks - 1);
          const std::uint64_t span = std::min(end - bit, kPageBlocks - lo);
          const std::uint32_t id = directory.id_of(bit >> kPageShift);
          if (io_on) {
            phase_distinct[cache] += phase[cache].mark(id, lo, span, pool);
          }
          if (storage_on) {
            storage_bound_blocks += touched.mark(id, lo, span, pool);
          }
          bit += span;
        }
      }
    }
    if (io_on) {
      const std::uint64_t repeat = source.phase_repeat(p);
      for (std::size_t c = 0; c < io_caches; ++c) {
        // First traversal: every block not seen at this cache before is a
        // compulsory fill. Each replay: at most `io_capacity` blocks can
        // still be resident when the repetition starts, so at least
        // distinct - capacity must be refilled, every extra time around.
        // Draining empties phase[c] for the next phase.
        io_bound_blocks += phase[c].drain_into(ever[c], pool);
        if (repeat > 1 && phase_distinct[c] > io_capacity) {
          io_bound_blocks +=
              (repeat - 1) * (phase_distinct[c] - io_capacity);
        }
      }
    }
  }
  if (io_on) bound.io_bound_bytes = io_bound_blocks * cfg.block_size;
  if (storage_on) {
    bound.storage_bound_bytes = storage_bound_blocks * cfg.block_size;
  }
  return bound;
}

}  // namespace flo::core
