#include "layout/internode.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "linalg/gcd.hpp"

namespace flo::layout {

namespace {

/// An affine function of an odometer's position, stepped without
/// re-evaluating it. Level j counts 0 .. trip[j]-1, the last level fastest;
/// when level j steps and the levels after it rewind to 0, the value moves
/// by delta[j], precomputed in checked arithmetic from the per-level
/// coefficients.
class AffineOdometer {
 public:
  AffineOdometer(std::span<const std::int64_t> coeff,
                 std::span<const std::int64_t> trip, std::int64_t value)
      : trip_(trip.begin(), trip.end()),
        delta_(trip.size()),
        counter_(trip.size(), 0),
        value_(value) {
    std::int64_t rewind = 0;  // the levels after j, from their ends to 0
    for (std::size_t j = trip.size(); j-- > 0;) {
      delta_[j] = linalg::checked_sub(coeff[j], rewind);
      rewind = linalg::checked_add(
          rewind, linalg::checked_mul(coeff[j], trip[j] - 1));
    }
  }

  std::int64_t value() const { return value_; }

  /// Steps to the next position; false after the last one.
  bool next() {
    std::size_t j = counter_.size();
    while (j > 0 && counter_[j - 1] + 1 == trip_[j - 1]) counter_[--j] = 0;
    if (j == 0) return false;
    ++counter_[j - 1];
    value_ = linalg::checked_add(value_, delta_[j - 1]);
    return true;
  }

 private:
  std::vector<std::int64_t> trip_;
  std::vector<std::int64_t> delta_;
  std::vector<std::int64_t> counter_;
  std::int64_t value_;
};

/// Positions 0 .. keys.size()-1 stably sorted by keys[position], every key
/// in [lo, hi]: an LSD radix sort on key - lo. A digit is at most 16 bits
/// and no wider than the position count needs, so the counting tables stay
/// linear in the count however wide the key range is. Keys already in
/// order (a hyperplane along the leading dimension, a third of the suite's
/// partitioned arrays; DESIGN.md §5 item 2 measures the gain) skip the
/// sort. Positions are 32-bit: the caller keeps the count below 2^32.
std::vector<std::uint32_t> stable_order_by_key(
    std::span<const std::int64_t> keys, std::int64_t lo, std::int64_t hi) {
  const std::size_t n = keys.size();
  std::vector<std::uint32_t> order(n);
  const auto offset = [lo](std::int64_t key) {
    return static_cast<std::uint64_t>(key) - static_cast<std::uint64_t>(lo);
  };
  const int key_bits =
      n == 0 ? 0 : static_cast<int>(std::bit_width(offset(hi)));
  const int widest =
      std::clamp(static_cast<int>(std::bit_width(n)), 8, 16);
  const int passes = (key_bits + widest - 1) / widest;
  if (passes == 0 || std::is_sorted(keys.begin(), keys.end())) {
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    return order;
  }
  const int width = (key_bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  const std::size_t buckets = std::size_t{1} << width;

  // Every pass's digit counts, from one sequential read of the keys.
  std::vector<std::size_t> next(static_cast<std::size_t>(passes) * buckets);
  for (const std::int64_t key : keys) {
    const std::uint64_t v = offset(key);
    for (int p = 0; p < passes; ++p) {
      const std::uint64_t digit = (v >> (p * width)) & mask;
      ++next[static_cast<std::size_t>(p) * buckets + digit];
    }
  }
  // The last pass writes `order`; earlier ones alternate with `spare`.
  std::vector<std::uint32_t> spare(passes > 1 ? n : 0);
  for (int p = 0; p < passes; ++p) {
    std::size_t* at = next.data() + static_cast<std::size_t>(p) * buckets;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) sum += std::exchange(at[b], sum);
    const bool into_order = (passes - 1 - p) % 2 == 0;
    std::vector<std::uint32_t>& dst = into_order ? order : spare;
    const std::vector<std::uint32_t>& src = into_order ? spare : order;
    const int shift = p * width;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t pos =
          p == 0 ? static_cast<std::uint32_t>(i) : src[i];
      dst[at[(offset(keys[pos]) >> shift) & mask]++] = pos;
    }
  }
  return order;
}

/// The largest touched count and the largest slot a 32-bit field holds.
constexpr std::uint64_t kMaxTouched = 0xFFFFFFFFu;
constexpr std::uint64_t kMaxSlot = 0xFFFFFFFFu;

}  // namespace

std::size_t InterNodeLayout::rank_of(std::uint64_t idx) const {
  const RankWord& word = words_[idx / 64];
  const std::uint64_t below =
      word.bits() & ((std::uint64_t{1} << (idx % 64)) - 1);
  return std::size_t{word.rank} +
         static_cast<std::size_t>(std::popcount(below));
}

parallel::ThreadId InterNodeLayout::owner_of_s(std::int64_t s) const {
  return decomp_.blocks()[s_blocks_.block(s)].thread;
}

void InterNodeLayout::mark_access_image(const poly::IterationSpace& iters,
                                        const poly::AffineReference& ref) {
  using linalg::checked_add;
  using linalg::checked_mul;
  // The first iteration's element, through the one checked evaluator (it
  // also rejects a reference whose shape does not fit the nest).
  std::vector<std::int64_t> iter = iters.first();
  std::vector<std::int64_t> element(space_.dims());
  ref.evaluate_into(iter, element);
  // Every coordinate must stay in the box, not only the row-major index:
  // A[i][j+1] can leave a row yet land on the next one. Each coordinate is
  // affine over the nest's box, so its extremes lie at the box's corners,
  // which are row ends; stays_within checks exactly those, so every row
  // below stays inside [0, elements).
  if (!ref.stays_within(iters, space_)) {
    throw std::out_of_range(
        "InterNodeLayout: reference indexes outside the array");
  }

  // The row-major index is affine in the iteration vector:
  // idx(i) = idx(first) + sum_j coeff_j * (i_j - lower_j). A level with one
  // iteration never steps, so its coefficient stays 0 rather than risk a
  // spurious overflow.
  const std::size_t dims = space_.dims();
  std::vector<std::int64_t> stride(dims, 1);
  for (std::size_t k = dims - 1; k-- > 0;) {
    stride[k] = stride[k + 1] * space_.extent(k + 1);
  }
  std::int64_t start = 0;
  for (std::size_t k = 0; k < dims; ++k) {
    start = checked_add(start, checked_mul(stride[k], element[k]));
  }
  const std::size_t depth = iters.depth();  // >= 1 for every LoopNest
  std::vector<std::int64_t> trip(depth);
  std::vector<std::int64_t> coeff(depth, 0);
  for (std::size_t j = 0; j < depth; ++j) {
    trip[j] = iters.bound(j).trip_count();
    if (trip[j] == 1) continue;
    for (std::size_t k = 0; k < dims; ++k) {
      coeff[j] = checked_add(
          coeff[j], checked_mul(stride[k], ref.access_matrix().at(k, j)));
    }
  }

  // Each innermost row is an arithmetic progression of `row_len` indices
  // at step `row_step`; an odometer over the outer levels gives each row's
  // first index.
  const std::size_t outer = depth - 1;
  const std::int64_t row_len = trip[outer];
  const std::int64_t row_step = coeff[outer];
  const std::int64_t row_span = checked_mul(row_step, row_len - 1);
  const std::uint64_t gap = row_step < 0
                                ? std::uint64_t{0} -
                                      static_cast<std::uint64_t>(row_step)
                                : static_cast<std::uint64_t>(row_step);
  AffineOdometer rows{std::span(coeff).first(outer),
                      std::span(trip).first(outer), start};
  const auto set_bit = [this](std::uint64_t u) {
    words_[u / 64].set(std::uint64_t{1} << (u % 64));
  };
  do {
    start = rows.value();
    const std::uint64_t first =
        static_cast<std::uint64_t>(row_step < 0 ? start + row_span : start);
    if (gap == 0) {
      set_bit(first);
    } else if (gap == 1) {
      const std::uint64_t end = first + static_cast<std::uint64_t>(row_len);
      for (std::uint64_t u = first; u < end;) {
        const std::uint64_t take =
            std::min<std::uint64_t>(64 - u % 64, end - u);
        const std::uint64_t ones =
            take == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << take) - 1;
        words_[u / 64].set(ones << (u % 64));
        u += take;
      }
    } else {
      std::uint64_t u = first;
      for (std::int64_t t = 0; t < row_len; ++t, u += gap) set_bit(u);
    }
  } while (rows.next());
}

InterNodeLayout::InterNodeLayout(const ir::Program& program,
                                 ir::ArrayId array,
                                 const ArrayPartitioning& partitioning,
                                 const parallel::ParallelSchedule& schedule)
    : space_(program.array(array).space()), partitioning_(partitioning) {
  if (!partitioning_.partitioned) {
    throw std::invalid_argument("InterNodeLayout: array not partitioned");
  }
  if (partitioning_.alpha == 0) {
    throw std::invalid_argument("InterNodeLayout: zero parallel stride");
  }
  if (partitioning_.alpha < 0) {
    // Step I normalizes the sign (finalize_partitioning); the owner scan
    // relies on s growing with the parallel-loop coordinate.
    throw std::invalid_argument("InterNodeLayout: negative parallel stride");
  }
  if (partitioning_.hyperplane.size() != space_.dims()) {
    throw std::invalid_argument("InterNodeLayout: hyperplane dimension");
  }
  decomp_ = schedule.decomposition(partitioning_.primary_nest);
  const std::uint64_t elements =
      static_cast<std::uint64_t>(space_.element_count());
  words_.assign(static_cast<std::size_t>((elements + 63) / 64), RankWord{});

  // Pass 1: the access image of every reference of every nest (Algorithm 1
  // iterates "each data element accessed by thread j"), marked row by row.
  for (const auto& nest : program.nests()) {
    for (const auto& ref : nest.references()) {
      if (ref.array == array) mark_access_image(nest.iterations(), ref.map);
    }
  }
  // Ranks, checked before each is stored: a rank is at most the touched
  // count, which must fit a 32-bit slot index.
  std::uint64_t touched = 0;
  for (RankWord& word : words_) {
    word.rank = static_cast<std::uint32_t>(touched);
    touched += static_cast<std::uint64_t>(std::popcount(word.bits()));
    if (touched > kMaxTouched) {
      throw std::length_error(
          "InterNodeLayout: more than 2^32 - 1 touched elements");
    }
  }
  // Checked: every s of the box, and so every partial sum of the scan,
  // fits. So do the blocks' bounds in s: the primary reference reaches
  // s = alpha * lower + beta at each block's lower end.
  (void)hyperplane_range(partitioning_.hyperplane, space_);
  s_blocks_ = decomp_.scaled(partitioning_.alpha, partitioning_.beta);
}

InterNodeLayout::InterNodeLayout(const ir::Program& program,
                                 ir::ArrayId array,
                                 const ArrayPartitioning& partitioning,
                                 const parallel::ParallelSchedule& schedule,
                                 std::vector<PatternLayer> layers,
                                 std::vector<std::size_t> leaf_cache_of_thread,
                                 std::uint64_t block_elems)
    : InterNodeLayout(program, array, partitioning, schedule) {
  std::vector<std::int64_t> s;
  InterNodeCensus census = take_census(
      schedule.thread_count(),
      static_cast<std::uint64_t>(program.array(array).element_size()),
      std::move(layers), std::move(leaf_cache_of_thread), block_elems, &s);
  pattern_ = std::move(census.pattern);
  patterned_slots_ = census.patterned_slots;
  place_slots(std::move(s), schedule.thread_count());
}

InterNodeCensus InterNodeLayout::census(
    const ir::Program& program, ir::ArrayId array,
    const ArrayPartitioning& partitioning,
    const parallel::ParallelSchedule& schedule,
    std::vector<PatternLayer> layers,
    std::vector<std::size_t> leaf_cache_of_thread, std::uint64_t block_elems) {
  const InterNodeLayout image(program, array, partitioning, schedule);
  return image.take_census(
      schedule.thread_count(),
      static_cast<std::uint64_t>(program.array(array).element_size()),
      std::move(layers), std::move(leaf_cache_of_thread), block_elems,
      nullptr);
}

InterNodeCensus InterNodeLayout::take_census(
    std::size_t threads, std::uint64_t element_size,
    std::vector<PatternLayer> layers,
    std::vector<std::size_t> leaf_cache_of_thread, std::uint64_t block_elems,
    std::vector<std::int64_t>* s) const {
  InterNodeCensus out;
  if (s != nullptr) {
    const std::uint64_t touched =
        words_.empty() ? 0
                       : std::uint64_t{words_.back().rank} +
                             static_cast<std::uint64_t>(
                                 std::popcount(words_.back().bits()));
    s->resize(static_cast<std::size_t>(touched));
    out.share = count_shares<true>(threads, s->data());
  } else {
    out.share = count_shares<false>(threads, nullptr);
  }

  // Chunk size: Step II's S1/l, capped at the largest per-thread touched
  // share so small or sparse arrays stay dense (block-aligned).
  const std::uint64_t max_share = std::max<std::uint64_t>(
      1, *std::max_element(out.share.begin(), out.share.end()));
  const std::uint64_t cap =
      (max_share + block_elems - 1) / block_elems * block_elems;
  out.pattern = ChunkPattern(std::move(layers), threads, element_size,
                             std::move(leaf_cache_of_thread), cap);

  // The slot limit, in closed form. From one chunk to the next,
  // chunk_start grows by at least P_1 >= c (P_{i+1} = fanin * t_i * P_i
  // >= t_i * P_i, so a carry into layer i+1 outweighs the rewind of layer
  // i), so a thread's largest slot is that of its last element.
  const std::uint64_t c = out.pattern.chunk_elements();
  std::uint64_t patterned = 0;
  for (parallel::ThreadId t = 0; t < threads; ++t) {
    if (out.share[t] == 0) continue;
    const std::uint64_t last = out.share[t] - 1;
    const std::uint64_t slot = out.pattern.chunk_start(t, last / c) + last % c;
    if (slot > kMaxSlot) {
      throw std::length_error("InterNodeLayout: a slot reaches 2^32");
    }
    patterned = std::max(patterned, slot + 1);
  }
  out.patterned_slots = static_cast<std::int64_t>(patterned);
  return out;
}

template <bool kRecordS>
std::vector<std::uint64_t> InterNodeLayout::count_shares(
    std::size_t threads, std::int64_t* s_of_rank) const {
  const auto& d = partitioning_.hyperplane;
  const auto& blocks = decomp_.blocks();
  std::vector<std::uint64_t> share(threads, 0);

  // The owner changes only where s leaves the current block's interval.
  // The scan's state is plain locals, so the s stores need not spill it.
  std::size_t block = 0;
  parallel::ScaledBlocks::Interval in = s_blocks_.interval(0);
  std::uint64_t run = 0;  // elements counted for `block` since it changed

  // Pass 2: one row-major scan of the touched elements, so the k-th one
  // found has rank k. An odometer over the leading coordinates keeps
  // s = d.a at each row's start; along the row s moves by d_last per
  // element, and a row with d_last = 0 (three fifths of the suite's
  // touched elements; DESIGN.md §5 item 2) is counted by popcount.
  const std::size_t outer = space_.dims() - 1;
  const std::int64_t d_last = d[outer];
  AffineOdometer rows{std::span(d).first(outer),
                      std::span(space_.extents()).first(outer), 0};
  const std::uint64_t row_len =
      static_cast<std::uint64_t>(space_.extent(outer));
  std::uint64_t base = 0;
  std::size_t rank = 0;
  do {
    const std::int64_t s_row = rows.value();
    const std::uint64_t end = base + row_len;
    for (std::uint64_t u = base; u < end;) {
      const std::uint64_t take =
          std::min<std::uint64_t>(64 - u % 64, end - u);
      std::uint64_t bits = words_[u / 64].bits() >> (u % 64);
      if (take < 64) bits &= (std::uint64_t{1} << take) - 1;
      if (d_last == 0) {
        if (bits != 0) {
          if (s_row < in.lo || s_row > in.hi) {
            share[blocks[block].thread] += std::exchange(run, 0);
            block = s_blocks_.block(s_row);
            in = s_blocks_.interval(block);
          }
          const auto count = static_cast<std::size_t>(std::popcount(bits));
          run += count;
          if constexpr (kRecordS) {
            std::fill_n(s_of_rank + rank, count, s_row);
            rank += count;
          }
        }
      } else {
        for (; bits != 0; bits &= bits - 1) {
          const std::int64_t a_last = static_cast<std::int64_t>(
              u - base + static_cast<std::uint64_t>(std::countr_zero(bits)));
          const std::int64_t s = s_row + d_last * a_last;
          if (s < in.lo || s > in.hi) {
            share[blocks[block].thread] += std::exchange(run, 0);
            block = s_blocks_.block(s);
            in = s_blocks_.interval(block);
          }
          ++run;
          if constexpr (kRecordS) s_of_rank[rank++] = s;
        }
      }
      u += take;
    }
    base = end;
  } while (rows.next());
  share[blocks[block].thread] += run;
  return share;
}

void InterNodeLayout::place_slots(std::vector<std::int64_t> s,
                                  std::size_t threads) {
  // Ranks in (s, idx) order: elements arrived in idx order, so a stable
  // sort on s alone suffices. The block index of s is monotone in s, so
  // each decomposition block's elements form one run of `order`, found by
  // binary search.
  const auto [s_lo, s_hi] = hyperplane_range(partitioning_.hyperplane, space_);
  const std::vector<std::uint32_t> order = stable_order_by_key(s, s_lo, s_hi);
  const auto block_at = [&](std::size_t pos) {
    return s_blocks_.block(s[order[pos]]);
  };
  struct Run {
    std::size_t begin;
    std::size_t end;
    parallel::ThreadId thread;
  };
  std::vector<Run> runs;
  for (std::size_t begin = 0; begin < order.size();) {
    const std::size_t block = block_at(begin);
    std::size_t lo = begin + 1;
    std::size_t hi = order.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (block_at(mid) == block) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    runs.push_back({begin, lo, decomp_.blocks()[block].thread});
    begin = lo;
  }
  s = {};  // freed before the slots are allocated

  // Pass 3: chunk addressing. A thread's k-th element in (s, idx) order
  // takes chunk_start(t, k / c) + k % c, with one chunk_start per chunk;
  // the census has checked the largest against the 32-bit limit.
  struct Cursor {
    std::uint64_t chunk = 0;
    std::uint64_t within = 0;
    std::uint64_t start = 0;
  };
  std::vector<Cursor> cursors(threads);
  const std::uint64_t c = pattern_.chunk_elements();
  slots_.resize(order.size());
  for (const Run& run : runs) {
    Cursor& at = cursors[run.thread];
    for (std::size_t i = run.begin; i < run.end; ++i) {
      if (at.within == 0) at.start = pattern_.chunk_start(run.thread, at.chunk);
      slots_[order[i]] = static_cast<std::uint32_t>(at.start + at.within);
      if (++at.within == c) {
        at.within = 0;
        ++at.chunk;
      }
    }
  }
}

std::int64_t InterNodeLayout::slot(
    std::span<const std::int64_t> element) const {
  const std::int64_t idx = space_.linearize_row_major(element);
  const std::uint64_t u = static_cast<std::uint64_t>(idx);
  if (u / 64 < words_.size() && ((words_[u / 64].bits() >> (u % 64)) & 1)) {
    return slots_[rank_of(u)];
  }
  // Untouched element: lives in the canonical-order tail past the
  // patterned region (kept total and injective for robustness; the
  // program's own traces never reach here).
  return patterned_slots_ + idx;
}

std::int64_t InterNodeLayout::file_slots() const {
  // Upper bound covering the untouched tail.
  return patterned_slots_ + space_.element_count();
}

parallel::ThreadId InterNodeLayout::owner(
    std::span<const std::int64_t> element) const {
  return owner_of_s(linalg::dot(partitioning_.hyperplane, element));
}

std::string InterNodeLayout::describe() const {
  std::string out = "inter-node " + space_.to_string() + " d=(";
  for (std::size_t k = 0; k < partitioning_.hyperplane.size(); ++k) {
    if (k > 0) out += ",";
    out += std::to_string(partitioning_.hyperplane[k]);
  }
  out += ") " + pattern_.describe();
  return out;
}

std::vector<std::size_t> leaf_cache_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology, LayerMask mask) {
  std::vector<std::size_t> leaf(schedule.thread_count());
  for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    const storage::NodeId io =
        topology.io_node_of(schedule.mapping().node_of(t));
    leaf[t] = mask == LayerMask::kStorageOnly
                  ? topology.storage_node_of_io(io)
                  : io;
  }
  return leaf;
}

FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask,
                                     const PartitioningOptions& options) {
  return build_internode_layout(
      program, array, partition_array(program, array, schedule, options),
      schedule, topology, mask);
}

namespace {

/// Elements per storage block for `array` (at least 1): the granularity
/// the chunk cap rounds up to.
std::uint64_t block_elements(const ir::Program& program, ir::ArrayId array,
                             const storage::StorageTopology& topology) {
  return std::max<std::uint64_t>(
      1, topology.config().block_size /
             static_cast<std::uint64_t>(program.array(array).element_size()));
}

}  // namespace

FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const ArrayPartitioning& partitioning,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask) {
  if (!partitioning.partitioned) return nullptr;
  return std::make_unique<InterNodeLayout>(
      program, array, partitioning, schedule, pattern_layers(topology, mask),
      leaf_cache_of_threads(schedule, topology, mask),
      block_elements(program, array, topology));
}

std::optional<InterNodeCensus> internode_census(
    const ir::Program& program, ir::ArrayId array,
    const ArrayPartitioning& partitioning,
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology, LayerMask mask) {
  if (!partitioning.partitioned) return std::nullopt;
  return InterNodeLayout::census(
      program, array, partitioning, schedule, pattern_layers(topology, mask),
      leaf_cache_of_threads(schedule, topology, mask),
      block_elements(program, array, topology));
}

}  // namespace flo::layout
