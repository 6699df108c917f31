#include "parallel/iteration_blocks.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace flo::parallel {

BlockDecomposition::BlockDecomposition(const poly::IterationSpace& space,
                                       std::size_t parallel_dim,
                                       std::size_t thread_count,
                                       std::size_t block_count)
    : thread_count_(thread_count), parallel_dim_(parallel_dim) {
  if (thread_count == 0) {
    throw std::invalid_argument("BlockDecomposition: zero threads");
  }
  if (parallel_dim >= space.depth()) {
    throw std::invalid_argument("BlockDecomposition: parallel_dim out of range");
  }
  const auto& bound = space.bound(parallel_dim);
  const std::int64_t trip = bound.trip_count();
  if (block_count == 0) block_count = thread_count;
  // Never create more blocks than iterations.
  block_count = static_cast<std::size_t>(
      std::min<std::int64_t>(trip, static_cast<std::int64_t>(block_count)));
  dim_lower_ = bound.lower;
  block_span_ = (trip + static_cast<std::int64_t>(block_count) - 1) /
                static_cast<std::int64_t>(block_count);

  for (std::size_t b = 0; b < block_count; ++b) {
    const std::int64_t lo =
        bound.lower + static_cast<std::int64_t>(b) * block_span_;
    if (lo > bound.upper) break;  // trailing empty blocks are dropped
    const std::int64_t hi = std::min(bound.upper, lo + block_span_ - 1);
    blocks_.push_back(
        {lo, hi, static_cast<ThreadId>(b % thread_count)});
  }
}

std::vector<IterationBlock> BlockDecomposition::blocks_of(
    ThreadId thread) const {
  std::vector<IterationBlock> out;
  for (const auto& block : blocks_) {
    if (block.thread == thread) out.push_back(block);
  }
  return out;
}

std::size_t BlockDecomposition::block_of(std::int64_t iu) const {
  if (blocks_.empty()) throw std::logic_error("block_of: empty decomposition");
  std::int64_t idx = (iu - dim_lower_) / block_span_;
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(blocks_.size()) - 1);
  return static_cast<std::size_t>(idx);
}

ThreadId BlockDecomposition::thread_of(std::int64_t iu) const {
  return blocks_[block_of(iu)].thread;
}

ScaledBlocks BlockDecomposition::scaled(std::int64_t scale,
                                        std::int64_t offset) const {
  if (blocks_.empty()) throw std::logic_error("scaled: empty decomposition");
  if (scale <= 0) throw std::invalid_argument("scaled: non-positive scale");
  // iu = floor((v - offset) / scale) grows with v and block_of with iu, so
  // block b owns v from scale * lower_b + offset to one below
  // scale * lower_{b+1} + offset; both ends must fit.
  const auto v_at = [&](std::int64_t iu) {
    const __int128 v = static_cast<__int128>(scale) * iu + offset;
    if (v <= std::numeric_limits<std::int64_t>::min() ||
        v > std::numeric_limits<std::int64_t>::max()) {
      throw std::overflow_error("scaled: a block boundary overflows");
    }
    return static_cast<std::int64_t>(v);
  };
  ScaledBlocks out;
  const std::size_t n = blocks_.size();
  out.owns_.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    out.owns_[b] = {b == 0 ? std::numeric_limits<std::int64_t>::min()
                           : v_at(blocks_[b].lower),
                    b + 1 == n ? std::numeric_limits<std::int64_t>::max()
                               : v_at(blocks_[b + 1].lower) - 1};
  }
  if (n < 2) return out;
  out.edge_lo_ = out.owns_[1].lo;
  out.edge_hi_ = out.owns_[n - 1].lo;
  if (n < 3) return out;
  // Every block but the last spans block_span_ iterations (constructor),
  // so blocks 1 .. n-2 share block 1's v-width. Differences of v are taken
  // unsigned: they may pass 2^63.
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::uint64_t width = u(out.owns_[1].hi) - u(out.owns_[1].lo) + 1;
  out.shift_ = static_cast<int>(std::bit_width(width)) - 1;
  out.first_.resize(
      static_cast<std::size_t>((u(out.edge_hi_) - u(out.edge_lo_)) >>
                               out.shift_) +
      1);
  std::size_t b = 1;
  for (std::size_t k = 0; k < out.first_.size(); ++k) {
    const auto first = static_cast<std::int64_t>(
        u(out.edge_lo_) + (std::uint64_t{k} << out.shift_));
    while (first > out.owns_[b].hi) ++b;
    out.first_[k] = b;
  }
  return out;
}

void BlockDecomposition::reassign(const std::vector<ThreadId>& assignment) {
  if (assignment.size() != blocks_.size()) {
    throw std::invalid_argument("reassign: wrong assignment length");
  }
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (assignment[b] >= thread_count_) {
      throw std::invalid_argument("reassign: thread id out of range");
    }
    blocks_[b].thread = assignment[b];
  }
}

std::string BlockDecomposition::to_string() const {
  std::ostringstream os;
  os << blocks_.size() << " blocks on dim " << (parallel_dim_ + 1) << ": ";
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (b > 0) os << ", ";
    os << "[" << blocks_[b].lower << ".." << blocks_[b].upper << "]->P"
       << blocks_[b].thread;
  }
  return os.str();
}

}  // namespace flo::parallel
