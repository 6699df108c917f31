#include "storage/karma.hpp"

#include <algorithm>
#include <stdexcept>

namespace flo::storage {

KarmaAllocator::KarmaAllocator(std::vector<RangeHint> hints,
                               std::uint64_t io_capacity_blocks,
                               std::uint64_t storage_capacity_blocks) {
  for (const auto& h : hints) {
    if (h.end_block < h.begin_block) {
      throw std::invalid_argument("KarmaAllocator: inverted range");
    }
  }
  // Marginal gain ordering: densest ranges benefit most from the fastest
  // level. Ties broken by (file, begin) for determinism.
  std::stable_sort(hints.begin(), hints.end(),
                   [](const RangeHint& a, const RangeHint& b) {
                     if (a.accesses_per_block != b.accesses_per_block) {
                       return a.accesses_per_block > b.accesses_per_block;
                     }
                     if (a.file != b.file) return a.file < b.file;
                     return a.begin_block < b.begin_block;
                   });

  std::uint64_t io_left = io_capacity_blocks;
  std::uint64_t storage_left = storage_capacity_blocks;
  FileId max_file = 0;
  for (const auto& h : hints) max_file = std::max(max_file, h.file);
  per_file_.resize(hints.empty() ? 0 : max_file + 1);

  for (const auto& h : hints) {
    CacheLevel level = CacheLevel::kUncached;
    const std::uint64_t size = h.size();
    if (size == 0) continue;
    if (size <= io_left) {
      level = CacheLevel::kIo;
      io_left -= size;
    } else if (size <= storage_left) {
      level = CacheLevel::kStorage;
      storage_left -= size;
    }
    per_file_[h.file].ranges.push_back({h.begin_block, h.end_block, level});
    ++counts_[static_cast<int>(level)];
  }
  for (FileRanges& file : per_file_) {
    std::vector<Assigned>& ranges = file.ranges;
    if (ranges.empty()) continue;
    std::sort(ranges.begin(), ranges.end(),
              [](const Assigned& a, const Assigned& b) {
                return a.begin < b.begin;
              });
    // The narrowest power-of-two bucket that keeps the bucket count at
    // most twice the range count.
    file.base = ranges.front().begin;
    const std::uint64_t span = ranges.back().begin - file.base;
    while ((span >> file.shift) >= 2 * ranges.size()) ++file.shift;
    const std::size_t buckets =
        static_cast<std::size_t>(span >> file.shift) + 1;
    file.first.resize(buckets + 1);
    std::size_t r = 0;
    for (std::size_t b = 0; b <= buckets; ++b) {
      while (r < ranges.size() &&
             ((ranges[r].begin - file.base) >> file.shift) < b) {
        ++r;
      }
      file.first[b] = r;
    }
  }
}

CacheLevel KarmaAllocator::level_of(BlockKey key) const {
  if (key.file >= per_file_.size()) return CacheLevel::kUncached;
  const FileRanges& file = per_file_[key.file];
  if (file.ranges.empty() || key.block < file.base) {
    return CacheLevel::kUncached;
  }
  // The answer is the last range beginning at or before the block. Ranges
  // of earlier buckets all begin before the block and those of later
  // buckets after it, so only the block's own bucket is searched; when
  // none of its ranges begins early enough, the range just before them
  // answers. A block past the last bucket searches an empty slice at the
  // end, which leaves the last range.
  const std::size_t last = file.first.size() - 1;
  const std::size_t b = static_cast<std::size_t>(std::min<std::uint64_t>(
      (key.block - file.base) >> file.shift, last));
  const auto begin = file.ranges.begin();
  auto it = std::upper_bound(
      begin + file.first[b], begin + file.first[std::min(b + 1, last)],
      key.block,
      [](std::uint64_t block, const Assigned& r) { return block < r.begin; });
  // ranges[0] begins at base <= block, so the step back stays in range.
  --it;
  if (key.block < it->end) return it->level;
  return CacheLevel::kUncached;
}

std::size_t KarmaAllocator::ranges_at(CacheLevel level) const {
  return counts_[static_cast<int>(level)];
}

}  // namespace flo::storage
