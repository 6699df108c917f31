// Packed-key binary min-heap: the scheduler of both simulator cores.
//
// A key packs a virtual time and a 64-bit tiebreak into one unsigned
// 128-bit integer: the time's IEEE-754 bits in the high half, the tiebreak
// in the low half. For non-negative doubles the raw bits order exactly
// like the values, so one integer compare orders two keys by (time,
// tiebreak): the clock core packs (clock, thread id), the event queue
// (time, push sequence). That is the one precondition of this header:
// every packed time is a non-negative number, never NaN. It holds because
// virtual clocks start at +0.0 and only ever add timing charges, and every
// timing input is checked finite and non-negative where it enters
// (StorageTopology, FaultConfig, DiskArray, NetworkModel).
//
// The node array keeps two sentinel slots (all-ones keys, above every
// packed key) past the last node. A sift therefore picks the smaller child
// without a bounds branch, and the smallest key below the root is always
// min(node 1, node 2) — the budget a running thread at the root is
// measured against.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace flo::storage {

using HeapKey = unsigned __int128;

/// Above every packed key: its all-ones high half is a NaN pattern, and a
/// packed time is never NaN.
inline constexpr HeapKey kSentinelKey = ~HeapKey{0};

/// Packs (time, low). `time` must be >= 0 and not NaN; adding +0.0 folds
/// -0.0 (whose sign bit would sort it last) onto +0.0.
inline HeapKey pack_key(double time, std::uint64_t low) {
  return (HeapKey{std::bit_cast<std::uint64_t>(time + 0.0)} << 64) | low;
}

inline double key_time(HeapKey key) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 64));
}

inline std::uint64_t key_low(HeapKey key) {
  return static_cast<std::uint64_t>(key);
}

/// Min-heap of `Node`s by packed key. `Node` is HeapKey itself, or a
/// struct whose `key` member is one (its payload travels inline).
template <class Node>
class PackedHeap {
 public:
  PackedHeap() { clear(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The minimum node; undefined when empty.
  const Node& top() const { return nodes_[0]; }

  /// Smallest key below the root (kSentinelKey when the root is alone);
  /// undefined when empty.
  HeapKey runner_up() const {
    return std::min(key_of(nodes_[1]), key_of(nodes_[2]));
  }

  void push(const Node& node) {
    std::size_t hole = size_++;
    nodes_.push_back(sentinel());  // the old first sentinel is the hole
    const HeapKey key = key_of(node);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(key < key_of(nodes_[parent]))) break;
      nodes_[hole] = nodes_[parent];
      hole = parent;
    }
    nodes_[hole] = node;
  }

  /// Removes the minimum node; undefined when empty.
  void pop() {
    const Node last = nodes_[--size_];
    nodes_[size_] = sentinel();
    nodes_.pop_back();
    if (size_ > 0) sift_down(last);
  }

  /// Overwrites the minimum node and restores heap order: one push and one
  /// pop in a single sift. Undefined when empty.
  void replace_top(const Node& node) { sift_down(node); }

  void clear() {
    nodes_.assign(2, sentinel());
    size_ = 0;
  }

 private:
  static HeapKey key_of(const Node& node) {
    if constexpr (std::is_same_v<Node, HeapKey>) {
      return node;
    } else {
      return node.key;
    }
  }

  static Node sentinel() {
    if constexpr (std::is_same_v<Node, HeapKey>) {
      return kSentinelKey;
    } else {
      Node node{};
      node.key = kSentinelKey;
      return node;
    }
  }

  /// Sifts `node` down from the root. The sentinel at nodes_[size_] makes
  /// the right child always readable, so the child pick is an add of a
  /// compare result, not a branch.
  void sift_down(const Node& node) {
    const HeapKey key = key_of(node);
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= size_) break;
      child += static_cast<std::size_t>(key_of(nodes_[child + 1]) <
                                        key_of(nodes_[child]));
      if (!(key_of(nodes_[child]) < key)) break;
      nodes_[hole] = nodes_[child];
      hole = child;
    }
    nodes_[hole] = node;
  }

  std::vector<Node> nodes_;  ///< size_ heap nodes, then two sentinels
  std::size_t size_ = 0;
};

}  // namespace flo::storage
