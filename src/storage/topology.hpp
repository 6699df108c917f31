// Target architecture description: the three-tier compute / I/O / storage
// hierarchy of Fig. 1 with the Table 1 parameters.
//
// All capacity-like defaults are Table 1 values divided by `kDefaultScale`
// so experiments run in seconds; the blocks-per-cache and cache-size ratios
// that drive the paper's effects are preserved (see DESIGN.md §5.4).
#pragma once

#include <cstdint>
#include <string>

#include "storage/fault_model.hpp"
#include "storage/qos.hpp"

namespace flo::storage {

using NodeId = std::uint32_t;
using FileId = std::uint32_t;

/// Seconds of service time for each fixed-latency component of the stack.
// Calibrated so one I/O-cache hit costs ~0.5 ms end to end, a storage-cache
// hit ~1 ms and a scattered disk access ~6-12 ms — the relative costs of a
// 2012-era gigabit cluster I/O stack. Execution-time *ratios* (the paper's
// reported quantity) depend on these ratios, not the absolute values.
struct LatencyModel {
  double cpu_per_element = 50e-9;    ///< compute per array-element access
  double net_compute_io = 200e-6;    ///< compute node <-> I/O node hop
  double io_cache_hit = 300e-6;      ///< I/O-node cache service
  double net_io_storage = 200e-6;    ///< I/O node <-> storage node hop
  double storage_cache_hit = 600e-6; ///< storage-node cache service
  double demotion_cost = 300e-6;     ///< DEMOTE: shipping a block down
};

/// Mechanical disk service model (per storage node).
struct DiskModel {
  double min_seek = 2.5e-3;        ///< track-to-track seek (s)
  double max_seek = 6.0e-3;        ///< full-stroke seek (s)
  std::uint32_t rpm = 10000;       ///< Table 1
  double bandwidth = 100.0e6;      ///< sustained B/s
  std::uint64_t capacity_blocks = 1ull << 22;  ///< LBA space per disk

  // FFS-style controller knobs (SNIPPETS.md fast-file-system notes; both
  // default off so baseline results stay byte-identical). They exist to
  // separate *layout* wins from *controller* wins in ablations
  // (bench_micro BM_DiskKnobAblation): a layout win survives with the
  // knobs on, a prefetch win disappears when the layout already streams.

  /// Track-buffer readahead: a read landing within this many blocks of
  /// the current head position streams from the buffer at pure transfer
  /// cost — no seek, no rotation (0 disables; <=1 is the implicit
  /// sequential window the base model already grants).
  std::uint32_t readahead_window = 0;

  /// Cylinder-group allocation locality: seeks between LBAs in the same
  /// group of this many blocks cost min_seek regardless of distance,
  /// modeling FFS's policy of keeping related blocks in one cylinder
  /// group so "seeks are short and rotational" (0 disables).
  std::uint64_t cylinder_group_blocks = 0;

  friend bool operator==(const DiskModel&, const DiskModel&) = default;
};

/// System configuration (Table 1). One disk per storage node.
struct TopologyConfig {
  std::size_t compute_nodes = 64;
  std::size_t io_nodes = 16;
  std::size_t storage_nodes = 4;

  std::uint64_t block_size = 2048;          ///< cache unit == stripe size (B)
  std::uint64_t io_cache_bytes = 128 << 10; ///< per I/O node
  std::uint64_t storage_cache_bytes = 256 << 10;  ///< per storage node

  bool io_cache_enabled = true;
  bool storage_cache_enabled = true;

  /// Hardware readahead at the storage nodes: when a disk read continues a
  /// sequential per-disk stream, the next `prefetch_depth` local stripes
  /// are staged into that node's storage cache (0 disables). The paper
  /// notes the optimized linear layouts "can also help improve the
  /// effectiveness of hardware I/O prefetching" — `flo_bench --filter
  /// ablation_prefetch` measures exactly that.
  std::uint32_t prefetch_depth = 0;

  /// Write-back modeling (off by default: writes behave like reads, the
  /// paper's read-dominated assumption). When on, writes mark blocks dirty
  /// in the I/O caches; evicting a dirty block ships it down (and
  /// eventually to disk), charged to the evicting request.
  bool model_writes = false;

  LatencyModel latency;
  DiskModel disk;

  /// Fault injection (storage/fault_model.hpp). Disabled by default; a
  /// disabled config takes the exact pre-fault simulator paths, so
  /// baseline results stay byte-identical.
  FaultConfig fault;

  /// Tenant QoS (storage/qos.hpp): weighted cache partitioning and the
  /// pluggable disk scheduler. Disabled by default; a disabled config
  /// takes the exact pre-QoS simulator paths, so baseline results stay
  /// byte-identical.
  QosConfig qos;

  /// Returns the paper's Table 1 configuration scaled down for fast
  /// simulation. Block size is divided by `block_scale` and cache capacities
  /// by `capacity_scale`; node counts are kept. With both scales 1 this
  /// reproduces Table 1 exactly. The defaults shrink caches to 64/128
  /// blocks so that the paper's capacity-pressure effects appear with
  /// workloads that simulate in milliseconds (DESIGN.md §5.4): what drives
  /// the results is the footprint/capacity *ratio*, which the workload
  /// models scale along with this.
  static TopologyConfig paper_default(std::uint64_t capacity_scale = 8192,
                                      std::uint64_t block_scale = 64);
};

/// Validated topology with derived routing helpers. The constructor
/// throws std::invalid_argument on a config no run could use: zero node
/// counts or block size, node counts that do not nest, a cache smaller than
/// one block, a negative or non-finite latency or seek time, an invalid
/// FaultConfig, or an outage on a node that does not exist.
class StorageTopology {
 public:
  StorageTopology() = default;
  explicit StorageTopology(TopologyConfig config);

  const TopologyConfig& config() const { return config_; }

  /// The I/O node serving a compute node (contiguous grouping, as in Fig. 1:
  /// every compute_nodes/io_nodes consecutive compute nodes share one).
  NodeId io_node_of(NodeId compute_node) const;

  /// Compute nodes per I/O node (the paper's l when one thread per node).
  std::size_t compute_per_io() const;

  /// I/O nodes per storage node (the paper's N_2).
  std::size_t io_per_storage() const;

  /// The storage node a given I/O node's traffic is associated with under
  /// the contiguous grouping (used for pattern construction, not striping).
  NodeId storage_node_of_io(NodeId io_node) const;

  /// Capacity of one I/O cache in blocks.
  std::size_t io_cache_blocks() const;

  /// Capacity of one storage cache in blocks.
  std::size_t storage_cache_blocks() const;

  std::string describe() const;

 private:
  TopologyConfig config_;
};

}  // namespace flo::storage
