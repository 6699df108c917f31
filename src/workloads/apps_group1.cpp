// Group 1 applications (Fig. 7(a)): no benefit from inter-node layout.
// cc-ver-1 and s3asim already enjoy very good cache hit rates; twer's
// equally-weighted conflicting references prevent the compiler from
// choosing a good layout (Section 5.2).
#include "workloads/common.hpp"

namespace flo::workloads {

using namespace detail;

Workload make_cc_ver_1() {
  // Protein structure prediction, implementation 1: scoring sweeps over a
  // small profile matrix (cache-resident) plus a shared lookup table that
  // exceeds one I/O cache (the storage layer absorbs those misses).
  ir::ProgramBuilder pb("cc-ver-1");
  add_hot_pair(pb, "prof", 96, 96, /*sweep_repeat=*/120, /*scan_repeat=*/120);
  add_shared_warm(pb, "tab", 192, 256, /*repeat=*/16);
  add_seq_stream(pb, "scores", 256, /*repeat=*/2, /*with_output=*/true);
  return {"cc-ver-1",
          "protein structure prediction (v1): cache-resident scoring",
          /*group=*/1,
          /*master_slave=*/false,
          {6.1, 4.4, "3 min 21 s", 0.88, 0.91},
          pb.build()};
}

Workload make_s3asim() {
  // Sequence-similarity search I/O benchmark: database fragments are read
  // with good locality. Every array admits a Step-I partitioning (the
  // paper notes all of s3asim's arrays were optimized).
  ir::ProgramBuilder pb("s3asim");
  add_hot_pair(pb, "idx", 96, 96, /*sweep_repeat=*/70, /*scan_repeat=*/70);
  add_medium_transposed(pb, "frags", 160, 512, /*repeat=*/1);
  add_conflicted(pb, "chain", 384, /*repeat=*/1);
  add_seq_stream(pb, "db", 512, /*repeat=*/3);
  add_seq_stream(pb, "outq", 256, /*repeat=*/2);
  return {"s3asim",
          "sequence-similarity search: sequential database scans",
          1,
          false,
          {7.4, 6.6, "3 min 36 s", 0.92, 0.94},
          pb.build()};
}

Workload make_twer() {
  // Twister simulation kernel: 17 disk-resident arrays (the largest count
  // in the suite); the field arrays are referenced both A[i,j] and A[j,i]
  // with equal weight at different points of the time step, so Step I can
  // satisfy only half of the accesses ("overly-conflicting requests ...
  // prevent the compiler from choosing a good file layout").
  ir::ProgramBuilder pb("twer");
  // stem + k, appended in place: GCC 12 at -O3 reports a false -Wrestrict
  // for `"w" + std::to_string(k)` inlined here.
  const auto numbered = [](const char* stem, int k) {
    std::string name(stem);
    name += std::to_string(k);
    return name;
  };
  for (int k = 0; k < 6; ++k) {
    add_conflicted(pb, numbered("w", k), 384, /*repeat=*/1);
  }
  for (int k = 0; k < 4; ++k) {
    add_hot_pair(pb, numbered("aux", k), 96, 96, 10, 10);
  }
  add_shared_warm(pb, "bc", 224, 512, /*repeat=*/4);
  add_shared_strided(pb, "vol", /*segments=*/4, /*repeat=*/4);
  add_seq_stream(pb, "chk", 512, /*repeat=*/1);
  for (int k = 0; k < 4; ++k) {
    // Per-time-step scratch dumps: four more small disk-resident arrays,
    // bringing the count to the paper's 17.
    add_seq_stream(pb, numbered("dump", k), 256, /*repeat=*/1);
  }
  return {"twer",
          "twister simulation kernel: conflicting field accesses, 17 arrays",
          1,
          false,
          {29.0, 44.9, "5 min 27 s", 0.94, 0.98},
          pb.build()};
}

}  // namespace flo::workloads
