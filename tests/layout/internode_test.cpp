#include "layout/internode.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <typeinfo>
#include <utility>

#include "ir/builder.hpp"
#include "linalg/int_matrix.hpp"
#include "storage/topology.hpp"
#include "testing/generator.hpp"
#include "util/rng.hpp"

namespace flo::layout {
namespace {

storage::StorageTopology small_topology() {
  storage::TopologyConfig c;
  c.compute_nodes = 8;
  c.io_nodes = 4;
  c.storage_nodes = 2;
  c.block_size = 64;           // 8 elements of 8 bytes
  c.io_cache_bytes = 1024;     // 16 blocks
  c.storage_cache_bytes = 2048;
  return storage::StorageTopology(c);
}

ir::Program transposed_program(std::int64_t n = 32) {
  return ir::ProgramBuilder("p")
      .array("A", {n, n})
      .nest("sweep", {{0, n - 1}, {0, n - 1}}, 0)
      .read("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

/// add_opt_diagonal's shape: a = (i1 + 65*i2, i1 + i2) over an n x n nest
/// touches n^2 of the 132 n^2 declared elements.
ir::Program diagonal_band_program(std::int64_t n) {
  return ir::ProgramBuilder("diagonal")
      .array("D", {66 * n, 2 * n})
      .nest("diag", {{0, n - 1}, {0, n - 1}}, 0)
      .read("D", {{1, 65}, {1, 1}})
      .done()
      .build();
}

/// A strided reference A[4*i1][i2]: one row in four is touched.
ir::Program sparse_rows_program() {
  return ir::ProgramBuilder("sparse")
      .array("A", {128, 32})
      .nest("n", {{0, 31}, {0, 31}}, 0)
      .read("A", {{4, 0}, {0, 1}})
      .done()
      .build();
}

const InterNodeLayout& as_internode(const FileLayoutPtr& layout) {
  const auto* internode = dynamic_cast<const InterNodeLayout*>(layout.get());
  if (internode == nullptr) throw std::logic_error("not an inter-node layout");
  return *internode;
}

/// Algorithm 1's packing written out plainly: collect every element some
/// reference touches, group them by the thread owning their parallel-loop
/// coordinate, sort each group by (s, row-major index) and give the k-th
/// element chunk_start(t, k / c) + k % c. Untouched elements follow the
/// patterned region in row-major order. Indexed by row-major index.
std::vector<std::int64_t> reference_slots(
    const ir::Program& p, const parallel::ParallelSchedule& schedule,
    const InterNodeLayout& layout, ir::ArrayId array) {
  const auto& space = p.array(array).space();
  std::set<std::int64_t> touched;
  for (const auto& nest : p.nests()) {
    std::vector<std::int64_t> iter = nest.iterations().first();
    do {
      for (const auto& ref : nest.references()) {
        if (ref.array != array) continue;
        touched.insert(space.linearize_row_major(ref.map.evaluate(iter)));
      }
    } while (nest.iterations().next(iter));
  }
  const ArrayPartitioning& part = layout.partitioning();
  const auto& decomp = schedule.decomposition(part.primary_nest);
  std::map<parallel::ThreadId, std::vector<std::pair<std::int64_t,
                                                     std::int64_t>>>
      by_thread;
  for (const std::int64_t idx : touched) {
    const std::int64_t s =
        linalg::dot(part.hyperplane, space.delinearize_row_major(idx));
    std::int64_t iu = (s - part.beta) / part.alpha;
    if ((s - part.beta) % part.alpha != 0 && s < part.beta) --iu;
    by_thread[decomp.thread_of(iu)].push_back({s, idx});
  }
  std::vector<std::int64_t> slots(
      static_cast<std::size_t>(space.element_count()), -1);
  std::int64_t patterned_end = 0;
  const std::uint64_t c = layout.pattern().chunk_elements();
  for (auto& [thread, items] : by_thread) {
    std::sort(items.begin(), items.end());
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto slot = static_cast<std::int64_t>(
          layout.pattern().chunk_start(thread, k / c) + k % c);
      slots[static_cast<std::size_t>(items[k].second)] = slot;
      patterned_end = std::max(patterned_end, slot + 1);
    }
  }
  for (std::size_t idx = 0; idx < slots.size(); ++idx) {
    if (slots[idx] < 0) {
      slots[idx] = patterned_end + static_cast<std::int64_t>(idx);
    }
  }
  return slots;
}

/// Every declared element of `array` gets reference_slots' slot, and the
/// touched count is the size of the patterned region's population.
void expect_reference_packing(const ir::Program& p,
                              const parallel::ParallelSchedule& schedule,
                              const InterNodeLayout& layout,
                              ir::ArrayId array) {
  const auto expected = reference_slots(p, schedule, layout, array);
  const auto& space = p.array(array).space();
  std::size_t touched = 0;
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const std::int64_t slot = layout.slot(space.delinearize_row_major(i));
    EXPECT_EQ(slot, expected[static_cast<std::size_t>(i)]) << "element " << i;
    if (slot < layout.file_slots() - space.element_count()) ++touched;
  }
  EXPECT_EQ(layout.touched_count(), touched);
}

TEST(InterNodeLayoutTest, SlotsAreInjective) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto layout =
      build_internode_layout(p, 0, schedule, small_topology());
  ASSERT_NE(layout, nullptr);
  const auto& space = p.array(0).space();
  std::set<std::int64_t> slots;
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const std::int64_t slot = layout->slot(space.delinearize_row_major(i));
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, layout->file_slots());
    EXPECT_TRUE(slots.insert(slot).second) << "duplicate slot " << slot;
  }
}

TEST(InterNodeLayoutTest, OwnershipFollowsColumnSlabs) {
  // Transposed access parallel on i1: thread t owns column slab t.
  const auto p = transposed_program(32);
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  ASSERT_NE(generic, nullptr);
  const auto* layout =
      dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  // Column c belongs to thread c / 4 (32 columns over 8 threads).
  for (std::int64_t r = 0; r < 32; ++r) {
    for (std::int64_t c = 0; c < 32; ++c) {
      EXPECT_EQ(layout->owner(std::vector<std::int64_t>{r, c}),
                static_cast<parallel::ThreadId>(c / 4))
          << "element (" << r << ", " << c << ")";
    }
  }
}

TEST(InterNodeLayoutTest, ThreadDataIsChunkContiguous) {
  const auto p = transposed_program(32);
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  const std::uint64_t c = layout->pattern().chunk_elements();

  // Collect each thread's slots; they must exactly fill chunks whose
  // starts match Algorithm 1's closed form.
  std::map<parallel::ThreadId, std::set<std::int64_t>> slots_of;
  const auto& space = p.array(0).space();
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const auto point = space.delinearize_row_major(i);
    slots_of[layout->owner(point)].insert(layout->slot(point));
  }
  for (const auto& [thread, slots] : slots_of) {
    std::uint64_t x = 0;
    auto it = slots.begin();
    while (it != slots.end()) {
      const std::uint64_t start = layout->pattern().chunk_start(thread, x);
      for (std::uint64_t e = 0; e < c && it != slots.end(); ++e, ++it) {
        EXPECT_EQ(static_cast<std::uint64_t>(*it), start + e)
            << "thread " << thread << " chunk " << x;
      }
      ++x;
    }
  }
}

TEST(InterNodeLayoutTest, UnpartitionableArrayReturnsNull) {
  const ir::Program p = ir::ProgramBuilder("p")
                            .array("X", {32, 32})
                            .nest("n", {{0, 31}, {0, 31}, {0, 31}}, 0)
                            .read("X", {{0, 0, 1}, {0, 1, 0}})
                            .done()
                            .build();
  const parallel::ParallelSchedule schedule(p, 8);
  EXPECT_EQ(build_internode_layout(p, 0, schedule, small_topology()),
            nullptr);
}

TEST(InterNodeLayoutTest, RequiresPartitionedInput) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  ArrayPartitioning not_partitioned;
  not_partitioned.transform = linalg::IntMatrix::identity(2);
  EXPECT_THROW(InterNodeLayout(p, 0, not_partitioned, schedule,
                               {{1024, 4}}, {}, 8),
               std::invalid_argument);
}

/// The census's pattern, counts and patterned end against the layout
/// built from the same arguments: the same pattern, the closed-form end
/// equal to the layout's, and each thread's count equal to the touched
/// elements its slots hold. False when the array is not partitioned, so
/// neither entry builds anything.
bool expect_census_matches_layout(const ir::Program& p,
                                  const parallel::ParallelSchedule& schedule,
                                  const storage::StorageTopology& topology,
                                  LayerMask mask, ir::ArrayId array) {
  const ArrayPartitioning partitioning = partition_array(p, array, schedule);
  const auto census =
      internode_census(p, array, partitioning, schedule, topology, mask);
  const auto generic = build_internode_layout(p, array, partitioning,
                                              schedule, topology, mask);
  EXPECT_EQ(census.has_value(), generic != nullptr);
  if (!census || generic == nullptr) return false;
  const InterNodeLayout& layout = as_internode(generic);
  EXPECT_EQ(census->pattern.describe(), layout.pattern().describe());
  EXPECT_EQ(census->pattern.chunk_elements(), layout.pattern().chunk_elements());
  EXPECT_EQ(census->pattern.pattern_elements(),
            layout.pattern().pattern_elements());
  EXPECT_EQ(census->pattern.repetitions(), layout.pattern().repetitions());
  const auto& space = p.array(array).space();
  const std::int64_t patterned_end =
      layout.file_slots() - space.element_count();
  EXPECT_EQ(census->patterned_slots, patterned_end);

  // Against the materialized slots: one past the largest touched slot,
  // and each thread's touched elements.
  std::int64_t end = 0;
  std::vector<std::uint64_t> held(schedule.thread_count(), 0);
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const auto point = space.delinearize_row_major(i);
    const std::int64_t slot = layout.slot(point);
    if (slot >= patterned_end) continue;
    end = std::max(end, slot + 1);
    ++held[layout.owner(point)];
  }
  EXPECT_EQ(census->patterned_slots, end);
  EXPECT_EQ(census->share, held);
  for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    for (std::uint64_t x = 0; x < 4; ++x) {
      EXPECT_EQ(census->pattern.chunk_start(t, x),
                layout.pattern().chunk_start(t, x));
    }
  }
  return true;
}

/// `what()` of the `E` that `f` throws, after its dynamic type's name, so
/// two calls compare equal only when they throw the same type and text.
template <typename E, typename F>
std::string thrown(F&& f) {
  try {
    f();
  } catch (const E& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

TEST(InterNodeLayoutTest, TouchedCountMatchesAccessImage) {
  const auto p = transposed_program(32);
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  // The transposed sweep touches every element exactly once.
  EXPECT_EQ(layout->touched_count(), 32u * 32u);
}

TEST(InterNodeLayoutTest, SparseImagePacksOnlyTouchedElements) {
  // A strided reference touches one element in four: the layout packs the
  // touched quarter contiguously and parks the rest past the pattern.
  const auto p = ir::ProgramBuilder("sparse")
                     .array("A", {128, 32})
                     .nest("n", {{0, 31}, {0, 31}}, 0)
                     .read("A", {{4, 0}, {0, 1}})
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->touched_count(), 32u * 32u);
  // Touched elements land inside the patterned region...
  const std::int64_t touched_slot =
      layout->slot(std::vector<std::int64_t>{4, 0});
  // ...while untouched ones land past it.
  const std::int64_t untouched_slot =
      layout->slot(std::vector<std::int64_t>{1, 0});
  EXPECT_LT(touched_slot, untouched_slot);
  EXPECT_LT(untouched_slot, layout->file_slots());
}

/// Shapes the layout build must handle: dense, sparse, banded, several
/// references, three dimensions, a ragged bitmap end, negative and zero
/// row strides, nests of two depths and an inner parallel loop.
std::vector<ir::Program> hand_picked_programs() {
  return {
      transposed_program(32),
      sparse_rows_program(),
      diagonal_band_program(8),
      // Two references of one nest, overlapping in all but one row.
      ir::ProgramBuilder("two_refs")
          .array("A", {33, 32})
          .nest("n", {{0, 31}, {0, 31}}, 0)
          .read("A", {{0, 1}, {1, 0}})
          .write_ofs("A", {{0, 1}, {1, 0}}, {1, 0})
          .done()
          .build(),
      ir::ProgramBuilder("three_d")
          .array("B", {8, 6, 16})
          .nest("n", {{0, 15}, {0, 5}, {0, 7}}, 0)
          .read("B", {{0, 0, 1}, {0, 1, 0}, {1, 0, 0}})
          .done()
          .build(),
      // 37 x 23 = 851 elements: the bitmap's last word is partly outside
      // the box, and row 0 stays untouched.
      ir::ProgramBuilder("odd_box")
          .array("C", {37, 23})
          .nest("n", {{0, 22}, {0, 35}}, 0)
          .read_ofs("C", {{0, 1}, {1, 0}}, {1, 0})
          .done()
          .build(),
      // A[i1][31 - i2]: each row is marked from its high end down.
      ir::ProgramBuilder("negative_inner")
          .array("A", {32, 32})
          .nest("n", {{0, 31}, {0, 31}}, 0)
          .read_ofs("A", {{1, 0}, {0, -1}}, {0, 31})
          .done()
          .build(),
      // A[i1][2*i2] over a third loop the reference ignores: every
      // innermost row revisits one element.
      ir::ProgramBuilder("stride_zero_inner")
          .array("A", {16, 32})
          .nest("n", {{0, 15}, {0, 15}, {0, 3}}, 0)
          .read("A", {{1, 0, 0}, {0, 2, 0}})
          .done()
          .build(),
      // A 2-deep nest covers columns 0..15 and a 3-deep one, parallel on
      // its middle loop, columns 16..31.
      ir::ProgramBuilder("mixed_depths")
          .array("A", {32, 32})
          .nest("left", {{0, 31}, {0, 15}}, 0)
          .read("A", {{1, 0}, {0, 1}})
          .done()
          .nest("right", {{0, 3}, {0, 31}, {0, 15}}, 1)
          .write_ofs("A", {{0, 1, 0}, {0, 0, 1}}, {0, 16})
          .done()
          .build(),
      // Parallel on the inner loop: threads own column slabs.
      ir::ProgramBuilder("inner_parallel")
          .array("A", {16, 64})
          .nest("n", {{0, 15}, {0, 63}}, 1)
          .read("A", {{1, 0}, {0, 1}})
          .done()
          .build(),
  };
}

TEST(InterNodeLayoutTest, SlotsMatchReferencePacking) {
  for (const auto& p : hand_picked_programs()) {
    SCOPED_TRACE(p.name());
    const parallel::ParallelSchedule schedule(p, 8);
    const auto generic =
        build_internode_layout(p, 0, schedule, small_topology());
    ASSERT_NE(generic, nullptr);
    expect_reference_packing(p, schedule, as_internode(generic), 0);
  }
}

TEST(InterNodeLayoutTest, RandomProgramsMatchReferencePacking) {
  // Every partitioned array of seeded random programs, on their sampled
  // systems and under every layer mask.
  util::Rng rng(20240);
  const LayerMask masks[] = {LayerMask::kBoth, LayerMask::kIoOnly,
                             LayerMask::kStorageOnly};
  std::size_t compared = 0;
  for (int i = 0; i < 300; ++i) {
    const flo::testing::FuzzCase fc = flo::testing::random_case(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + fc.system.describe());
    const storage::StorageTopology topology(fc.system.config);
    const parallel::ParallelSchedule schedule(fc.program, fc.system.threads,
                                              fc.system.mapping);
    for (ir::ArrayId a = 0; a < fc.program.arrays().size(); ++a) {
      const auto generic = build_internode_layout(fc.program, a, schedule,
                                                  topology, masks[i % 3]);
      if (generic == nullptr) continue;
      expect_reference_packing(fc.program, schedule, as_internode(generic),
                               a);
      ++compared;
    }
  }
  EXPECT_GT(compared, 200u);
}

TEST(InterNodeLayoutTest, CensusMatchesTheBuiltLayout) {
  for (const auto& p : hand_picked_programs()) {
    SCOPED_TRACE(p.name());
    EXPECT_TRUE(expect_census_matches_layout(
        p, parallel::ParallelSchedule(p, 8), small_topology(),
        LayerMask::kBoth, 0));
  }
  util::Rng rng(20240);
  const LayerMask masks[] = {LayerMask::kBoth, LayerMask::kIoOnly,
                             LayerMask::kStorageOnly};
  std::size_t compared = 0;
  for (int i = 0; i < 300; ++i) {
    const flo::testing::FuzzCase fc = flo::testing::random_case(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + fc.system.describe());
    const storage::StorageTopology topology(fc.system.config);
    const parallel::ParallelSchedule schedule(fc.program, fc.system.threads,
                                              fc.system.mapping);
    for (ir::ArrayId a = 0; a < fc.program.arrays().size(); ++a) {
      if (expect_census_matches_layout(fc.program, schedule, topology,
                                       masks[i % 3], a)) {
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 200u);
}

TEST(InterNodeLayoutTest, ReferenceLeavingTheBoxThrows) {
  // ir::Program::add_nest checks array ids and ranks but not the box, so
  // these programs reach the layout with a reference leaving it: past the
  // last row's end, before the first row's start, below zero along a
  // descending row, and A[i][j+1] over rows 0..6, whose row-major indices
  // all stay inside the array while column 8 of row i aliases column 0 of
  // row i+1.
  struct Case {
    const char* name;
    linalg::IntMatrix access;
    linalg::IntVector offset;
    std::int64_t last_row = 7;
  };
  const std::vector<Case> cases = {
      {"past_end", linalg::IntMatrix{{1, 0}, {0, 1}}, {0, 1}},
      {"before_start", linalg::IntMatrix{{1, 0}, {0, 1}}, {-1, 0}},
      {"descending", linalg::IntMatrix{{1, 0}, {0, -1}}, {0, 3}},
      {"one_coordinate", linalg::IntMatrix{{1, 0}, {0, 1}}, {0, 1}, 6},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ir::Program p(c.name);
    p.add_array(ir::ArrayDecl("A", poly::DataSpace({8, 8})));
    ir::LoopNest nest("n", poly::IterationSpace({{0, c.last_row}, {0, 7}}),
                      0);
    nest.add_reference({0, poly::AffineReference(c.access, c.offset),
                        ir::AccessKind::kRead});
    p.add_nest(std::move(nest));
    const parallel::ParallelSchedule schedule(p, 8);
    const ArrayPartitioning partitioning = partition_array(p, 0, schedule);
    // The census alone throws exactly what the full build throws.
    const std::string built = thrown<std::out_of_range>([&] {
      build_internode_layout(p, 0, partitioning, schedule, small_topology());
    });
    EXPECT_FALSE(built.empty());
    EXPECT_EQ(built, thrown<std::out_of_range>([&] {
                internode_census(p, 0, partitioning, schedule,
                                 small_topology());
              }));
  }
}

TEST(InterNodeLayoutTest, UntouchedElementsTakeTheirHyperplaneOwner) {
  // Elements with one hyperplane value s lie in one slab, so an untouched
  // element belongs to whichever thread owns the touched elements of its s.
  const std::vector<ir::Program> programs = {
      // A[i1][2*i2]: odd columns are untouched, beside touched ones.
      ir::ProgramBuilder("odd_columns")
          .array("A", {64, 64})
          .nest("n", {{0, 63}, {0, 31}}, 0)
          .read("A", {{1, 0}, {0, 2}})
          .done()
          .build(),
      diagonal_band_program(8),
  };
  for (const auto& p : programs) {
    SCOPED_TRACE(p.name());
    const parallel::ParallelSchedule schedule(p, 8);
    const auto generic =
        build_internode_layout(p, 0, schedule, small_topology());
    ASSERT_NE(generic, nullptr);
    const InterNodeLayout& layout = as_internode(generic);
    const auto& space = p.array(0).space();
    const std::int64_t patterned_end =
        layout.file_slots() - space.element_count();
    const auto& d = layout.partitioning().hyperplane;
    std::map<std::int64_t, parallel::ThreadId> owner_of_s;
    std::vector<std::vector<std::int64_t>> untouched;
    for (std::int64_t i = 0; i < space.element_count(); ++i) {
      auto point = space.delinearize_row_major(i);
      if (layout.slot(point) < patterned_end) {
        owner_of_s[linalg::dot(d, point)] = layout.owner(point);
      } else {
        untouched.push_back(std::move(point));
      }
    }
    std::size_t compared = 0;
    for (const auto& point : untouched) {
      const auto it = owner_of_s.find(linalg::dot(d, point));
      if (it == owner_of_s.end()) continue;
      EXPECT_EQ(layout.owner(point), it->second)
          << "element (" << point[0] << ", " << point[1] << ")";
      ++compared;
    }
    EXPECT_GT(compared, 0u);
  }

  // Rows between touched rows of A[4*i1][i2] share the parallel-loop
  // coordinate floor(row / 4) of the touched row below them, so rows 4..7
  // go with row 4 (thread 0) and rows 32..47 with rows 32..44 (thread 2).
  const auto p = sparse_rows_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  ASSERT_NE(generic, nullptr);
  const InterNodeLayout& layout = as_internode(generic);
  for (std::int64_t row = 4; row < 8; ++row) {
    EXPECT_EQ(layout.owner(std::vector<std::int64_t>{row, 3}), 0u)
        << "row " << row;
  }
  for (std::int64_t row = 32; row < 48; ++row) {
    EXPECT_EQ(layout.owner(std::vector<std::int64_t>{row, 3}), 2u)
        << "row " << row;
  }
}

// Under ASan or TSan the sanitizer's allocator serves the heap and glibc's
// mallinfo2 counters do not move, so a footprint delta measures nothing.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerHeap = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerHeap = true;
#else
constexpr bool kSanitizerHeap = false;
#endif
#else
constexpr bool kSanitizerHeap = false;
#endif

std::size_t heap_bytes_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(InterNodeLayoutTest, DiagonalBandFootprintFollowsAccessImage) {
  if (kSanitizerHeap) {
    GTEST_SKIP() << "sanitizer allocator: mallinfo2 does not see the heap";
  }
  // add_opt_diagonal at n = 256: 8,650,752 declared elements, 65,536
  // touched. A slot per declared element alone would take 66 MiB.
  const auto p = diagonal_band_program(256);
  const parallel::ParallelSchedule schedule(p, 64);
  const storage::StorageTopology topology(
      storage::TopologyConfig::paper_default());
  const ArrayPartitioning partitioning = partition_array(p, 0, schedule);
  const std::size_t before = heap_bytes_in_use();
  const auto generic =
      build_internode_layout(p, 0, partitioning, schedule, topology);
  const std::size_t after = heap_bytes_in_use();
  ASSERT_NE(generic, nullptr);
  EXPECT_EQ(as_internode(generic).touched_count(), 65536u);
  // 65,536 slots x 4 B + 135,168 rank words x 12 B = 1.80 MiB.
  EXPECT_LT(after, before + (std::size_t{2} << 20))
      << "retained " << (after - before) << " bytes";
}

TEST(InterNodeLayoutTest, SlotsStopAtTheThirtyTwoBitLimit) {
  // Two threads share one cache of chunk c, so thread 1's k-th element
  // takes slot c + k. With 8 elements per thread, c = 2^32 - 8 puts the
  // last one on 2^32 - 1, the largest slot a 32-bit field holds, and
  // c = 2^32 - 7 puts it on 2^32.
  const auto p = transposed_program(4);
  const parallel::ParallelSchedule schedule(p, 2);
  const ArrayPartitioning partitioning = partition_array(p, 0, schedule);
  const std::uint64_t element_size =
      static_cast<std::uint64_t>(p.array(0).element_size());
  const auto build = [&](std::uint64_t chunk) {
    // block_elems = chunk caps the chunk at exactly `chunk` elements.
    return std::make_unique<InterNodeLayout>(
        p, 0, partitioning, schedule,
        std::vector<PatternLayer>{{chunk * 2 * element_size, 1}},
        std::vector<std::size_t>{}, chunk);
  };
  const std::uint64_t limit = std::uint64_t{1} << 32;
  const auto at_limit = build(limit - 8);
  EXPECT_EQ(at_limit->pattern().chunk_elements(), limit - 8);
  EXPECT_EQ(at_limit->file_slots(), static_cast<std::int64_t>(limit) +
                                        p.array(0).space().element_count());
  expect_reference_packing(p, schedule, *at_limit, 0);
  // The census alone finds the same end in closed form and throws exactly
  // what the full build throws.
  const auto census = [&](std::uint64_t chunk) {
    return InterNodeLayout::census(
        p, 0, partitioning, schedule,
        std::vector<PatternLayer>{{chunk * 2 * element_size, 1}},
        std::vector<std::size_t>{}, chunk);
  };
  EXPECT_EQ(census(limit - 8).patterned_slots,
            static_cast<std::int64_t>(limit));
  const std::string built =
      thrown<std::length_error>([&] { build(limit - 7); });
  EXPECT_FALSE(built.empty());
  EXPECT_EQ(built, thrown<std::length_error>([&] { census(limit - 7); }));
  // Chunks of 2^30 slots for eight threads of one cache: threads 4..7
  // start at 2^32.
  const auto wide = transposed_program(8);
  const parallel::ParallelSchedule eight(wide, 8);
  const ArrayPartitioning wide_partitioning =
      partition_array(wide, 0, eight);
  const std::uint64_t chunk = std::uint64_t{1} << 30;
  const std::vector<PatternLayer> one_cache = {{chunk * 8 * element_size, 1}};
  const std::string wide_built = thrown<std::length_error>([&] {
    InterNodeLayout(wide, 0, wide_partitioning, eight, one_cache, {}, chunk);
  });
  EXPECT_FALSE(wide_built.empty());
  EXPECT_EQ(wide_built, thrown<std::length_error>([&] {
              InterNodeLayout::census(wide, 0, wide_partitioning, eight,
                                      one_cache, {}, chunk);
            }));
}

TEST(InterNodeLayoutTest, LeafCacheMappingFollowsThreadMapping) {
  const auto p = transposed_program();
  parallel::ParallelSchedule schedule(p, 8);
  const auto topo = small_topology();
  const auto identity =
      leaf_cache_of_threads(schedule, topo, LayerMask::kBoth);
  EXPECT_EQ(identity, (std::vector<std::size_t>{0, 0, 1, 1, 2, 2, 3, 3}));
  const auto storage_only =
      leaf_cache_of_threads(schedule, topo, LayerMask::kStorageOnly);
  EXPECT_EQ(storage_only,
            (std::vector<std::size_t>{0, 0, 0, 0, 1, 1, 1, 1}));
}

TEST(InterNodeLayoutTest, DifferentMappingsChangeLayout) {
  const auto p = transposed_program();
  parallel::ParallelSchedule identity(p, 8);
  parallel::ParallelSchedule permuted(p, 8,
                                      parallel::MappingKind::kPermutation2);
  const auto a = build_internode_layout(p, 0, identity, small_topology());
  const auto b = build_internode_layout(p, 0, permuted, small_topology());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  bool differs = false;
  const auto& space = p.array(0).space();
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const auto point = space.delinearize_row_major(i);
    if (a->slot(point) != b->slot(point)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(InterNodeLayoutTest, DescribeMentionsHyperplane) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto layout =
      build_internode_layout(p, 0, schedule, small_topology());
  ASSERT_NE(layout, nullptr);
  EXPECT_NE(layout->describe().find("inter-node"), std::string::npos);
  EXPECT_NE(layout->describe().find("d=(0,1)"), std::string::npos);
}

TEST(InterNodeLayoutTest, IoOnlyMaskBuildsSingleLayerPattern) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic = build_internode_layout(p, 0, schedule,
                                              small_topology(),
                                              LayerMask::kIoOnly);
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  // One real layer plus the virtual root.
  EXPECT_EQ(layout->pattern().pattern_elements().size(), 2u);
}

}  // namespace
}  // namespace flo::layout
